// DIFFODE benchmark program: runs one workload against the library's public
// API, checks its outputs, and prints one JSON result object as the last
// line of stdout (perfbench/README.md has the workloads, the metrics and the
// layer each metric belongs to).
//
//   perfbench --workload <train-ushcn|serve-ushcn-b32> --seed N --seconds S
//             --trace <0|1>
//             [--workdir DIR] [--perturb-reference]
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 is a separate run that records spans around the calls the
// workload makes into each module, keeps them in memory, writes them to
// <workdir>/trace-<workload>-<seed>.json at exit, and reports the per-layer
// metrics. --perturb-reference corrupts the reference outputs so that the
// benchmark's own tests can check that every op is then counted as failed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "autograd/arena.h"
#include "autograd/ops.h"
#include "core/alloc_stats.h"
#include "core/batch_plans.h"
#include "core/batch_predictor.h"
#include "core/dhs.h"
#include "core/diffode_model.h"
#include "core/parallel.h"
#include "data/csv_loader.h"
#include "data/encoding.h"
#include "data/generators.h"
#include "data/sequence_batch.h"
#include "data/splits.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "tensor/random.h"
#include "tensor/simd.h"
#include "train/trainer.h"

namespace diffode::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Maps each observation window onto [0, kSpan] before integration; must
// match the span the DIFFODE engines pass to data::BuildEncoderInputs, so
// that the plans rebuilt here are the ones the engines integrate.
constexpr Scalar kSpan = 10.0;
// Training epochs per timed TrainRegressor call (a job); two keep jobs short
// enough for several 40-job windows a run. Every job restarts from the same
// checkpoint, so its losses must reproduce the first epochs of a reference
// training of kReferenceEpochs, made once per run, bit for bit. The
// reference's loss must fall from its first epoch to its last: over two
// epochs it can rise on some seeds, over eight it fell on every seed tried.
constexpr Index kEpochsPerJob = 2;
constexpr Index kReferenceEpochs = 8;
// f32 serving tiers of tests/precision_test.cc (regression readouts).
constexpr double kF32MedianTier = 1e-4;
constexpr double kF32P90Tier = 1e-3;
constexpr double kF32MaxTier = 5e-2;
// Batched vs per-sequence f64 logits (tests/batched_equiv_test.cc).
constexpr double kBatchedRelTol = 1e-10;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::time_point Deadline(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}
double Median(const std::vector<double>& xs) { return Quantile(xs, 0.5); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string CpuModel() {
#if defined(__x86_64__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out at exit. Self time of a span is
// its duration minus the durations of its direct children.
// ---------------------------------------------------------------------------
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::int64_t op = -1;  // spans of one op share this id
  };

  int Begin(const char* name, std::int64_t op) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, NowUs(), 0.0, current_, op});
    current_ = id;
    return id;
  }
  void End(int id) {
    spans_[static_cast<std::size_t>(id)].end_us = NowUs();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  // Durations (us) of every span with this name.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.end_us - s.start_us);
    return out;
  }

  // Per span named `outer`: the share of its wall time that the self times
  // of its descendants cover, i.e. 1 - (outer's own self time / wall).
  std::vector<double> Coverage(const std::string& outer) const {
    std::vector<double> child_sum(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child_sum[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double wall = s.end_us - s.start_us;
      if (s.name == outer && wall > 0.0) out.push_back(child_sum[i] / wall);
    }
    return out;
  }

  // Per op id in [op_lo, op_hi): the summed durations of its spans whose
  // name is one of `names`.
  std::map<std::int64_t, double> SumByOp(const std::vector<std::string>& names,
                                         std::int64_t op_lo,
                                         std::int64_t op_hi) const {
    std::map<std::int64_t, double> out;
    for (const Span& s : spans_)
      if (s.op >= op_lo && s.op < op_hi &&
          std::find(names.begin(), names.end(), s.name) != names.end())
        out[s.op] += s.end_us - s.start_us;
    return out;
  }

  // Appends the spans as Chrome trace events (chrome://tracing, Perfetto)
  // of process `pid`, named `process`.
  void AppendEvents(std::FILE* f, int pid, const char* process) const {
    std::fprintf(f,
                 "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
                 "\"args\": {\"name\": \"%s\"}}",
                 pid, process);
    for (const Span& s : spans_)
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"op\": %lld, \"parent\": %d}}",
                   s.name.c_str(), pid, s.start_us, s.end_us - s.start_us,
                   static_cast<long long>(s.op), s.parent);
  }

 private:
  static double NowUs() {
    static const Clock::time_point t0 = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  }

  std::vector<Span> spans_;
  int current_ = -1;
};

// RAII span; a no-op when tracer is null (the untraced runs).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, std::int64_t op)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, op) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Result accounting.
// ---------------------------------------------------------------------------
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool global_ok = true;  // checks over the whole run (tiers, loss descent)
  std::vector<std::pair<std::string, std::string>> env;

  void Metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Env(const std::string& key, const std::string& value) {
    env.push_back({key, value});
  }
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// ---------------------------------------------------------------------------
// CLI-shaped setup: data through SaveCsv -> LoadCsv, weights through
// SaveParams -> LoadParams, exactly as `diffode_cli generate` + `train
// --save` + `predict --load` hand them over.
// ---------------------------------------------------------------------------
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  bool perturb = false;
};

core::DiffOdeConfig CliConfig(Index channels, std::uint64_t seed) {
  core::DiffOdeConfig config;  // diffode_cli's DIFFODE flags and defaults
  config.input_dim = channels;
  config.latent_dim = 16;
  config.hippo_dim = 12;
  config.info_dim = 12;
  config.num_classes = 2;
  config.step = 0.5;
  config.seed = seed;
  return config;
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

std::vector<data::IrregularSeries> CsvRoundTrip(const data::Dataset& ds,
                                                const std::string& path,
                                                double* load_ms) {
  std::vector<data::IrregularSeries> all = ds.train;
  all.insert(all.end(), ds.val.begin(), ds.val.end());
  all.insert(all.end(), ds.test.begin(), ds.test.end());
  if (!data::SaveCsv(all, path)) Die("cannot write " + path);
  std::string error;
  const Clock::time_point t0 = Clock::now();
  std::vector<data::IrregularSeries> series =
      data::LoadCsv(path, ds.num_features, /*has_label=*/false, &error);
  *load_ms = Seconds(t0, Clock::now()) * 1e3;
  if (series.empty()) Die("LoadCsv failed: " + error);
  std::vector<data::IrregularSeries> kept;
  for (auto& s : series)
    if (s.length() >= 2) kept.push_back(std::move(s));  // as diffode_cli does
  return kept;
}

// A seeded-init model stands in for a trained checkpoint: it is saved, then
// loaded into a freshly constructed model.
std::unique_ptr<core::DiffOde> CheckpointRoundTrip(
    const core::DiffOdeConfig& config, const std::string& path,
    double* load_ms) {
  {
    core::DiffOde source(config);
    if (!nn::SaveParams(source.Params(), path)) Die("cannot write " + path);
  }
  auto model = std::make_unique<core::DiffOde>(config);
  std::vector<ag::Var> params = model->Params();
  const Clock::time_point t0 = Clock::now();
  const bool ok = nn::LoadParams(&params, path);
  *load_ms = Seconds(t0, Clock::now()) * 1e3;
  if (!ok) Die("LoadParams failed on " + path);
  return model;
}

// diffode_cli train's file-order 60/20/20 split, z-scored on the train part.
data::Dataset CliSplit(const std::vector<data::IrregularSeries>& series,
                       Index channels) {
  data::Dataset ds;
  ds.num_features = channels;
  const std::size_t n = series.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i < n * 6 / 10) {
      ds.train.push_back(series[i]);
    } else if (i < n * 8 / 10) {
      ds.val.push_back(series[i]);
    } else {
      ds.test.push_back(series[i]);
    }
  }
  data::NormalizeDataset(&ds);
  return ds;
}

// Query times for a regression request: one before the first observation
// (so the backward chain runs), one inside the window, one after it.
std::vector<Scalar> DrawQueryTimes(const data::IrregularSeries& s, Rng& rng) {
  const Scalar lo = s.times.front();
  const Scalar hi = s.times.back();
  const Scalar span = std::max<Scalar>(hi - lo, 1e-3);
  return {lo - rng.Uniform(0.02, 0.1) * span, rng.Uniform(lo, hi),
          hi + rng.Uniform(0.0, 0.1) * span};
}

// ---------------------------------------------------------------------------
// Lockstep plan statistics, rebuilt outside the engine through the same
// public calls it makes (data::BuildEncoderInputs + core::BuildBatchPlans).
// ---------------------------------------------------------------------------
struct PlanStats {
  double steps = 0.0;      // solver steps over every engine row
  double seqs = 0.0;
  double wave_rows = 0.0;  // lockstep waves x engine rows
};

void AccumulatePlans(const std::vector<const data::IrregularSeries*>& batch,
                     const std::vector<std::vector<Scalar>>* times,
                     const core::DiffOdeConfig& config, PlanStats* stats) {
  const std::size_t b = batch.size();
  std::vector<data::EncoderInputs> enc;
  enc.reserve(b);
  for (const data::IrregularSeries* s : batch)
    enc.push_back(data::BuildEncoderInputs(*s, kSpan));
  std::vector<std::vector<Scalar>> queries(b);
  std::vector<const std::vector<Scalar>*> anchors(b, nullptr);
  const bool anchored = config.use_attention && config.consistency_weight > 0;
  for (std::size_t r = 0; r < b; ++r) {
    if (times == nullptr) {
      queries[r] = enc[r].norm_times;  // classification reads every obs
    } else {
      for (Scalar t : (*times)[r]) queries[r].push_back(enc[r].Normalize(t));
    }
    if (anchored) anchors[r] = &enc[r].norm_times;
  }
  const core::BatchPlans bp = core::BuildBatchPlans(queries, anchors,
                                                    config.step);
  std::size_t waves = 0;
  double steps = 0.0;
  for (const ode::RowPlan& p : bp.plans) {
    waves = std::max(waves, p.steps.size());
    steps += static_cast<double>(p.steps.size());
  }
  stats->steps += steps;
  stats->wave_rows +=
      static_cast<double>(waves) * static_cast<double>(bp.plans.size());
  stats->seqs += static_cast<double>(b);
}

// ---------------------------------------------------------------------------
// Serving: a frozen model behind core::BatchPredictor, one closed-loop
// client, requests drawn cyclically from the loaded series.
// ---------------------------------------------------------------------------
struct ServeSpec {
  Precision precision = Precision::kF64;
  Index max_batch = 1;
  bool regression = false;  // PredictAt requests; else ClassifyLogits
};

struct ServeState {
  ServeSpec spec;
  core::DiffOdeConfig config;
  std::vector<data::IrregularSeries> series;
  std::vector<std::vector<Scalar>> times;  // per series (regression only)
  std::unique_ptr<core::DiffOde> model;    // frozen at spec.precision
  // Reference outputs: f64 per-sequence logits (classification) or the f64
  // engine at B = 1 on the same (for f32: rounded) weights (regression).
  std::vector<Tensor> ref_logits;
  std::vector<std::vector<Tensor>> ref_preds;
  // Per-series worst relative readout error (f32 tiers), -1 until checked.
  std::vector<double> readout_err;

  Index num_series() const { return static_cast<Index>(series.size()); }
  // Requests per pass; a pass starts a new BatchPredictor, as one
  // `diffode_cli predict` invocation over the file does.
  Index pass_len() const {
    return std::lcm(num_series(), spec.max_batch) / spec.max_batch;
  }
};

// Request k: the next spec.max_batch series, cyclically.
struct Request {
  std::vector<Index> idx;
  std::vector<const data::IrregularSeries*> series;
  std::vector<std::vector<Scalar>> times;  // regression only
};

Request MakeRequest(const ServeState& st, Index k) {
  Request r;
  for (Index j = 0; j < st.spec.max_batch; ++j) {
    const Index i = (k * st.spec.max_batch + j) % st.num_series();
    r.idx.push_back(i);
    r.series.push_back(&st.series[static_cast<std::size_t>(i)]);
    if (st.spec.regression) r.times.push_back(st.times[static_cast<std::size_t>(i)]);
  }
  return r;
}

void DrawAllQueryTimes(ServeState* st, std::uint64_t seed) {
  Rng rng(seed ^ 0x5eedu);
  for (const data::IrregularSeries& s : st->series)
    st->times.push_back(DrawQueryTimes(s, rng));
}

// Output check of one served row against its reference; true when it meets
// the workload's contract.
bool CheckServed(ServeState* st, Index idx,
                 const core::BatchPredictor::Result& res) {
  const std::size_t i = static_cast<std::size_t>(idx);
  if (!st->spec.regression) {
    const Tensor& ref = st->ref_logits[i];
    if (res.logits.numel() != ref.numel()) return false;
    for (Index j = 0; j < ref.numel(); ++j) {
      const double tol = kBatchedRelTol * std::max(1.0, std::fabs(ref[j]));
      if (!(std::fabs(res.logits[j] - ref[j]) <= tol)) return false;
    }
    return true;
  }
  const std::vector<Tensor>& ref = st->ref_preds[i];
  if (res.predictions.size() != ref.size()) return false;
  double worst = 0.0;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    const Tensor& a = res.predictions[k];
    const Tensor& e = ref[k];
    if (a.numel() != e.numel() || !a.AllFinite()) return false;
    double num = 0.0, den = 1.0;
    for (Index j = 0; j < e.numel(); ++j) {
      num = std::max(num, std::fabs(a[j] - e[j]));
      den = std::max(den, std::fabs(e[j]));
    }
    worst = std::max(worst, num / den);
  }
  if (st->readout_err[i] < 0.0) st->readout_err[i] = worst;
  return worst <= (st->spec.precision == Precision::kF32 ? kF32MaxTier
                                                          : kBatchedRelTol);
}

// Serves `count` requests from request `first` on through BatchPredictor,
// as the CLI does, starting a new predictor at every pass boundary. Returns
// per-request latencies (s), first Enqueue to last result. With a report,
// each request is checked and counted as one attempted op.
std::vector<double> ServeRequests(ServeState* st, Index first, Index count,
                                  Report* report) {
  std::vector<double> lat;
  std::unique_ptr<core::BatchPredictor> predictor;
  std::vector<const core::BatchPredictor::Result*> results;
  for (Index k = first; k < first + count; ++k) {
    if (!predictor || k % st->pass_len() == 0)
      predictor = std::make_unique<core::BatchPredictor>(st->model.get(),
                                                         st->spec.max_batch);
    const Request req = MakeRequest(*st, k);
    results.clear();
    const Clock::time_point t0 = Clock::now();
    std::vector<Index> ids;
    for (std::size_t j = 0; j < req.series.size(); ++j)
      ids.push_back(st->spec.regression
                        ? predictor->Enqueue(*req.series[j], req.times[j])
                        : predictor->Enqueue(*req.series[j]));
    predictor->Flush();  // no-op when the last Enqueue auto-flushed
    for (Index id : ids) results.push_back(&predictor->result(id));
    lat.push_back(Seconds(t0, Clock::now()));
    if (report == nullptr) continue;
    bool ok = true;
    for (std::size_t j = 0; j < results.size(); ++j)
      ok = CheckServed(st, req.idx[j], *results[j]) && ok;
    report->Count(ok);
  }
  return lat;
}

void BuildReferences(ServeState* st, bool perturb) {
  const std::size_t n = st->series.size();
  st->readout_err.assign(n, -1.0);
  if (!st->spec.regression) {
    // Per-sequence no-grad forward of the same frozen f64 model.
    ag::NoGradScope no_grad;
    for (const data::IrregularSeries& s : st->series) {
      (void)st->model->TakeAuxiliaryLoss();
      Tensor logits = st->model->ClassifyLogits(s).value();
      (void)st->model->TakeAuxiliaryLoss();
      if (perturb) logits[0] += 1e-6 * std::max(1.0, std::fabs(logits[0]));
      st->ref_logits.push_back(std::move(logits));
    }
    return;
  }
  // The f64 engine on the model's weights — after Freeze(kF32) rounded them
  // in place — so the difference is compute precision only (as in
  // tests/precision_test.cc).
  core::DiffOde ref(st->config);
  std::vector<ag::Var> dst = ref.Params();
  const std::vector<ag::Var> src = st->model->Params();
  for (std::size_t i = 0; i < dst.size(); ++i)
    dst[i].mutable_value() = src[i].value();
  ref.Freeze(Precision::kF64);
  core::BatchedDispatch dispatch(&ref);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Tensor> preds = dispatch.PredictAtBatched(
        data::MakeSequenceBatch({&st->series[i]}), {st->times[i]})[0];
    if (perturb) {
      // Shift every readout by 10% of its scale: past the f32 max tier.
      for (Tensor& p : preds) {
        double scale = 1.0;
        for (Index j = 0; j < p.numel(); ++j)
          scale = std::max(scale, std::fabs(p[j]));
        for (Index j = 0; j < p.numel(); ++j) p[j] += 0.1 * scale;
      }
    }
    st->ref_preds.push_back(std::move(preds));
  }
}

struct SetupTimes {
  double total_s = 0.0;
  double load_csv_ms = 0.0;
  double load_params_ms = 0.0;
};

enum class ServeShape {
  kUshcnB32,       // the serve-ushcn-b32 workload
  kPhysioNetF32B1  // the f32 B = 1 probe of every traced run
};

// One CLI-shaped serving setup, timed: generate, CSV round trip, checkpoint
// round trip, Freeze. The warm-up (WarmUpServe) and the references are not
// part of it.
std::unique_ptr<ServeState> SetupServe(ServeShape shape, const Args& args,
                                       SetupTimes* t) {
  const Clock::time_point t0 = Clock::now();
  auto st = std::make_unique<ServeState>();
  data::Dataset ds;
  if (shape == ServeShape::kUshcnB32) {
    st->spec = ServeSpec{Precision::kF64, 32, false};
    data::UshcnLikeConfig c;
    c.num_stations = 100;
    c.seed = args.seed;
    ds = data::MakeUshcnLike(c);
  } else {
    st->spec = ServeSpec{Precision::kF32, 1, true};
    data::PhysioNetLikeConfig c;
    c.num_patients = 100;
    c.seed = args.seed;
    ds = data::MakePhysioNetLike(c);
  }
  st->series = CsvRoundTrip(ds, args.workdir + "/serve.csv", &t->load_csv_ms);
  st->config = CliConfig(ds.num_features, args.seed);
  st->model = CheckpointRoundTrip(st->config, args.workdir + "/serve.bin",
                                  &t->load_params_ms);
  st->model->Freeze(st->spec.precision);
  if (st->spec.regression) DrawAllQueryTimes(st.get(), args.seed);
  t->total_s = Seconds(t0, Clock::now());
  return st;
}

// Up to 8 untimed requests fill the buffer-pool caches before any timing.
// They are kept out of setup_s: at B = 32 every request waits on the pool's
// RK-stage barriers, which a busy host stretches far more than the
// single-threaded setup steps.
void WarmUpServe(ServeState* st) {
  (void)ServeRequests(st, 0, std::min<Index>(st->pass_len(), 8), nullptr);
}

// ---------------------------------------------------------------------------
// Training: diffode_cli train on the USHCN-like set (interpolation).
// ---------------------------------------------------------------------------
struct TrainState {
  data::Dataset ds;
  core::DiffOdeConfig config;
  std::unique_ptr<core::DiffOde> model;
  std::vector<Tensor> init;          // checkpoint values every job starts from
  train::TrainOptions options;
  std::vector<Scalar> ref_losses;    // the reference training's losses
};

// TrainRegressor for `epochs` epochs from the checkpoint, never stopping
// early.
train::FitResult RunJob(TrainState* st, Index epochs = kEpochsPerJob) {
  std::vector<ag::Var> params = st->model->Params();
  for (std::size_t i = 0; i < params.size(); ++i)
    params[i].mutable_value() = st->init[i];
  train::TrainOptions options = st->options;
  options.epochs = epochs;
  options.patience = epochs;
  return train::TrainRegressor(st->model.get(), st->ds,
                               train::RegressionTask::kInterpolation, options);
}

std::unique_ptr<TrainState> MakeTrainState(
    const std::vector<data::IrregularSeries>& series, Index channels,
    const core::DiffOdeConfig& config, std::unique_ptr<core::DiffOde> model,
    std::uint64_t seed) {
  auto st = std::make_unique<TrainState>();
  st->ds = CliSplit(series, channels);
  st->config = config;
  st->model = std::move(model);
  for (const ag::Var& p : st->model->Params()) st->init.push_back(p.value());
  st->options.batch_size = 8;
  st->options.lr = 0.003;  // diffode_cli's --lr default
  st->options.seed = seed;
  return st;
}

// Full CLI-shaped training setup, timed. The reference training that follows
// in RunTrain is untimed, like the serving warm-up.
std::unique_ptr<TrainState> SetupTrain(const Args& args, SetupTimes* t) {
  const Clock::time_point t0 = Clock::now();
  data::UshcnLikeConfig c;
  c.num_stations = 64;
  c.seed = args.seed;
  const data::Dataset raw = data::MakeUshcnLike(c);
  const std::vector<data::IrregularSeries> series =
      CsvRoundTrip(raw, args.workdir + "/train.csv", &t->load_csv_ms);
  const core::DiffOdeConfig config = CliConfig(raw.num_features, args.seed);
  auto model = CheckpointRoundTrip(config, args.workdir + "/train.bin",
                                   &t->load_params_ms);
  auto st = MakeTrainState(series, raw.num_features, config, std::move(model),
                           args.seed);
  t->total_s = Seconds(t0, Clock::now());
  return st;
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced runs only).
// ---------------------------------------------------------------------------

// Rows of a regression view's target that hold a held-out entry (what the
// trainer predicts and scores).
struct Targets {
  std::vector<Scalar> times;
  Tensor values;
  Tensor mask;
};

bool CollectTargets(const data::TaskView& view, Targets* out) {
  const data::IrregularSeries& t = view.target;
  std::vector<Index> rows;
  for (Index i = 0; i < t.length(); ++i)
    for (Index j = 0; j < t.num_features(); ++j)
      if (t.mask.at(i, j) > 0) {
        rows.push_back(i);
        break;
      }
  if (rows.empty() || view.context.length() < 2) return false;
  const Index m = static_cast<Index>(rows.size());
  const Index f = t.num_features();
  out->values = Tensor(Shape{m, f});
  out->mask = Tensor(Shape{m, f});
  for (Index k = 0; k < m; ++k) {
    out->times.push_back(t.times[static_cast<std::size_t>(rows[k])]);
    for (Index j = 0; j < f; ++j) {
      out->values.at(k, j) = t.values.at(rows[k], j);
      out->mask.at(k, j) = t.mask.at(rows[k], j);
    }
  }
  return true;
}

struct EpochProbe {
  double epoch_us = 0.0;          // wall time of the traced epoch
  double seqs = 0.0;              // training sequences with a gradient
  core::AllocStats::Snapshot alloc;  // over the grad forwards + backwards
  bool finite = true;
};

// One training epoch plus validation, single-threaded, through the public
// calls the trainer makes, with a span around each. The trainer's GradSink
// sharding is skipped: one thread accumulates straight into the parameters.
EpochProbe TracedEpoch(TrainState* st, Tracer* tracer, std::int64_t op) {
  EpochProbe out;
  std::vector<ag::Var> params = st->model->Params();
  for (std::size_t i = 0; i < params.size(); ++i)
    params[i].mutable_value() = st->init[i];
  nn::Adam optimizer(params, st->options.lr, st->options.weight_decay);
  Rng rng(st->options.seed);
  std::vector<Index> order(st->ds.train.size());
  std::iota(order.begin(), order.end(), Index{0});
  std::shuffle(order.begin(), order.end(), rng.engine());
  const Clock::time_point t0 = Clock::now();
  {
    SpanScope epoch(tracer, "epoch", op);
    optimizer.ZeroGrad();
    std::size_t pos = 0;
    while (pos < order.size()) {
      tensor::BufferPool::Scope step_pool;
      std::vector<std::pair<data::TaskView, Targets>> batch;
      {
        SpanScope span(tracer, "view", op);
        while (pos < order.size() &&
               static_cast<Index>(batch.size()) < st->options.batch_size) {
          data::TaskView view = data::MakeInterpolationView(
              st->ds.train[static_cast<std::size_t>(order[pos++])],
              st->options.interp_target_frac, rng);
          Targets targets;
          if (CollectTargets(view, &targets))
            batch.emplace_back(std::move(view), std::move(targets));
        }
      }
      if (batch.empty()) continue;
      for (const auto& [view, targets] : batch) {
        ag::TapeArena::Scope arena_scope;
        tensor::BufferPool::Scope pool_scope;
        const core::AllocStats::Snapshot before = core::AllocStats::Read();
        (void)st->model->TakeAuxiliaryLoss();
        std::vector<ag::Var> preds;
        {
          SpanScope span(tracer, "forward_grad", op);
          preds = st->model->PredictAt(view.context, targets.times);
        }
        ag::Var loss;
        {
          SpanScope span(tracer, "loss", op);
          loss = ag::MaskedMseLoss(ag::ConcatRows(preds), targets.values,
                                   targets.mask);
          ag::Var aux = st->model->TakeAuxiliaryLoss();
          if (aux.defined()) loss = ag::Add(loss, aux);
        }
        {
          SpanScope span(tracer, "backward", op);
          loss.Backward();
        }
        out.finite = out.finite && std::isfinite(loss.value().item());
        {
          // Dropping the last handles frees the tape (node destructors,
          // buffers back to the pool) before the arena is reclaimed.
          SpanScope span(tracer, "tape_release", op);
          preds.clear();
          loss = ag::Var();
          ag::TapeArena::ThreadLocal().Reset();
        }
        const core::AllocStats::Snapshot d =
            core::AllocStats::Delta(before, core::AllocStats::Read());
        out.alloc.arena_nodes += d.arena_nodes;
        out.alloc.arena_bytes += d.arena_bytes;
        out.seqs += 1.0;
      }
      SpanScope span(tracer, "adam", op);
      optimizer.ScaleGrads(1.0 / static_cast<Scalar>(batch.size()));
      optimizer.ClipGradNorm(st->options.clip_norm);
      optimizer.StepAndZero();
    }
    // Validation, as EvaluateMse runs it: fixed per-index view seeds.
    for (std::size_t i = 0; i < st->ds.val.size(); ++i) {
      ag::TapeArena::Scope arena_scope;
      tensor::BufferPool::Scope pool_scope;
      {
        ag::NoGradScope no_grad;
        data::TaskView view;
        Targets targets;
        bool usable = false;
        {
          SpanScope span(tracer, "val_view", op);
          Rng vrng(st->options.seed + 1 + i * 1315423911ull);
          view = data::MakeInterpolationView(
              st->ds.val[i], st->options.interp_target_frac, vrng);
          usable = CollectTargets(view, &targets);
        }
        if (usable) {
          SpanScope span(tracer, "forward_nograd", op);
          (void)st->model->TakeAuxiliaryLoss();
          (void)st->model->PredictAt(view.context, targets.times);
          (void)st->model->TakeAuxiliaryLoss();
        }
      }
      ag::TapeArena::ThreadLocal().Reset();
    }
  }
  out.epoch_us = Seconds(t0, Clock::now()) * 1e6;
  return out;
}

// Solver grids of the training sequences' interpolation views.
PlanStats TrainPlans(const TrainState& st) {
  PlanStats plans;
  Rng rng(st.options.seed);
  for (const data::IrregularSeries& s : st.ds.train) {
    const data::TaskView view = data::MakeInterpolationView(
        s, st.options.interp_target_frac, rng);
    Targets targets;
    if (!CollectTargets(view, &targets)) continue;
    const std::vector<std::vector<Scalar>> times = {targets.times};
    AccumulatePlans({&view.context}, &times, st.config, &plans);
  }
  return plans;
}

template <typename Fn>
double MedianUsPerCall(const Fn& fn, Index calls_per_batch, double budget_s) {
  std::vector<double> per_call;
  const Clock::time_point end = Deadline(budget_s);
  do {
    const Clock::time_point t0 = Clock::now();
    for (Index i = 0; i < calls_per_batch; ++i) fn();
    per_call.push_back(Seconds(t0, Clock::now()) * 1e6 /
                       static_cast<double>(calls_per_batch));
  } while (Clock::now() < end || per_call.size() < 5);
  return Median(per_call);
}

template <typename T>
void GemmProbe(Index m, Index k, Index n, const std::string& tag,
               double budget_s, Report* report) {
  Rng rng(17);
  std::vector<T> a(static_cast<std::size_t>(m * k));
  std::vector<T> b(static_cast<std::size_t>(k * n));
  std::vector<T> c(static_cast<std::size_t>(m * n));
  for (T& x : a) x = static_cast<T>(rng.Uniform(-1.0, 1.0));
  for (T& x : b) x = static_cast<T>(rng.Uniform(-1.0, 1.0));
  const double us = MedianUsPerCall(
      [&] { kernels::Gemm<T>(m, k, n, a.data(), b.data(), c.data()); }, 2000,
      budget_s);
  const double flops = 2.0 * static_cast<double>(m * k * n);
  report->Metric("tensor.gemm_gflops." + tag, flops / us * 1e-3, "GFLOP/s");
  report->Metric("tensor.gemm_bytes_computed." + tag,
                 static_cast<double>((m * k + k * n + m * n) *
                                     static_cast<Index>(sizeof(T))),
                 "bytes");
}

// Kernel and thread-pool probes at the phi MLP shapes every workload runs
// (k = d + 1 inputs, n = mlp_hidden outputs).
void KernelProbes(const core::DiffOdeConfig& config, double budget_s,
                  Report* report) {
  const Index k = config.latent_dim + 1;
  const Index n = config.mlp_hidden;
  GemmProbe<double>(32, k, n, "f64.m32", budget_s, report);
  GemmProbe<double>(1, k, n, "f64.m1", budget_s, report);
  GemmProbe<float>(1, k, n, "f32.m1", budget_s, report);

  // MaskedRowUpdate at the b32 state shape, every other row masked in.
  const Index rows = 32;
  const Index cols = config.latent_dim + config.hippo_dim + config.info_dim;
  std::vector<double> src(static_cast<std::size_t>(rows * cols), 1.5);
  std::vector<double> dst(src.size(), 0.0);
  std::vector<unsigned char> mask(static_cast<std::size_t>(rows));
  for (Index r = 0; r < rows; ++r) mask[static_cast<std::size_t>(r)] = r % 2;
  const double us = MedianUsPerCall(
      [&] {
        kernels::MaskedRowUpdate<double>(rows, cols, mask.data(), src.data(),
                                         dst.data());
      },
      20000, budget_s);
  const double bytes = 2.0 * (rows / 2) * cols * sizeof(double);
  report->Metric("tensor.masked_row_update_gbps", bytes / us * 1e-3, "GB/s");

  report->Metric(
      "parallel.run_us",
      MedianUsPerCall([] { parallel::ThreadPool::Get().Run(32, [](Index) {}); },
                      200, budget_s),
      "us");
}

// The public dhs.h calls at this workload's n x d, with grad on (the
// training tape), on the median-length series' latent matrix.
void DhsProbe(TrainState* st, double budget_s, Report* report) {
  std::vector<const data::IrregularSeries*> by_len;
  for (const auto& s : st->ds.train) by_len.push_back(&s);
  std::sort(by_len.begin(), by_len.end(), [](const auto* a, const auto* b) {
    return a->length() < b->length();
  });
  const data::IrregularSeries& s = *by_len[by_len.size() / 2];
  Tensor z_val;
  {
    ag::NoGradScope no_grad;
    z_val = st->model->LatentZ(s);
  }
  const Index n = z_val.rows();
  const Index d = z_val.cols();
  Rng rng(23);
  const ag::Var z(z_val, /*requires_grad=*/true);
  const ag::Var z_query = ag::Constant(z_val.Row(n / 2));
  const ag::Var h2 = ag::Constant(rng.UniformTensor(Shape{1, n}, -1.0, 1.0));
  const ag::Var w = ag::Constant(rng.UniformTensor(Shape{1, d}, -1.0, 1.0));
  std::vector<double> build, rec_p, rec_z, deriv;
  const Clock::time_point end = Deadline(budget_s);
  ag::TapeArena::Scope arena_scope;
  tensor::BufferPool::Scope pool_scope;
  do {
    {
      const Clock::time_point t0 = Clock::now();
      const core::DhsContext ctx = core::BuildDhsContext(z, st->config.ridge);
      const Clock::time_point t1 = Clock::now();
      const ag::Var s_val = core::DhsForward(ctx, z_query);
      const Clock::time_point t2 = Clock::now();
      const ag::Var p =
          core::RecoverPVar(ctx, s_val, st->config.pt_strategy, ag::Var());
      const Clock::time_point t3 = Clock::now();
      const ag::Var zr = core::RecoverZVar(ctx, p, h2);
      const Clock::time_point t4 = Clock::now();
      const ag::Var ds = core::DhsDerivative(ctx, w, p);
      const Clock::time_point t5 = Clock::now();
      build.push_back(Seconds(t0, t1) * 1e6);
      rec_p.push_back(Seconds(t2, t3) * 1e6);
      rec_z.push_back(Seconds(t3, t4) * 1e6);
      deriv.push_back(Seconds(t4, t5) * 1e6);
    }
    ag::TapeArena::ThreadLocal().Reset();
  } while (Clock::now() < end || build.size() < 5);
  report->Metric("core.dhs_build_us", Median(build), "us");
  report->Metric("core.recover_p_us", Median(rec_p), "us");
  report->Metric("core.recover_z_us", Median(rec_z), "us");
  report->Metric("core.dhs_derivative_us", Median(deriv), "us");
}

struct ServeProbeResult {
  double untraced_default_ms = 0.0;  // median request, default threads
  double untraced_1t_ms = 0.0;
  double traced_1t_sum_ms = 0.0;     // median Σ child spans, 1 thread
  double trace_overhead = 0.0;       // traced / untraced request loop - 1
  PlanStats plans;
};

// The two public steps BatchPredictor::Flush makes — MakeSequenceBatch, then
// BatchedDispatch — each under a span, for `count` requests from request
// `first` on; request k's spans carry op id op_base + k. Returns the
// per-request wall times (s); with a null tracer the same loop runs untraced.
// With a report, each request is checked and counted as one attempted op.
std::vector<double> TracedRequests(ServeState* st,
                                   core::BatchedDispatch* dispatch,
                                   Tracer* tracer, std::int64_t op_base,
                                   Index first, Index count,
                                   std::vector<double>* heap_allocs,
                                   Report* report) {
  std::vector<double> lat;
  for (Index k = first; k < first + count; ++k) {
    const Request req = MakeRequest(*st, k);
    std::vector<core::BatchPredictor::Result> res(req.series.size());
    const core::AllocStats::Snapshot before = core::AllocStats::Read();
    const Clock::time_point t0 = Clock::now();
    {
      SpanScope request(tracer, "request", op_base + k);
      data::SequenceBatch batch;
      {
        SpanScope span(tracer, "batch_build", op_base + k);
        batch = data::MakeSequenceBatch(req.series);
      }
      SpanScope span(tracer, "dispatch", op_base + k);
      if (st->spec.regression) {
        auto preds = dispatch->PredictAtBatched(batch, req.times);
        for (std::size_t j = 0; j < res.size(); ++j)
          res[j].predictions = std::move(preds[j]);
      } else {
        const Tensor logits = dispatch->ClassifyLogitsBatched(batch);
        for (std::size_t j = 0; j < res.size(); ++j)
          res[j].logits = logits.Row(static_cast<Index>(j));
      }
    }
    lat.push_back(Seconds(t0, Clock::now()));
    if (heap_allocs != nullptr) {
      const core::AllocStats::Snapshot d =
          core::AllocStats::Delta(before, core::AllocStats::Read());
      heap_allocs->push_back(static_cast<double>(d.pool_bypass + d.pool_misses));
    }
    if (report == nullptr) continue;
    bool ok = true;
    for (std::size_t j = 0; j < res.size(); ++j)
      ok = CheckServed(st, req.idx[j], res[j]) && ok;
    report->Count(ok);
  }
  return lat;
}

Index RequestsFor(ServeState* st, double budget_s) {
  // Times one request to size each phase to its share of the budget.
  const std::vector<double> lat = ServeRequests(st, 0, 1, nullptr);
  const double per = std::max(lat[0], 1e-6);
  return std::max<Index>(3, static_cast<Index>(budget_s / per));
}

// Op ids of the single-thread traced requests and of the traced epoch, kept
// apart from the default-thread requests (ids 0..n-1).
constexpr std::int64_t kOps1t = 1'000'000'000;
constexpr std::int64_t kOpEpoch = 2'000'000'000;

// Traced and untraced chunks of requests alternate, each pair in turn
// opening with the other, so the tracing overhead compares like with like.
constexpr Index kOverheadPairs = 6;

ServeProbeResult ServeProbe(ServeState* st, Tracer* tracer, double budget_s,
                            Report* report) {
  ServeProbeResult out;
  const Index n = RequestsFor(st, budget_s / 5.0);
  core::BatchedDispatch dispatch(st->model.get());

  // Default threads: the traced chunks give the per-layer numbers.
  const Index chunk = std::max<Index>(1, n / kOverheadPairs);
  std::vector<double> heap, ratios;
  for (Index p = 0; p < kOverheadPairs; ++p) {
    double traced = 0.0, untraced = 0.0;
    for (int side = 0; side < 2; ++side) {
      const bool traced_side = (side == 0) == (p % 2 == 0);
      const Index first = (2 * p + side) * chunk;
      if (traced_side) {
        traced = Median(TracedRequests(st, &dispatch, tracer, 0, first, chunk,
                                       &heap, report));
      } else {
        untraced = Median(TracedRequests(st, &dispatch, nullptr, 0, first,
                                         chunk, nullptr, nullptr));
      }
    }
    ratios.push_back(traced / untraced);
  }
  out.trace_overhead = Median(ratios) - 1.0;
  report->Metric("data.batch_build_us",
                 Median(tracer->Durations("batch_build")), "us");
  report->Metric("core.engine_ms_per_seq",
                 Median(tracer->Durations("dispatch")) * 1e-3 /
                     static_cast<double>(st->spec.max_batch),
                 "ms");
  report->Metric("alloc.heap_allocs_per_req", Median(heap), "count");
  report->Metric("trace.request_coverage", Median(tracer->Coverage("request")),
                 "ratio");

  // Untraced, through BatchPredictor, at default threads and at 1 thread.
  out.untraced_default_ms = Median(ServeRequests(st, 0, n, nullptr)) * 1e3;
  parallel::ThreadPool::SetNumThreads(1);
  out.untraced_1t_ms = Median(ServeRequests(st, 0, n, nullptr)) * 1e3;
  // Traced at 1 thread: the single-thread span sum per request.
  (void)TracedRequests(st, &dispatch, tracer, kOps1t, 0, n, nullptr, nullptr);
  std::vector<double> sums;
  for (const auto& [op, us] :
       tracer->SumByOp({"batch_build", "dispatch"}, kOps1t, kOps1t + n))
    sums.push_back(us * 1e-3);
  out.traced_1t_sum_ms = Median(sums);
  parallel::ThreadPool::SetNumThreads(0);

  // Plan build time and exact step counts over one full pass.
  std::vector<double> plan_us;
  for (Index k = 0; k < st->pass_len(); ++k) {
    const Request req = MakeRequest(*st, k);
    const Clock::time_point t0 = Clock::now();
    AccumulatePlans(req.series, st->spec.regression ? &req.times : nullptr,
                    st->config, &out.plans);
    plan_us.push_back(Seconds(t0, Clock::now()) * 1e6);
  }
  report->Metric("ode.plan_build_us", Median(plan_us), "us");
  return out;
}

struct TrainProbeResult {
  double traced_epoch_ms = 0.0;    // single-thread traced epoch
  double untraced_epoch_ms = 0.0;  // the same epoch loop, untraced
  double epoch_default_ms = 0.0;   // untraced TrainRegressor, default threads
  double epoch_1t_ms = 0.0;        // untraced TrainRegressor, 1 thread
  PlanStats plans;
};

double MedianEpochMs(TrainState* st, Index jobs, double* pool_misses) {
  std::vector<double> ms;
  for (Index j = 0; j < jobs; ++j) {
    const core::AllocStats::Snapshot before = core::AllocStats::Read();
    const Clock::time_point t0 = Clock::now();
    (void)RunJob(st);
    ms.push_back(Seconds(t0, Clock::now()) * 1e3 / kEpochsPerJob);
    if (pool_misses != nullptr)  // the last, warmest job
      *pool_misses = static_cast<double>(
                         core::AllocStats::Delta(before,
                                                 core::AllocStats::Read())
                             .pool_misses) /
                     kEpochsPerJob;
  }
  return Median(ms);
}

TrainProbeResult TrainProbe(TrainState* st, Tracer* tracer, Index jobs,
                            Report* report) {
  TrainProbeResult out;
  parallel::ThreadPool::SetNumThreads(1);
  (void)TracedEpoch(st, nullptr, -1);  // warm the single-thread caches
  // Untraced and traced epochs alternate, so the overhead compares like
  // with like.
  std::vector<double> untraced_ms, traced_ms;
  EpochProbe ep;
  for (std::int64_t i = 0; i < 3; ++i) {
    untraced_ms.push_back(TracedEpoch(st, nullptr, -1).epoch_us * 1e-3);
    ep = TracedEpoch(st, tracer, kOpEpoch + i);
    report->Count(ep.finite);
    traced_ms.push_back(ep.epoch_us * 1e-3);
  }
  out.untraced_epoch_ms = Median(untraced_ms);
  out.traced_epoch_ms = Median(traced_ms);
  out.plans = TrainPlans(*st);
  out.epoch_1t_ms = MedianEpochMs(st, jobs, nullptr);
  parallel::ThreadPool::SetNumThreads(0);
  double pool_misses = 0.0;
  out.epoch_default_ms = MedianEpochMs(st, jobs, &pool_misses);

  const auto ms = [&](const char* name) {
    return Median(tracer->Durations(name)) * 1e-3;
  };
  report->Metric("nn.adam_step_ms", ms("adam"), "ms");
  report->Metric("core.forward_grad_ms", ms("forward_grad"), "ms");
  report->Metric("core.forward_nograd_ms", ms("forward_nograd"), "ms");
  report->Metric("autograd.backward_ms", ms("backward"), "ms");
  report->Metric("alloc.arena_nodes_per_seq",
                 static_cast<double>(ep.alloc.arena_nodes) / ep.seqs, "count");
  report->Metric("alloc.arena_bytes_per_seq",
                 static_cast<double>(ep.alloc.arena_bytes) / ep.seqs, "bytes");
  report->Metric("alloc.pool_misses_per_epoch", pool_misses, "count");
  report->Metric("trace.epoch_coverage", Median(tracer->Coverage("epoch")),
                 "ratio");
  return out;
}

// ---------------------------------------------------------------------------
// Workload runs.
// ---------------------------------------------------------------------------
// setup_s is the median of kSetups setups: the one the run uses, then one
// more at each kSetups-th of the timed loop (any still missing right after
// it, in runs too short for them), so that no single phase of the host's
// load sets the figure. A traced run makes its setups up front.
constexpr std::size_t kSetups = 9;

// Whether setup number `done` is due, the timed loop having started at
// `start`.
bool SetupDue(Clock::time_point start, double seconds, std::size_t done) {
  return done < kSetups && Seconds(start, Clock::now()) >=
                               seconds * static_cast<double>(done) / kSetups;
}

// Latency and throughput over consecutive windows of kWindowOps ops (the
// last window absorbs the remainder). The tail is each window's p75, the
// highest percentile with at least ten of the window's samples beyond it,
// and throughput is each window's sequences over its busy time; both report
// the median over windows, so interference from other tenants that spans
// less than half the run leaves the figure alone. p90 over 100-op windows
// spread three times as much from run to run on a shared host under load
// (perfbench/README.md, "Run-to-run spread").
constexpr std::size_t kWindowOps = 40;

void ReportLatencies(const std::vector<double>& op_s, double seqs_per_op,
                     Report* report) {
  const std::size_t windows = std::max<std::size_t>(1, op_s.size() / kWindowOps);
  std::vector<double> rate, tail;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = op_s.begin() + static_cast<std::ptrdiff_t>(w * kWindowOps);
    const auto last = w + 1 == windows
                          ? op_s.end()
                          : first + static_cast<std::ptrdiff_t>(kWindowOps);
    const std::vector<double> win(first, last);
    const double busy = std::accumulate(win.begin(), win.end(), 0.0);
    rate.push_back(seqs_per_op * static_cast<double>(win.size()) / busy);
    tail.push_back(Quantile(win, 0.75));
  }
  report->Metric("seqs_per_s", Median(rate), "1/s");
  report->Metric("op_p50_ms", Median(op_s) * 1e3, "ms");
  report->Metric("op_p75_ms", Median(tail) * 1e3, "ms");
}

void FinishEndToEnd(const std::vector<double>& setup_s, Report* report) {
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  report->Metric("ok_frac",
                 report->attempted == 0
                     ? 0.0
                     : 1.0 - static_cast<double>(report->failed) /
                                 static_cast<double>(report->attempted),
                 "ratio");
}

void ReportParallel(double op_1t_ms, double op_default_ms,
                    double single_thread_span_ms, Report* report) {
  const double threads =
      static_cast<double>(parallel::ThreadPool::Get().num_threads());
  report->Metric("parallel.speedup_vs_1t", op_1t_ms / op_default_ms, "ratio");
  report->Metric("train.parallel_efficiency",
                 single_thread_span_ms / (threads * op_default_ms), "ratio");
}

void ReportPlans(const PlanStats& p, Report* report) {
  report->Metric("ode.steps_per_seq", p.steps / p.seqs, "count");
  report->Metric("ode.active_row_frac", p.steps / p.wave_rows, "ratio");
}

// f32 tiers over every distinct series served in the run.
void CheckF32Tiers(const ServeState& st, Report* report) {
  std::vector<double> errs;
  for (double e : st.readout_err)
    if (e >= 0.0) errs.push_back(e);
  if (errs.empty()) return;
  const double med = Quantile(errs, 0.5);
  const double p90 = Quantile(errs, 0.9);
  report->Env("f32_rel_err_median", std::to_string(med));
  report->Env("f32_rel_err_p90", std::to_string(p90));
  report->Env("f32_rel_err_max", std::to_string(Quantile(errs, 1.0)));
  if (!(med <= kF32MedianTier && p90 <= kF32P90Tier)) report->global_ok = false;
}

// The f32 serving tier at B = 1 (diffode_f32.cc, LockstepIntegrateMixed):
// a Freeze(kF32) checkpoint serving single PhysioNet-like series with one
// query before the first observation. Every traced run measures it, with
// its own spans, under the "f32_b1." prefix. It is not a workload of its
// own because a single client thread on a shared host runs at whatever
// speed its current vCPU has (perfbench/README.md, "The f32 B=1 probe").
void F32B1Probe(const Args& args, Tracer* tracer, double budget_s,
                Report* report) {
  SetupTimes ignored;
  auto st = SetupServe(ServeShape::kPhysioNetF32B1, args, &ignored);
  WarmUpServe(st.get());
  BuildReferences(st.get(), args.perturb);
  Report probe;
  const ServeProbeResult sp = ServeProbe(st.get(), tracer, budget_s, &probe);
  ReportPlans(sp.plans, &probe);
  for (const char* name :
       {"data.batch_build_us", "core.engine_ms_per_seq", "ode.plan_build_us",
        "ode.steps_per_seq", "alloc.heap_allocs_per_req"})
    for (const auto& [n, m] : probe.metrics)
      if (n == name) report->metrics.push_back({"f32_b1." + n, m});
  report->attempted += probe.attempted;
  report->failed += probe.failed;
  CheckF32Tiers(*st, report);
}

void RunServe(const Args& args, Tracer* tracer, Tracer* f32_tracer,
              Report* report) {
  std::vector<double> setup_s, csv_ms, params_ms;
  const auto setup = [&] {
    SetupTimes times;
    auto st = SetupServe(ServeShape::kUshcnB32, args, &times);
    setup_s.push_back(times.total_s);
    csv_ms.push_back(times.load_csv_ms);
    params_ms.push_back(times.load_params_ms);
    return st;
  };
  const std::unique_ptr<ServeState> st = setup();
  if (tracer) {
    while (setup_s.size() < kSetups) (void)setup();
  }
  WarmUpServe(st.get());
  BuildReferences(st.get(), args.perturb);
  report->Env("precision", PrecisionName(st->spec.precision));
  report->Env("max_batch", std::to_string(st->spec.max_batch));
  report->Env("series", std::to_string(st->num_series()));

  if (!tracer) {
    std::vector<double> lat;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = Deadline(args.seconds);
    for (Index k = 0; lat.empty() || Clock::now() < end; k += st->pass_len()) {
      const std::vector<double> pass =
          ServeRequests(st.get(), k, st->pass_len(), report);
      lat.insert(lat.end(), pass.begin(), pass.end());
      if (SetupDue(start, args.seconds, setup_s.size())) (void)setup();
    }
    while (setup_s.size() < kSetups) (void)setup();
    ReportLatencies(lat, static_cast<double>(st->spec.max_batch), report);
    FinishEndToEnd(setup_s, report);
    return;
  }

  report->Metric("data.load_csv_ms", Median(csv_ms), "ms");
  report->Metric("nn.load_params_ms", Median(params_ms), "ms");
  const ServeProbeResult sp =
      ServeProbe(st.get(), tracer, 0.5 * args.seconds, report);
  ReportPlans(sp.plans, report);
  ReportParallel(sp.untraced_1t_ms, sp.untraced_default_ms,
                 sp.traced_1t_sum_ms, report);
  report->Metric("trace.overhead_frac", sp.trace_overhead, "ratio");
  // Training-path layers on this workload's data and checkpoint.
  const Index channels = st->config.input_dim;
  double ignored = 0.0;
  auto grad_model = CheckpointRoundTrip(st->config, args.workdir + "/probe.bin",
                                        &ignored);
  auto ts = MakeTrainState(st->series, channels, st->config,
                           std::move(grad_model), args.seed);
  (void)TrainProbe(ts.get(), tracer, 3, report);
  DhsProbe(ts.get(), 0.05 * args.seconds, report);
  KernelProbes(st->config, 0.05 * args.seconds, report);
  F32B1Probe(args, f32_tracer, 0.15 * args.seconds, report);
}

// A job passes when its losses are finite and reproduce the reference's
// first epochs bit for bit, and the reference's loss fell.
bool CheckJob(const TrainState& st, const train::FitResult& res) {
  const std::vector<Scalar>& l = res.train_losses;
  const std::vector<Scalar>& ref = st.ref_losses;
  if (l.size() != static_cast<std::size_t>(kEpochsPerJob) ||
      ref.size() != static_cast<std::size_t>(kReferenceEpochs))
    return false;
  for (Scalar x : l)
    if (!std::isfinite(x)) return false;
  return ref.back() < ref.front() &&
         std::memcmp(l.data(), ref.data(), l.size() * sizeof(Scalar)) == 0;
}

std::string HexBits(Scalar x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

void RunTrain(const Args& args, Tracer* tracer, Tracer* f32_tracer,
              Report* report) {
  std::vector<double> setup_s, csv_ms, params_ms;
  const auto setup = [&] {
    SetupTimes times;
    auto st = SetupTrain(args, &times);
    setup_s.push_back(times.total_s);
    csv_ms.push_back(times.load_csv_ms);
    params_ms.push_back(times.load_params_ms);
    return st;
  };
  const std::unique_ptr<TrainState> st = setup();
  if (tracer) {
    while (setup_s.size() < kSetups) (void)setup();
  }
  st->ref_losses = RunJob(st.get(), kReferenceEpochs).train_losses;
  report->Env("precision", "f64");
  report->Env("train_series", std::to_string(st->ds.train.size()));
  report->Env("epochs_per_job", std::to_string(kEpochsPerJob));
  report->Env("reference_epochs", std::to_string(kReferenceEpochs));
  report->Env("final_loss_bits", HexBits(st->ref_losses.back()));
  report->Env("final_loss", std::to_string(st->ref_losses.back()));
  if (st->ref_losses.empty() ||
      !(st->ref_losses.back() < st->ref_losses.front()))
    report->global_ok = false;
  if (args.perturb) {
    Scalar& last_checked = st->ref_losses[kEpochsPerJob - 1];
    last_checked = std::nextafter(last_checked, 1e300);
  }

  if (!tracer) {
    std::vector<double> epoch_s;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = Deadline(args.seconds);
    do {
      const Clock::time_point t0 = Clock::now();
      const train::FitResult res = RunJob(st.get());
      epoch_s.push_back(Seconds(t0, Clock::now()) / kEpochsPerJob);
      report->Count(CheckJob(*st, res));
      if (SetupDue(start, args.seconds, setup_s.size())) (void)setup();
    } while (Clock::now() < end);
    while (setup_s.size() < kSetups) (void)setup();
    ReportLatencies(
        epoch_s, static_cast<double>(st->ds.train.size() + st->ds.val.size()),
        report);
    FinishEndToEnd(setup_s, report);
    return;
  }

  report->Metric("data.load_csv_ms", Median(csv_ms), "ms");
  report->Metric("nn.load_params_ms", Median(params_ms), "ms");
  const TrainProbeResult tp = TrainProbe(st.get(), tracer, 3, report);
  ReportPlans(tp.plans, report);
  ReportParallel(tp.epoch_1t_ms, tp.epoch_default_ms, tp.traced_epoch_ms,
                 report);
  report->Metric("trace.overhead_frac",
                 tp.traced_epoch_ms / tp.untraced_epoch_ms - 1.0, "ratio");
  // Lockstep-engine layers on this workload: validation requests of one
  // minibatch each through a frozen copy of the checkpoint, checked against
  // the f64 engine at B = 1.
  double ignored = 0.0;
  ServeState serve;
  serve.spec = ServeSpec{Precision::kF64, st->options.batch_size, true};
  serve.config = st->config;
  serve.series = st->ds.val;
  serve.model = CheckpointRoundTrip(st->config, args.workdir + "/probe.bin",
                                    &ignored);
  serve.model->Freeze(Precision::kF64);
  DrawAllQueryTimes(&serve, args.seed);
  BuildReferences(&serve, /*perturb=*/false);
  (void)ServeProbe(&serve, tracer, 0.3 * args.seconds, report);
  DhsProbe(st.get(), 0.05 * args.seconds, report);
  KernelProbes(st->config, 0.05 * args.seconds, report);
  F32B1Probe(args, f32_tracer, 0.15 * args.seconds, report);
}

void PrintResult(const Args& args, const Report& report) {
  std::printf("# env {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"cpu_model\": \"%s\", \"hardware_concurrency\": %u, "
              "\"threads\": %d, \"isa\": \"%s\", \"build_type\": \"%s\"",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              JsonEscape(CpuModel()).c_str(),
              std::thread::hardware_concurrency(),
              parallel::ThreadPool::Get().num_threads(),
              simd::IsaName(simd::ActiveIsa()), PERFBENCH_BUILD_TYPE);
  for (const auto& [k, v] : report.env)
    std::printf(", \"%s\": \"%s\"", k.c_str(), JsonEscape(v).c_str());
  std::printf("}\n");
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.failed == 0 && report.global_ok ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, m] = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), m.first, m.second.c_str());
  }
  std::printf("}}\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--perturb-reference") {
      args->perturb = true;
    } else if (a == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args->seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      args->seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args->trace = std::string(argv[++i]) == "1";
    } else if (a == "--workdir" && has_value) {
      args->workdir = argv[++i];
    } else {
      return false;
    }
  }
  return args->workload == "train-ushcn" ||
         args->workload == "serve-ushcn-b32";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) || !(args.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <train-ushcn|serve-ushcn-b32> "
                 "--seed N --seconds S --trace <0|1> [--workdir DIR] "
                 "[--perturb-reference]\n");
    return 2;
  }
  Report report;
  Tracer tracer, f32_tracer;
  Tracer* t = args.trace ? &tracer : nullptr;
  if (args.workload == "train-ushcn") {
    RunTrain(args, t, &f32_tracer, &report);
  } else {
    RunServe(args, t, &f32_tracer, &report);
  }
  if (t != nullptr) {
    const std::string path = args.workdir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) Die("cannot write " + path);
    std::fprintf(f, "{\"traceEvents\": [\n");
    tracer.AppendEvents(f, 1, args.workload.c_str());
    std::fprintf(f, ",\n");
    f32_tracer.AppendEvents(f, 2, "f32_b1 probe");
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) Die("cannot write " + path);
  }
  PrintResult(args, report);
  return 0;
}

}  // namespace
}  // namespace diffode::perfbench

int main(int argc, char** argv) {
  return diffode::perfbench::Main(argc, argv);
}
