// Lockstep batched execution (core/batched_model.h) vs the per-sequence
// path: random irregular grids, B in {1, 3, 8}, both kernel backends, 1 and
// 4 threads. Batched results must match per-sequence within 1e-10 relative;
// at B = 1 every kernel call collapses to the per-sequence shape and the
// match must be bitwise.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "baselines/zoo.h"
#include "core/batch_predictor.h"
#include "core/batched_model.h"
#include "core/diffode_model.h"
#include "core/parallel.h"
#include "data/generators.h"
#include "data/sequence_batch.h"
#include "tensor/random.h"
#include "tensor/simd.h"

namespace diffode {
namespace {

struct IsaGuard {
  explicit IsaGuard(simd::Isa isa) : prev(simd::ActiveIsa()) {
    EXPECT_TRUE(simd::SetActiveIsa(isa));
  }
  ~IsaGuard() { simd::SetActiveIsa(prev); }
  simd::Isa prev;
};

struct ThreadCountGuard {
  explicit ThreadCountGuard(int n) { parallel::ThreadPool::SetNumThreads(n); }
  ~ThreadCountGuard() { parallel::ThreadPool::SetNumThreads(0); }
};

std::vector<simd::Isa> SupportedIsas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::IsaSupported(simd::Isa::kAvx2)) isas.push_back(simd::Isa::kAvx2);
  if (simd::IsaSupported(simd::Isa::kAvx512))
    isas.push_back(simd::Isa::kAvx512);
  return isas;
}

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.shape() == b.shape()) << what;
  for (Index i = 0; i < a.numel(); ++i) {
    const Scalar av = a[i], bv = b[i];
    std::uint64_t ia, ib;
    std::memcpy(&ia, &av, sizeof(ia));
    std::memcpy(&ib, &bv, sizeof(ib));
    EXPECT_EQ(ia, ib) << what << " i=" << i << " a=" << av << " b=" << bv;
  }
}

void ExpectClose(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.shape() == b.shape()) << what;
  for (Index i = 0; i < a.numel(); ++i) {
    const Scalar tol = 1e-10 * std::max(1.0, std::fabs(b[i]));
    EXPECT_NEAR(a[i], b[i], tol) << what << " i=" << i;
  }
}

// Random irregular series: random length, random gaps, partially observed
// channels (every row keeps at least one observed channel so the encoding
// stays informative, though nothing in the batched path requires that).
data::IrregularSeries MakeSeries(std::uint64_t seed, Index features = 2) {
  Rng rng(seed);
  data::IrregularSeries s;
  const Index n = 6 + static_cast<Index>(rng.Uniform(0.0, 6.0));
  s.values = Tensor(Shape{n, features});
  s.mask = Tensor(Shape{n, features});
  Scalar t = rng.Uniform(0.0, 0.3);
  for (Index i = 0; i < n; ++i) {
    t += rng.Uniform(0.1, 0.9);
    s.times.push_back(t);
    Index observed = 0;
    for (Index j = 0; j < features; ++j) {
      if (rng.Uniform(0.0, 1.0) < 0.75) {
        s.mask.at(i, j) = 1.0;
        ++observed;
      }
      s.values.at(i, j) =
          std::sin(t + static_cast<Scalar>(j)) + rng.Normal(0.0, 0.1);
    }
    if (observed == 0) s.mask.at(i, i % features) = 1.0;
  }
  s.label = static_cast<Index>(seed % 2);
  return s;
}

std::vector<data::IrregularSeries> MakeBatchSeries(Index b,
                                                   std::uint64_t seed0) {
  std::vector<data::IrregularSeries> out;
  out.reserve(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r)
    out.push_back(MakeSeries(seed0 + static_cast<std::uint64_t>(r)));
  return out;
}

// Query times per sequence: before the context window (backward chain),
// inside it, past its end, plus an unsorted duplicate.
std::vector<std::vector<Scalar>> MakeQueryTimes(
    const std::vector<data::IrregularSeries>& series) {
  std::vector<std::vector<Scalar>> times;
  times.reserve(series.size());
  for (const data::IrregularSeries& s : series) {
    const Scalar lo = s.times.front(), hi = s.times.back();
    times.push_back({hi + 0.7, lo - 0.4, 0.5 * (lo + hi), lo - 0.4});
  }
  return times;
}

core::DiffOdeConfig SmallConfig() {
  core::DiffOdeConfig config;
  config.input_dim = 2;
  config.latent_dim = 8;
  config.hippo_dim = 6;
  config.info_dim = 6;
  config.mlp_hidden = 12;
  config.num_classes = 3;
  config.step = 0.5;
  return config;
}

baselines::BaselineConfig SmallBaselineConfig() {
  baselines::BaselineConfig config;
  config.input_dim = 2;
  config.hidden_dim = 10;
  config.mlp_hidden = 12;
  config.num_classes = 3;
  config.step = 0.5;
  return config;
}

// Compares the batched forwards of `model` against its per-sequence path on
// a B-sequence batch. Bitwise at B = 1, 1e-10 relative otherwise.
void CheckModel(core::SequenceModel* model, Index b, std::uint64_t seed,
                bool expect_native) {
  const std::vector<data::IrregularSeries> series = MakeBatchSeries(b, seed);
  std::vector<const data::IrregularSeries*> ptrs;
  for (const auto& s : series) ptrs.push_back(&s);
  const data::SequenceBatch batch = data::MakeSequenceBatch(ptrs);
  const std::vector<std::vector<Scalar>> times = MakeQueryTimes(series);

  core::BatchedDispatch dispatch(model);
  EXPECT_EQ(dispatch.native(), expect_native);
  const Tensor logits = dispatch.ClassifyLogitsBatched(batch);
  const std::vector<std::vector<Tensor>> preds =
      dispatch.PredictAtBatched(batch, times);

  ag::NoGradScope no_grad;
  for (Index r = 0; r < b; ++r) {
    const data::IrregularSeries& s = series[static_cast<std::size_t>(r)];
    const Tensor ref_logits = model->ClassifyLogits(s).value();
    (void)model->TakeAuxiliaryLoss();
    if (b == 1) {
      ExpectBitwiseEqual(logits.Row(r), ref_logits, "logits");
    } else {
      ExpectClose(logits.Row(r), ref_logits, "logits");
    }
    const std::vector<ag::Var> ref_preds =
        model->PredictAt(s, times[static_cast<std::size_t>(r)]);
    (void)model->TakeAuxiliaryLoss();
    ASSERT_EQ(preds[static_cast<std::size_t>(r)].size(), ref_preds.size());
    for (std::size_t k = 0; k < ref_preds.size(); ++k) {
      if (b == 1) {
        ExpectBitwiseEqual(preds[static_cast<std::size_t>(r)][k],
                           ref_preds[k].value(), "pred");
      } else {
        ExpectClose(preds[static_cast<std::size_t>(r)][k],
                    ref_preds[k].value(), "pred");
      }
    }
  }
}

TEST(SequenceBatchTest, UnionGridAndPaddingInvariants) {
  const std::vector<data::IrregularSeries> series = MakeBatchSeries(5, 11);
  std::vector<const data::IrregularSeries*> ptrs;
  for (const auto& s : series) ptrs.push_back(&s);
  const data::SequenceBatch batch = data::MakeSequenceBatch(ptrs);
  ASSERT_EQ(batch.batch, 5);
  // Union grid is sorted-unique and covers every observation exactly once.
  for (Index u = 1; u < batch.union_size(); ++u)
    EXPECT_LT(batch.union_times[static_cast<std::size_t>(u - 1)],
              batch.union_times[static_cast<std::size_t>(u)]);
  for (Index r = 0; r < batch.batch; ++r) {
    const data::IrregularSeries& s = *ptrs[static_cast<std::size_t>(r)];
    Index seen = 0;
    for (Index u = 0; u < batch.union_size(); ++u) {
      if (!batch.IsMember(u, r)) {
        EXPECT_EQ(batch.ObsIndex(u, r), -1);
        continue;
      }
      const Index i = batch.ObsIndex(u, r);
      EXPECT_EQ(s.times[static_cast<std::size_t>(i)],
                batch.union_times[static_cast<std::size_t>(u)]);
      ++seen;
      // Padded row view holds the same numbers as the source series.
      for (Index j = 0; j < batch.features; ++j) {
        EXPECT_EQ(batch.values.at(r * batch.max_len + i, j), s.values.at(i, j));
        EXPECT_EQ(batch.mask.at(r * batch.max_len + i, j), s.mask.at(i, j));
      }
      EXPECT_EQ(batch.row_mask[static_cast<std::size_t>(r * batch.max_len + i)],
                1);
    }
    EXPECT_EQ(seen, s.length());
    for (Index i = s.length(); i < batch.max_len; ++i)
      EXPECT_EQ(batch.row_mask[static_cast<std::size_t>(r * batch.max_len + i)],
                0);
  }
}

TEST(BatchedEquivTest, DiffOdeMatchesPerSequence) {
  for (simd::Isa isa : SupportedIsas()) {
    IsaGuard ig(isa);
    for (int threads : {1, 4}) {
      ThreadCountGuard tg(threads);
      core::DiffOde model(SmallConfig());
      for (Index b : {1, 3, 8}) CheckModel(&model, b, 100 + b, true);
    }
  }
}

TEST(BatchedEquivTest, DiffOdeVariantsMatchPerSequence) {
  // Strategy / head / encoder / attention variants, one pass each at B = 3
  // (and B = 1 for the bitwise guarantee) on every backend.
  std::vector<core::DiffOdeConfig> configs;
  {
    core::DiffOdeConfig c = SmallConfig();
    c.pt_strategy = sparsity::PtStrategy::kMinNorm;
    configs.push_back(c);
  }
  {
    core::DiffOdeConfig c = SmallConfig();
    c.pt_strategy = sparsity::PtStrategy::kAdaH;
    configs.push_back(c);
  }
  {
    core::DiffOdeConfig c = SmallConfig();
    c.pt_strategy = sparsity::PtStrategy::kExactKkt;
    configs.push_back(c);
  }
  {
    core::DiffOdeConfig c = SmallConfig();
    c.head = core::OutputHead::kDirect;
    configs.push_back(c);
  }
  {
    core::DiffOdeConfig c = SmallConfig();
    c.use_attention = false;
    configs.push_back(c);
  }
  {
    core::DiffOdeConfig c = SmallConfig();
    c.encoder = core::EncoderType::kMlp;
    configs.push_back(c);
  }
  {
    core::DiffOdeConfig c = SmallConfig();
    c.num_heads = 2;
    configs.push_back(c);
  }
  {
    core::DiffOdeConfig c = SmallConfig();
    c.num_heads = 2;
    c.pt_strategy = sparsity::PtStrategy::kAdaH;
    configs.push_back(c);
  }
  for (simd::Isa isa : SupportedIsas()) {
    SCOPED_TRACE(simd::IsaName(isa));
    IsaGuard ig(isa);
    std::uint64_t seed = 300;
    for (const core::DiffOdeConfig& config : configs) {
      core::DiffOde model(config);
      CheckModel(&model, 1, seed += 17, true);
      CheckModel(&model, 3, seed += 17, true);
    }
    // The Euler and RK4 stage structures of the lockstep integrator: f64
    // under the same contract as above, and the f32 serving tier
    // (mixed-precision stage combines) finite, well-shaped and thread-count
    // invariant.
    for (ode::DiffMethod method :
         {ode::DiffMethod::kEuler, ode::DiffMethod::kRk4}) {
      SCOPED_TRACE(method == ode::DiffMethod::kEuler ? "euler" : "rk4");
      core::DiffOde model(SmallConfig());
      model.set_diff_method(method);
      CheckModel(&model, 1, seed += 17, true);
      CheckModel(&model, 3, seed += 17, true);

      core::DiffOde f32_model(SmallConfig());
      f32_model.set_diff_method(method);
      f32_model.Freeze(Precision::kF32);
      const std::vector<data::IrregularSeries> series =
          MakeBatchSeries(3, seed += 17);
      std::vector<const data::IrregularSeries*> ptrs;
      for (const auto& s : series) ptrs.push_back(&s);
      const data::SequenceBatch batch = data::MakeSequenceBatch(ptrs);
      Tensor logits[2];
      for (int i = 0; i < 2; ++i) {
        ThreadCountGuard threads(i == 0 ? 1 : 4);
        logits[i] = f32_model.ClassifyLogitsBatched(batch);
      }
      ASSERT_EQ(logits[0].rows(), 3);
      ASSERT_EQ(logits[0].cols(), SmallConfig().num_classes);
      EXPECT_TRUE(logits[0].AllFinite());
      ExpectBitwiseEqual(logits[0], logits[1], "f32 logits, 1 vs 4 threads");
    }
  }
}

TEST(BatchedEquivTest, OdeRnnMatchesPerSequence) {
  for (simd::Isa isa : SupportedIsas()) {
    IsaGuard ig(isa);
    for (int threads : {1, 4}) {
      ThreadCountGuard tg(threads);
      auto model = baselines::MakeBaseline("ODE-RNN", SmallBaselineConfig());
      for (Index b : {1, 3, 8}) CheckModel(model.get(), b, 500 + b, true);
    }
  }
}

TEST(BatchedEquivTest, GruDMatchesPerSequence) {
  for (simd::Isa isa : SupportedIsas()) {
    IsaGuard ig(isa);
    for (int threads : {1, 4}) {
      ThreadCountGuard tg(threads);
      auto model = baselines::MakeBaseline("GRU-D", SmallBaselineConfig());
      for (Index b : {1, 3, 8}) CheckModel(model.get(), b, 700 + b, true);
    }
  }
}

TEST(BatchedEquivTest, FallbackLoopServesNonLockstepModels) {
  // Plain GRU has no native lockstep engine; BatchedDispatch must serve it
  // through the per-sequence loop with identical (bitwise) results.
  auto model = baselines::MakeBaseline("GRU", SmallBaselineConfig());
  for (Index b : {1, 3}) {
    const std::vector<data::IrregularSeries> series = MakeBatchSeries(b, 900);
    std::vector<const data::IrregularSeries*> ptrs;
    for (const auto& s : series) ptrs.push_back(&s);
    const data::SequenceBatch batch = data::MakeSequenceBatch(ptrs);
    core::BatchedDispatch dispatch(model.get());
    EXPECT_FALSE(dispatch.native());
    const Tensor logits = dispatch.ClassifyLogitsBatched(batch);
    ag::NoGradScope no_grad;
    for (Index r = 0; r < b; ++r)
      ExpectBitwiseEqual(
          logits.Row(r),
          model->ClassifyLogits(*ptrs[static_cast<std::size_t>(r)]).value(),
          "fallback logits");
  }
}

TEST(BatchPredictorTest, MicroBatchesMixedRequests) {
  core::DiffOde model(SmallConfig());
  const std::vector<data::IrregularSeries> series = MakeBatchSeries(6, 40);
  core::BatchPredictor predictor(&model, /*max_batch=*/4);
  EXPECT_TRUE(predictor.native());
  std::vector<Index> cls_ids, reg_ids;
  std::vector<std::vector<Scalar>> reg_times;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i % 2 == 0) {
      cls_ids.push_back(predictor.Enqueue(series[i]));
    } else {
      std::vector<Scalar> times = {series[i].times.back() + 0.5,
                                   series[i].times.front() - 0.25};
      reg_ids.push_back(predictor.Enqueue(series[i], times));
      reg_times.push_back(std::move(times));
    }
  }
  predictor.Flush();
  EXPECT_EQ(predictor.pending(), 0);
  ag::NoGradScope no_grad;
  for (std::size_t i = 0; i < cls_ids.size(); ++i) {
    const Tensor ref = model.ClassifyLogits(series[2 * i]).value();
    ExpectClose(predictor.result(cls_ids[i]).logits, ref, "served logits");
  }
  for (std::size_t i = 0; i < reg_ids.size(); ++i) {
    const std::vector<ag::Var> ref =
        model.PredictAt(series[2 * i + 1], reg_times[i]);
    const auto& got = predictor.result(reg_ids[i]).predictions;
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k)
      ExpectClose(got[k], ref[k].value(), "served prediction");
  }
}

// One request of a serving round: classification when `times` is empty.
struct Request {
  const data::IrregularSeries* series;
  std::vector<Scalar> times;
};

// Serves a whole round through one BatchPredictor whose max_batch is the
// round size, so the last Enqueue auto-flushes every request at once.
std::vector<core::BatchPredictor::Result> ServeRound(
    core::SequenceModel* model, const std::vector<Request>& round) {
  core::BatchPredictor predictor(model, static_cast<Index>(round.size()));
  std::vector<Index> ids;
  for (const Request& q : round)
    ids.push_back(predictor.Enqueue(*q.series, q.times));
  EXPECT_EQ(predictor.pending(), 0);
  std::vector<core::BatchPredictor::Result> out;
  for (Index id : ids) out.push_back(predictor.result(id));
  return out;
}

// The split BatchPredictor must make: each kind's requests in enqueue
// order, served by serial BatchedDispatch calls over rows [0,8), [8,16),
// ... of that kind.
std::vector<core::BatchPredictor::Result> ServeInSerialChunks(
    core::SequenceModel* model, const std::vector<Request>& round) {
  constexpr std::size_t kRows = 8;
  core::BatchedDispatch dispatch(model);
  std::vector<core::BatchPredictor::Result> out(round.size());
  for (const bool classify : {true, false}) {
    std::vector<std::size_t> kind;
    for (std::size_t i = 0; i < round.size(); ++i)
      if (round[i].times.empty() == classify) kind.push_back(i);
    for (std::size_t c = 0; c < kind.size(); c += kRows) {
      const std::size_t n = std::min(kRows, kind.size() - c);
      std::vector<const data::IrregularSeries*> ptrs;
      std::vector<std::vector<Scalar>> times;
      for (std::size_t k = 0; k < n; ++k) {
        ptrs.push_back(round[kind[c + k]].series);
        times.push_back(round[kind[c + k]].times);
      }
      const data::SequenceBatch batch = data::MakeSequenceBatch(ptrs);
      if (classify) {
        const Tensor logits = dispatch.ClassifyLogitsBatched(batch);
        for (std::size_t k = 0; k < n; ++k)
          out[kind[c + k]].logits = logits.Row(static_cast<Index>(k));
      } else {
        std::vector<std::vector<Tensor>> preds =
            dispatch.PredictAtBatched(batch, times);
        for (std::size_t k = 0; k < n; ++k)
          out[kind[c + k]].predictions = std::move(preds[k]);
      }
    }
  }
  return out;
}

void ExpectSameResults(const std::vector<core::BatchPredictor::Result>& a,
                       const std::vector<core::BatchPredictor::Result>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Only classification results carry logits (a default Tensor has no
    // storage to compare).
    if (a[i].predictions.empty())
      ExpectBitwiseEqual(a[i].logits, b[i].logits, what);
    ASSERT_EQ(a[i].predictions.size(), b[i].predictions.size()) << what;
    for (std::size_t k = 0; k < a[i].predictions.size(); ++k)
      ExpectBitwiseEqual(a[i].predictions[k], b[i].predictions[k], what);
  }
}

TEST(BatchPredictorTest, MicroBatchesAreThreadCountInvariant) {
  // 20 requests in one flush, 3 of them regression requests: the 17
  // classification requests split into two full micro-batches and a
  // one-row tail, the 3 regression requests form one ragged micro-batch,
  // and all four run as pool tasks.
  const std::vector<data::IrregularSeries> series = MakeBatchSeries(20, 70);
  const std::vector<std::vector<Scalar>> query_times = MakeQueryTimes(series);
  std::vector<Request> round;
  for (std::size_t i = 0; i < series.size(); ++i)
    round.push_back(Request{&series[i], i % 7 == 3
                                            ? query_times[i]
                                            : std::vector<Scalar>{}});

  core::DiffOde f64_model(SmallConfig());
  core::DiffOde f32_model(SmallConfig());
  f32_model.Freeze(Precision::kF32);
  auto fallback = baselines::MakeBaseline("GRU", SmallBaselineConfig());
  struct Case {
    core::SequenceModel* model;
    bool f64;
    const char* name;
  };
  for (const Case& c : {Case{&f64_model, true, "DIFFODE f64"},
                        Case{&f32_model, false, "DIFFODE f32"},
                        Case{fallback.get(), true, "GRU fallback"}}) {
    SCOPED_TRACE(c.name);
    std::vector<core::BatchPredictor::Result> one_thread, four_threads;
    {
      ThreadCountGuard threads(1);
      one_thread = ServeRound(c.model, round);
    }
    {
      ThreadCountGuard threads(4);
      four_threads = ServeRound(c.model, round);
    }
    ExpectSameResults(one_thread, four_threads, "1 vs 4 threads");
    ExpectSameResults(four_threads, ServeInSerialChunks(c.model, round),
                      "pool tasks vs serial micro-batches");
    if (!c.f64) continue;
    ag::NoGradScope no_grad;
    for (std::size_t i = 0; i < round.size(); ++i) {
      const core::BatchPredictor::Result& got = four_threads[i];
      if (round[i].times.empty()) {
        ExpectClose(got.logits, c.model->ClassifyLogits(series[i]).value(),
                    "served logits");
      } else {
        const std::vector<ag::Var> ref =
            c.model->PredictAt(series[i], round[i].times);
        ASSERT_EQ(got.predictions.size(), ref.size());
        for (std::size_t k = 0; k < ref.size(); ++k)
          ExpectClose(got.predictions[k], ref[k].value(), "served prediction");
      }
      (void)c.model->TakeAuxiliaryLoss();
    }
  }
}

}  // namespace
}  // namespace diffode
