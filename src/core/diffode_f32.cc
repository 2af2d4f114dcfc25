// The f32 serving engine behind Freeze(Precision::kF32): float mirrors of
// the lockstep batched forwards in diffode_batched.cc.
//
// Precision contract. The step TIMELINES are exactly the f64 engine's —
// BuildBatchPlans and the per-row stage times stay f64 — and the DHS
// factorization (the ridge Gram inverse behind (Zᵀ)†, the projector sums)
// is still built in f64 by DiffOde::BuildContexts, from the f32-encoded
// latents widened once. Everything per STEP — encoder GEMMs, the
// p/z recoveries, phi / f_r / w_r / f_out, the RK stage combines — runs in
// float through the same kernel entry points (8 AVX2 lanes instead of 4).
// Each float statement below mirrors one statement of the f64 engine, so
// the two paths differ only by rounding, never by algorithm; the zoo-level
// agreement bound lives in tests/precision_test.cc.
#include "core/diffode_f32.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/batch_plans.h"
#include "core/diffode_model.h"
#include "data/encoding.h"
#include "nn/frozen.h"
#include "ode/lockstep.h"
#include "tensor/kernels.h"

namespace diffode::core {
namespace {

// Must match the kSpan of diffode_model.cc.
constexpr Scalar kSpan = 10.0;

// Allocation-free float recoveries: the same math as diffode_batched.cc's
// RecoverPRow / RecoverZRow / DerivativeRow, fused into raw loops over
// caller-provided scratch. Per RK stage the tensor-temporary formulation
// pays ~8 pool round-trips per (row, head); at f32 serving rates that
// bookkeeping, not the arithmetic, dominates, so the f32 tier writes
// p / z / dstate straight into flat buffers instead.

// p = s_h (Zᵀ)† (+ strategy correction), written into p_out[n].
void RecoverPRow32(const DhsContextF32& ctx, const float* s_h, Index dh,
                   sparsity::PtStrategy strategy, float* p_out) {
  const Index n = ctx.zt_pinv.rows();
  // p (1 x n) = s_h (1 x dh) · pinvᵀ, pinv stored n x dh row-major.
  kernels::GemmNT(1, dh, n, s_h, ctx.zt_pinv.data(), p_out);
  switch (strategy) {
    case sparsity::PtStrategy::kMinNorm:
      return;
    case sparsity::PtStrategy::kAdaH:
      DIFFODE_CHECK_GT(ctx.ada_corr.numel(), 0);
      kernels::Axpy(n, 1.0f, ctx.ada_corr.data(), p_out);
      return;
    case sparsity::PtStrategy::kExactKkt:
      [[fallthrough]];
    case sparsity::PtStrategy::kMaxHoyer: {
      const float total = ctx.ap_total;
      // Same degenerate-projector guard as the f64 recovery (1e-10 is far
      // below f32 resolution of a well-conditioned total, so both paths
      // take the same branch on real contexts).
      if (std::fabs(total) < 1e-10f) return;
      const float coeff = (kernels::Sum(n, p_out) - 1.0f) * (1.0f / total);
      kernels::Axpy(n, -coeff, ctx.ap_rowsum.data(), p_out);
      return;
    }
  }
  DIFFODE_CHECK(false);
}

// z_h = sqrt(d) * (c p - 1) (Zᵀ)† with c = <p,h2>/<p,p>, written into
// z_out[dh]. Expanded as c*sqrt(d)*(p · pinv) - sqrt(d)*colsum(pinv), with
// the column sums precomputed (in f64) by CastContext — one GEMM, no
// scratch vector, no trailing Scale.
void RecoverZRow32(const DhsContextF32& ctx, const float* p, const float* h2,
                   Index dh, float* z_out) {
  const Index n = ctx.zt_pinv.rows();
  const float pp = kernels::Dot(n, p, p);
  const float ph = kernels::Dot(n, p, h2);
  const float sq = std::sqrt(static_cast<float>(ctx.d));
  const float c = ph / pp * sq;
  kernels::Gemm(1, n, dh, p, ctx.zt_pinv.data(), z_out);
  const float* cs = ctx.pinv_colsum.data();
  for (Index j = 0; j < dh; ++j) z_out[j] = c * z_out[j] - sq * cs[j];
}

// ds = scale * ((u ⊙ p) Z - <u,p> p Z) with u = Z w_h, written into
// ds_out[dh]; scratch must hold 3*n + 2*dh floats (u ‖ [u⊙p ; p] ‖ C2).
// The two (1 x n)·(n x dh) products share Z, so they run as ONE m=2 GEMM:
// same arithmetic per output, half the kernel dispatches, and the panel
// reuses each Z row for both output rows while it is hot.
void DerivativeRow32(const DhsContextF32& ctx, const float* w_h,
                     const float* p, Index dh, float* scratch,
                     float* ds_out) {
  const Index n = ctx.z.rows();
  const float* z = ctx.z.data();  // n x dh, row-major
  float* u = scratch;
  float* a2 = scratch + n;      // [u ⊙ p ; p], 2 x n
  float* c2 = a2 + 2 * n;       // [term1 ; term2], 2 x dh
  kernels::GemmNT(1, dh, n, w_h, z, u);  // u (1 x n) = w_h · Zᵀ
  const float up = kernels::Dot(n, u, p);
  for (Index k = 0; k < n; ++k) a2[k] = u[k] * p[k];
  std::copy_n(p, n, a2 + n);
  kernels::Gemm(2, n, dh, a2, z, c2);
  const float scale = 1.0f / std::sqrt(static_cast<float>(ctx.d));
  for (Index j = 0; j < dh; ++j)
    ds_out[j] = scale * (c2[j] - up * c2[dh + j]);
}

DhsContextF32 CastContext(const DhsContext& ctx) {
  DhsContextF32 out;
  out.zt_pinv = ctx.zt_pinv.value().Cast<float>();
  {
    // Column sums of (Zᵀ)†, accumulated in f64 before the single rounding:
    // RecoverZRow32 subtracts them instead of materialising the (cp - 1)
    // vector, saving a scratch pass and a Scale per (row, head, stage).
    const Tensor& pinv = ctx.zt_pinv.value();
    const Index n = pinv.rows(), dh = pinv.cols();
    out.pinv_colsum = Tensor32::Uninit(Shape{1, dh});
    for (Index j = 0; j < dh; ++j) {
      Scalar acc = 0.0;
      for (Index k = 0; k < n; ++k) acc += pinv.at(k, j);
      out.pinv_colsum.data()[j] = static_cast<float>(acc);
    }
  }
  out.ap_rowsum = ctx.ap_rowsum.value().Cast<float>();
  if (ctx.ada_corr.defined())
    out.ada_corr = ctx.ada_corr.value().Cast<float>();
  out.z = ctx.z.value().Cast<float>();
  out.ap_total = static_cast<float>(ctx.ap_total.value().item());
  out.d = ctx.d;
  return out;
}

}  // namespace

// The frozen f32 parameter snapshot. Built by DiffOde::OnFrozen AFTER
// Module::Freeze has rounded every parameter through float, so each Cast
// here is exact and a save → load → Freeze(kF32) round-trip rebuilds the
// snapshot bit-identically (tests/serialize_roundtrip_test.cc).
struct ServingF32 {
  bool has_gru = false;
  nn::FrozenGru<float> gru;
  nn::FrozenMlp<float> mlp_encoder;
  nn::FrozenMlp<float> phi;
  nn::FrozenMlp<float> f_r;
  nn::FrozenLinear<float> w_r;
  nn::FrozenMlp<float> f_out_cls;
  nn::FrozenMlp<float> f_out_reg;
  Tensor32 hippo_a_t;  // dc x dc (Aᵀ; constants, cast directly)
  Tensor32 hippo_b_t;  // 1 x dc (Bᵀ)
};

std::shared_ptr<ServingF32> DiffOdeF32Engine::Snapshot(const DiffOde& model) {
  auto snap = std::make_shared<ServingF32>();
  if (model.gru_encoder_) {
    snap->has_gru = true;
    snap->gru = nn::FrozenGru<float>::FromModule(*model.gru_encoder_);
  } else {
    snap->mlp_encoder = nn::FrozenMlp<float>::FromModule(*model.mlp_encoder_);
  }
  snap->phi = nn::FrozenMlp<float>::FromModule(*model.phi_);
  snap->f_r = nn::FrozenMlp<float>::FromModule(*model.f_r_);
  snap->w_r = nn::FrozenLinear<float>::FromModule(*model.w_r_);
  snap->f_out_cls = nn::FrozenMlp<float>::FromModule(*model.f_out_cls_);
  snap->f_out_reg = nn::FrozenMlp<float>::FromModule(*model.f_out_reg_);
  snap->hippo_a_t = model.hippo_a_t_.Cast<float>();
  snap->hippo_b_t = model.hippo_b_t_.Cast<float>();
  return snap;
}

void DiffOde::OnFrozen(Precision precision) {
  serving_f32_ = precision == Precision::kF32
                     ? DiffOdeF32Engine::Snapshot(*this)
                     : nullptr;
}

std::vector<EncodedF32> DiffOdeF32Engine::EncodeBatched(
    const DiffOde& model, const data::SequenceBatch& batch) {
  const ServingF32& snap = *model.serving_f32_;
  const DiffOdeConfig& config = model.config_;
  const Index b = batch.batch;
  const Index f = config.input_dim;
  const Index d = config.latent_dim;
  DIFFODE_CHECK_EQ(batch.features, f);
  // Encoder inputs are built by the shared f64 featurizer and rounded to
  // float once per row — the encoder GEMMs themselves run in f32.
  std::vector<data::EncoderInputs> inputs;
  std::vector<Tensor32> in32(static_cast<std::size_t>(b));
  inputs.reserve(static_cast<std::size_t>(b));
  Index max_n = 0;
  for (Index r = 0; r < b; ++r) {
    const data::IrregularSeries& s = *batch.series[static_cast<std::size_t>(r)];
    DIFFODE_CHECK_GE(s.length(), 2);
    inputs.push_back(data::BuildEncoderInputs(s, kSpan));
    in32[static_cast<std::size_t>(r)] =
        inputs.back().inputs.Cast<float>();
    max_n = std::max(max_n, s.length());
  }
  std::vector<Tensor32> z_rows(static_cast<std::size_t>(b));
  if (snap.has_gru) {
    // Same observation-indexed waves as the f64 engine: gather active rows,
    // one batched FrozenGru step at GEMM shape m = E, scatter back.
    for (Index r = 0; r < b; ++r)
      z_rows[static_cast<std::size_t>(r)] = Tensor32::Uninit(
          Shape{batch.lengths[static_cast<std::size_t>(r)], d});
    const Index enc_in = in32.front().cols();
    Tensor32 h_all(Shape{b, d});
    std::vector<Index> active;
    for (Index i = 0; i < max_n; ++i) {
      active.clear();
      for (Index r = 0; r < b; ++r)
        if (i < batch.lengths[static_cast<std::size_t>(r)]) active.push_back(r);
      const Index e = static_cast<Index>(active.size());
      Tensor32 x_step = Tensor32::Uninit(Shape{e, enc_in});
      for (Index j = 0; j < e; ++j)
        std::copy_n(
            in32[static_cast<std::size_t>(active[static_cast<std::size_t>(j)])]
                    .data() +
                i * enc_in,
            enc_in, x_step.data() + j * enc_in);
      Tensor32 h_step = Tensor32::Uninit(Shape{e, d});
      kernels::SelectRows(e, d, active.data(), h_all.data(), h_step.data());
      Tensor32 h_new = snap.gru.Forward(x_step, h_step);
      kernels::ScatterRows(e, d, active.data(), h_new.data(), h_all.data());
      for (Index j = 0; j < e; ++j)
        std::copy_n(
            h_new.data() + j * d, d,
            z_rows[static_cast<std::size_t>(active[static_cast<std::size_t>(j)])]
                    .data() +
                i * d);
    }
  } else {
    for (Index r = 0; r < b; ++r)
      z_rows[static_cast<std::size_t>(r)] =
          snap.mlp_encoder.Forward(in32[static_cast<std::size_t>(r)]);
  }
  // Context factorization: widen the f32 latents once and reuse the f64
  // BuildContexts (pseudoinverse, h2/adaH heads) verbatim, then cast the
  // per-step tensors down. The inversion is the numerically delicate part
  // of DHS; keeping it f64 costs one factorization per sequence, not per
  // step, and is what keeps the f32 logits inside the 1e-4 agreement band.
  std::vector<EncodedF32> encs(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r) {
    EncodedF32& out = encs[static_cast<std::size_t>(r)];
    data::EncoderInputs& in = inputs[static_cast<std::size_t>(r)];
    DiffOde::Encoded enc;
    enc.t_scale = in.t_scale;
    enc.t_offset = in.t_offset;
    enc.norm_times = std::move(in.norm_times);
    enc.z = ag::Constant(
        z_rows[static_cast<std::size_t>(r)].Cast<double>());  // dtype:ok
    model.BuildContexts(&enc);
    out.heads.reserve(enc.heads.size());
    for (const DhsContext& ctx : enc.heads)
      out.heads.push_back(CastContext(ctx));
    if (enc.h2.defined()) out.h2 = enc.h2.value().Cast<float>();
    out.z_mean = enc.z_mean.value().Cast<float>();
    out.y0 = model.InitialState(enc).value().Cast<float>();
    out.norm_times = std::move(enc.norm_times);
    out.t_scale = enc.t_scale;
    out.t_offset = enc.t_offset;
  }
  return encs;
}

std::vector<std::vector<Tensor32>> DiffOdeF32Engine::BatchedStatesAt(
    const DiffOde& model, const std::vector<EncodedF32>& encs,
    const std::vector<std::vector<Scalar>>& norm_queries) {
  const ServingF32& snap = *model.serving_f32_;
  const DiffOdeConfig& config = model.config_;
  const Index b = static_cast<Index>(encs.size());
  const Index sd = model.StateDim();
  const Index d = config.latent_dim;
  const Index dc = config.hippo_dim;
  const Index dr = config.info_dim;
  const Index heads = config.num_heads;
  const Index dh = d / heads;
  const bool attn = config.use_attention;
  const bool direct = config.head == OutputHead::kDirect;
  const bool anchored = attn && config.consistency_weight > 0.0;

  // Identical timelines to the f64 engine: same builder, same f64 grids.
  std::vector<const std::vector<Scalar>*> anchors(static_cast<std::size_t>(b),
                                                  nullptr);
  if (anchored)
    for (Index r = 0; r < b; ++r)
      anchors[static_cast<std::size_t>(r)] =
          &encs[static_cast<std::size_t>(r)].norm_times;
  BatchPlans bp = BuildBatchPlans(norm_queries, anchors, config.step);
  const std::vector<ode::RowPlan>& plans = bp.plans;
  const std::vector<Index>& orig_of_row = bp.orig_of_row;
  const std::vector<std::vector<Scalar>>& slots = bp.slots;
  const std::vector<Index>& back_row = bp.back_row;
  std::vector<const EncodedF32*> row_enc;
  row_enc.reserve(orig_of_row.size());
  for (Index orig : orig_of_row)
    row_enc.push_back(&encs[static_cast<std::size_t>(orig)]);

  // The carried state is f64 even in the f32 tier: the integrator's
  // accumulate (y += h*sum b_i k_i) is a rounding injection point that the
  // DHS pseudo-inverse amplifies every step, and keeping it wide is nearly
  // free — the per-stage cost is two dense casts, dwarfed by the RHS GEMMs
  // that stay f32. Only the RHS evaluation drops to float.
  const Index rows_total = static_cast<Index>(plans.size());
  Tensor y = Tensor::Uninit(Shape{rows_total, sd});
  for (Index r = 0; r < b; ++r) {
    const Tensor32& y0 = encs[static_cast<std::size_t>(r)].y0;
    std::copy_n(y0.data(), sd, y.data() + r * sd);
    const Index br = back_row[static_cast<std::size_t>(r)];
    if (br >= 0) std::copy_n(y0.data(), sd, y.data() + br * sd);
  }

  // Longest context length across the batch: the stride of the flat
  // per-(row, head) p buffer the two recovery passes share.
  Index max_n = 0;
  for (const EncodedF32& e : encs)
    if (!e.heads.empty())
      max_n = std::max(max_n, e.heads.front().zt_pinv.rows());
  max_n = std::max<Index>(max_n, 1);
  // Scratch reused across RK stages: the flat per-(row, head) attention
  // buffer, the derivative scratch, and the cached stage inputs
  // (reallocated only when the active-row count drops).
  std::vector<float> p_buf;
  std::vector<float> scratch(static_cast<std::size_t>(3 * max_n + 2 * dh));
  Tensor32 xphi_cache, c_mat_cache, r_mat_cache, xfr_cache;
  Index cached_a = -1;  // active-row count the caches are shaped for

  // Float mirror of the f64 batched RHS (see diffode_batched.cc for the
  // per-statement rationale); stage times arrive as f64 and round to float
  // only where they enter the state arithmetic (phi's time feature).
  const ode::BatchedRhsT<float> rhs =
      [&](const std::vector<Index>& rows, const std::vector<Scalar>& tt,
          const Tensor32& ya) -> Tensor32 {
    const Index a = static_cast<Index>(rows.size());
    if (cached_a != a) {
      cached_a = a;
      if (attn)
        xphi_cache = Tensor32::Uninit(Shape{a, d + 1});
      else
        xfr_cache = Tensor32::Uninit(Shape{a, d + dc + dr});
      if (!attn || !direct) {
        c_mat_cache = Tensor32::Uninit(Shape{a, dc});
        r_mat_cache = Tensor32::Uninit(Shape{a, dr});
      }
    }
    Tensor32 k_out = Tensor32::Uninit(Shape{a, sd});
    const auto hippo_tail = [&](Index s_width, const Tensor32& u_r) {
      Tensor32& c_mat = c_mat_cache;
      Tensor32& r_mat = r_mat_cache;
      for (Index i = 0; i < a; ++i) {
        std::copy_n(ya.data() + i * sd + s_width, dc, c_mat.data() + i * dc);
        std::copy_n(ya.data() + i * sd + s_width + dc, dr,
                    r_mat.data() + i * dr);
      }
      Tensor32 dcm = c_mat.MatMul(snap.hippo_a_t);  // a x dc
      Tensor32 wr = snap.w_r.Forward(r_mat);        // a x 1
      const float* bt = snap.hippo_b_t.data();
      for (Index i = 0; i < a; ++i) {
        float* krow = k_out.data() + i * sd + s_width;
        const float* dcrow = dcm.data() + i * dc;
        const float wri = wr.data()[i];
        for (Index j = 0; j < dc; ++j) krow[j] = dcrow[j] + bt[j] * wri;
        std::copy_n(u_r.data() + i * dr, dr, krow + dc);
      }
    };
    if (!attn) {
      Tensor32& xfr = xfr_cache;
      for (Index i = 0; i < a; ++i) {
        const EncodedF32& enc = *row_enc[static_cast<std::size_t>(
            rows[static_cast<std::size_t>(i)])];
        std::copy_n(enc.z_mean.data(), d, xfr.data() + i * (d + dc + dr));
        std::copy_n(ya.data() + i * sd, dc + dr,
                    xfr.data() + i * (d + dc + dr) + d);
      }
      const Tensor32 u_r = snap.f_r.Forward(xfr);
      hippo_tail(0, u_r);
      return k_out;
    }
    // Flat p buffer, stride max_n per (row, head): recovered in the first
    // pass, consumed by the derivative pass after phi. No per-row tensors.
    p_buf.resize(static_cast<std::size_t>(a * heads * max_n));
    Tensor32& xphi = xphi_cache;
    for (Index i = 0; i < a; ++i) {
      const EncodedF32& enc = *row_enc[static_cast<std::size_t>(
          rows[static_cast<std::size_t>(i)])];
      const float* yrow = ya.data() + i * sd;
      const float* h2 = enc.h2.data();
      for (Index hh = 0; hh < heads; ++hh) {
        const DhsContextF32& ctx = enc.heads[static_cast<std::size_t>(hh)];
        float* p = p_buf.data() + (i * heads + hh) * max_n;
        RecoverPRow32(ctx, yrow + hh * dh, dh, config.pt_strategy, p);
        RecoverZRow32(ctx, p, h2, dh, xphi.data() + i * (d + 1) + hh * dh);
      }
      xphi.data()[i * (d + 1) + d] =
          static_cast<float>(tt[static_cast<std::size_t>(i)]);
    }
    Tensor32 w = snap.phi.Forward(xphi);
    kernels::MapTanh(w.numel(), w.data(), w.data());
    for (Index i = 0; i < a; ++i) {
      const EncodedF32& enc = *row_enc[static_cast<std::size_t>(
          rows[static_cast<std::size_t>(i)])];
      for (Index hh = 0; hh < heads; ++hh)
        DerivativeRow32(enc.heads[static_cast<std::size_t>(hh)],
                        w.data() + i * d + hh * dh,
                        p_buf.data() + (i * heads + hh) * max_n, dh,
                        scratch.data(), k_out.data() + i * sd + hh * dh);
    }
    if (!direct) {
      const Tensor32 u_r = snap.f_r.Forward(ya);
      hippo_tail(d, u_r);
    }
    return k_out;
  };

  std::vector<std::vector<Tensor32>> slot_states(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r)
    slot_states[static_cast<std::size_t>(r)].resize(
        slots[static_cast<std::size_t>(r)].size());
  const ode::LockstepEventFnT<double> on_event =
      [&](const std::vector<ode::LockstepEvent>& events, Tensor* yp) {
        for (const ode::LockstepEvent& e : events)
          slot_states[static_cast<std::size_t>(
              orig_of_row[static_cast<std::size_t>(e.row)])]
                     [static_cast<std::size_t>(e.tag)] =
              yp->Row(e.row).Cast<float>();
      };
  ode::LockstepIntegrateMixed(plans, model.diff_method_, rhs, on_event, &y);

  std::vector<std::vector<Tensor32>> out(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r) {
    const std::vector<Scalar>& sl = slots[static_cast<std::size_t>(r)];
    auto& dst = out[static_cast<std::size_t>(r)];
    dst.reserve(norm_queries[static_cast<std::size_t>(r)].size());
    for (Scalar t : norm_queries[static_cast<std::size_t>(r)]) {
      const auto it = std::lower_bound(sl.begin(), sl.end(), t);
      dst.push_back(slot_states[static_cast<std::size_t>(r)]
                               [static_cast<std::size_t>(it - sl.begin())]);
    }
  }
  return out;
}

Tensor DiffOdeF32Engine::ClassifyLogitsBatched(
    const DiffOde& model, const data::SequenceBatch& batch) {
  ag::NoGradScope no_grad;
  const ServingF32& snap = *model.serving_f32_;
  const DiffOdeConfig& config = model.config_;
  std::vector<EncodedF32> encs = EncodeBatched(model, batch);
  const Index b = batch.batch;
  std::vector<std::vector<Scalar>> queries(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r)
    queries[static_cast<std::size_t>(r)] =
        encs[static_cast<std::size_t>(r)].norm_times;
  const std::vector<std::vector<Tensor32>> states =
      BatchedStatesAt(model, encs, queries);
  const Index ro = model.ReadoutDim();
  const Index sd = model.StateDim();
  const Index d = config.latent_dim;
  const Index dc = config.hippo_dim;
  const Index dr = config.info_dim;
  const bool attn = config.use_attention;
  const bool direct = config.head == OutputHead::kDirect;
  Tensor32 x = Tensor32::Uninit(Shape{b, 2 * ro});
  std::vector<float> acc(static_cast<std::size_t>(ro));
  std::vector<float> ri(static_cast<std::size_t>(ro));
  for (Index r = 0; r < b; ++r) {
    const EncodedF32& enc = encs[static_cast<std::size_t>(r)];
    const std::vector<Tensor32>& st = states[static_cast<std::size_t>(r)];
    const float* zm = attn ? nullptr : enc.z_mean.data();
    const auto read_into = [&](const Tensor32& state, float* dst) {
      const float* sv = state.data();
      if (!attn) {
        std::copy_n(zm, d, dst);
        std::copy_n(sv + dc, dr, dst + d);
      } else if (direct) {
        std::copy_n(sv, sd, dst);
      } else {
        std::copy_n(sv, d, dst);
        std::copy_n(sv + d + dc, dr, dst + d);
      }
    };
    read_into(st[0], acc.data());
    for (std::size_t i = 1; i < st.size(); ++i) {
      read_into(st[static_cast<std::size_t>(i)], ri.data());
      for (Index j = 0; j < ro; ++j)
        acc[static_cast<std::size_t>(j)] += ri[static_cast<std::size_t>(j)];
    }
    const float inv = 1.0f / static_cast<float>(st.size());
    for (Index j = 0; j < ro; ++j) acc[static_cast<std::size_t>(j)] *= inv;
    float* xr = x.data() + r * 2 * ro;
    std::copy_n(acc.data(), ro, xr);
    read_into(st.back(), xr + ro);
  }
  return snap.f_out_cls.Forward(x).Cast<double>();  // dtype:ok — boundary
}

std::vector<std::vector<Tensor>> DiffOdeF32Engine::PredictAtBatched(
    const DiffOde& model, const data::SequenceBatch& batch,
    const std::vector<std::vector<Scalar>>& times) {
  ag::NoGradScope no_grad;
  const ServingF32& snap = *model.serving_f32_;
  const DiffOdeConfig& config = model.config_;
  DIFFODE_CHECK_EQ(static_cast<Index>(times.size()), batch.batch);
  std::vector<EncodedF32> encs = EncodeBatched(model, batch);
  const Index b = batch.batch;
  std::vector<std::vector<Scalar>> norm(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r) {
    const EncodedF32& enc = encs[static_cast<std::size_t>(r)];
    auto& dst = norm[static_cast<std::size_t>(r)];
    dst.reserve(times[static_cast<std::size_t>(r)].size());
    for (Scalar t : times[static_cast<std::size_t>(r)])
      dst.push_back((t - enc.t_offset) * enc.t_scale);
  }
  const std::vector<std::vector<Tensor32>> states =
      BatchedStatesAt(model, encs, norm);
  const Index ro = model.ReadoutDim();
  const Index sd = model.StateDim();
  const Index d = config.latent_dim;
  const Index dc = config.hippo_dim;
  const Index dr = config.info_dim;
  const bool attn = config.use_attention;
  const bool direct = config.head == OutputHead::kDirect;
  std::vector<std::vector<Tensor>> out(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r) {
    const EncodedF32& enc = encs[static_cast<std::size_t>(r)];
    auto& dst = out[static_cast<std::size_t>(r)];
    const auto& nq = norm[static_cast<std::size_t>(r)];
    dst.reserve(nq.size());
    for (std::size_t k = 0; k < nq.size(); ++k) {
      // Per-pair head application on 1 x (ReadoutDim()+1), the float mirror
      // of the f64 engine's ReadoutInput ‖ t concat.
      const Tensor32& state = states[static_cast<std::size_t>(r)][k];
      const float* sv = state.data();
      Tensor32 xrow = Tensor32::Uninit(Shape{1, ro + 1});
      float* xr = xrow.data();
      if (!attn) {
        std::copy_n(enc.z_mean.data(), d, xr);
        std::copy_n(sv + dc, dr, xr + d);
      } else if (direct) {
        std::copy_n(sv, sd, xr);
      } else {
        std::copy_n(sv, d, xr);
        std::copy_n(sv + d + dc, dr, xr + d);
      }
      xr[ro] = static_cast<float>(nq[k]);
      dst.push_back(
          snap.f_out_reg.Forward(xrow).Cast<double>());  // dtype:ok
    }
  }
  return out;
}

}  // namespace diffode::core
