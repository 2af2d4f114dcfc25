// Lockstep batched execution for DIFFODE (core/batched_model.h): one engine,
// instantiated for the f64 default and for the f32 serving tier that
// Freeze(Precision::kF32) selects.
//
// f64 equivalence contract with the per-sequence path: every row replays its
// exact per-sequence integration timeline (same (t, h) step pairs, built by
// ode::AppendSegment with IntegrateVar's stop rule), and every per-sequence
// quantity — the DHS recoveries, the HiPPO tail, the readouts — is computed
// by the same kernel calls the autograd op forwards use, decomposed into the
// same rounding steps. The only arithmetic that differs at B > 1 is the GEMM
// m-shape of the shared MLPs (phi, f_r, w_r, the GRU encoder, f_out_cls),
// whose backends compute row i from row i of A, B, k and n alone; at B = 1
// every call collapses to the per-sequence shape and the result is bitwise
// identical (tests/batched_equiv_test.cc).
//
// f32 precision contract: the step timelines are exactly the f64 ones
// (BuildBatchPlans and the stage times stay f64), the encoder and the DHS
// factorization built from its latents (the ridge Gram inverse behind
// (Zᵀ)†, the projector sums) run in f64 once per sequence, and the carried
// ODE state stays f64 (ode::LockstepIntegrate). Everything per step — the
// p/z recoveries, phi / f_r / w_r / f_out — runs in float through the same
// kernel entry points (twice the lanes per vector); the zoo-level agreement
// bound lives in tests/precision_test.cc.
//
// The engine is written once, and the dtypes differ at one seam: applying a
// layer, where the f64 engine runs the nn:: modules and the f32 engine the
// frozen ServingF32 snapshot (Layers / Apply). The per-row DHS recoveries
// are one chain at either dtype (RowRecovery).
#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/batch_plans.h"
#include "core/diffode_model.h"
#include "data/encoding.h"
#include "nn/frozen.h"
#include "ode/lockstep.h"
#include "tensor/kernels.h"

namespace diffode::core {

// The frozen f32 parameter snapshot. Built by DiffOde::OnFrozen AFTER
// Module::Freeze has rounded every parameter through float, so each Cast
// here is exact and a save → load → Freeze(kF32) round-trip rebuilds the
// snapshot bit-identically (tests/serialize_roundtrip_test.cc). Members
// mirror ModuleLayers below, name for name, except the encoder, which runs
// in f64 at either dtype (EncodeBatched).
struct ServingF32 {
  nn::FrozenMlp<float> phi;
  nn::FrozenMlp<float> f_r;
  nn::FrozenLinear<float> w_r;
  nn::FrozenMlp<float> f_out_cls;
  nn::FrozenMlp<float> f_out_reg;
  Tensor32 hippo_a_t;  // dc x dc (Aᵀ; constants, cast directly)
  Tensor32 hippo_b_t;  // 1 x dc (Bᵀ)
};

namespace {

// The f64 layer set: the model's own nn:: modules.
struct ModuleLayers {
  const nn::GruCell* gru;      // null under the MLP encoder
  const nn::Mlp* mlp_encoder;  // null under the GRU encoder
  const nn::Mlp& phi;
  const nn::Mlp& f_r;
  const nn::Linear& w_r;
  const nn::Mlp& f_out_cls;
  const nn::Mlp& f_out_reg;
  const Tensor& hippo_a_t;
  const Tensor& hippo_b_t;
};

// The layer seam: an nn:: module runs its autograd forward (tape-free under
// the entry points' NoGradScope), a frozen snapshot layer its plain-tensor
// forward.
template <typename M, typename... X>
Tensor Apply(const M& module, const Tensor& x, const X&... more) {
  return module.Forward(ag::Constant(x), ag::Constant(more)...).value();
}
template <typename M>
Tensor32 Apply(const M& layer, const Tensor32& x) {
  return layer.Forward(x);
}

// An f64 tensor at dtype T (forwarded at f64, so an rvalue moves), and back.
template <typename T, typename X>
TensorT<T> AsDtype(X&& x) {
  if constexpr (std::is_same_v<T, Scalar>) return std::forward<X>(x);
  else return x.template Cast<T>();
}
template <typename T>
Tensor Widen(TensorT<T> x) {
  if constexpr (std::is_same_v<T, Scalar>) return x;
  else return x.template Cast<Scalar>();
}

// The operands the per-step recoveries read from one head's DhsContext, at
// dtype T: a copy at f64, one rounding of the f64 factorization at f32.
template <typename T>
struct RowContext {
  TensorT<T> zt_pinv;    // (Zᵀ)†, n x d_h
  TensorT<T> z;          // n x d_h
  TensorT<T> ap_rowsum;  // (A_p J)ᵀ, 1 x n
  TensorT<T> ada_corr;   // h A_p, 1 x n; empty unless the adaH strategy
  T ap_total = T(0);     // J A_p J
};

template <typename T>
RowContext<T> MakeRowContext(const DhsContext& ctx) {
  RowContext<T> out;
  out.zt_pinv = AsDtype<T>(ctx.zt_pinv.value());
  out.z = AsDtype<T>(ctx.z.value());
  out.ap_rowsum = AsDtype<T>(ctx.ap_rowsum.value());
  if (ctx.ada_corr.defined()) out.ada_corr = AsDtype<T>(ctx.ada_corr.value());
  out.ap_total = static_cast<T>(ctx.ap_total.value().item());
  return out;
}

// The per-row DHS recoveries: dhs.cc's RecoverPVar / RecoverZVar /
// DhsDerivative value chains replayed on raw buffers. Each step calls the
// kernel that the matching autograd op's forward calls, with the same
// operand order and scalar decomposition (e.g. the reciprocal multiply of
// DivByScalarVar), so at f64 every recovered value is bitwise the
// per-sequence one; a multiply and an add never share a statement, so the
// compiler cannot fuse them into an FMA the per-sequence ops don't use.
// Each (row, head) slot keeps its p until its derivative pass; the slots
// sit max_n apart in one flat buffer and one scratch serves every pass, so
// no (row, head, RK stage) allocates.
template <typename T>
class RowRecovery {
 public:
  RowRecovery(Index dh, Index max_n)
      : dh_(dh), max_n_(max_n),
        scratch_(static_cast<std::size_t>(3 * max_n + 2 * dh)) {}
  void Resize(Index slots) {
    p_.resize(static_cast<std::size_t>(slots * max_n_));
  }

  // p = s_h (Zᵀ)† plus the strategy's correction, kept in `slot`; then
  // z_h = sqrt(d_h) (c p - 1) (Zᵀ)† with c = <p,h2>/<p,p>, into z_out.
  void PZ(const RowContext<T>& ctx, const T* h2,
          sparsity::PtStrategy strategy, Index slot, const T* s_h,
          T* z_out) {
    const Index n = ctx.zt_pinv.rows();
    T* p = p_.data() + slot * max_n_;
    T* tmp = scratch_.data();  // 1 x n
    kernels::GemmNT(1, dh_, n, s_h, ctx.zt_pinv.data(), p);
    switch (strategy) {
      case sparsity::PtStrategy::kMinNorm:
        break;
      case sparsity::PtStrategy::kAdaH:
        // EncodeBatched runs the same CacheAdaHCorrection as Encode, so the
        // correction is always present here.
        DIFFODE_CHECK_GT(ctx.ada_corr.numel(), 0);
        kernels::Axpy(n, T(1), ctx.ada_corr.data(), p);
        break;
      case sparsity::PtStrategy::kExactKkt:
        [[fallthrough]];
      case sparsity::PtStrategy::kMaxHoyer: {
        if (std::fabs(ctx.ap_total) < T(1e-10)) break;
        const T coeff = (kernels::Sum(n, p) + T(-1)) * (T(1) / ctx.ap_total);
        std::copy_n(ctx.ap_rowsum.data(), n, tmp);
        kernels::Scale(n, coeff, tmp);
        kernels::Axpy(n, T(-1), tmp, p);
        break;
      }
    }
    const T c = kernels::Dot(n, p, h2) / kernels::Dot(n, p, p);
    std::copy_n(p, n, tmp);
    kernels::Scale(n, c, tmp);
    for (Index j = 0; j < n; ++j) tmp[j] -= T(1);
    kernels::Gemm(1, n, dh_, tmp, ctx.zt_pinv.data(), z_out);
    kernels::Scale(dh_, std::sqrt(static_cast<T>(dh_)), z_out);
  }

  // ds = ((u ⊙ p) Z - <u,p> p Z) / sqrt(d_h) with u = w_h Zᵀ, into ds_out.
  // The two (1 x n)·Z products run as one m = 2 Gemm over [u ⊙ p ; p]; a
  // Gemm row is the m = 1 product of that row (tensor/kernels.h), so the
  // fusion keeps the per-sequence bits.
  void Derivative(const RowContext<T>& ctx, Index slot, const T* w_h,
                  T* ds_out) {
    const Index n = ctx.z.rows();
    const T* p = p_.data() + slot * max_n_;
    T* u = scratch_.data();
    T* a2 = u + n;       // [u ⊙ p ; p], 2 x n
    T* c2 = a2 + 2 * n;  // [term1 ; term2], 2 x d_h
    kernels::GemmNT(1, dh_, n, w_h, ctx.z.data(), u);
    kernels::Zip(n, u, p, a2, [](T x, T y) { return x * y; });
    std::copy_n(p, n, a2 + n);
    kernels::Gemm(2, n, dh_, a2, ctx.z.data(), c2);
    kernels::Scale(dh_, kernels::Dot(n, u, p), c2 + dh_);
    kernels::Axpy(dh_, T(-1), c2 + dh_, c2);
    kernels::Scale(dh_, T(1) / std::sqrt(static_cast<T>(dh_)), c2);
    std::copy_n(c2, dh_, ds_out);
  }

 private:
  Index dh_, max_n_;
  std::vector<T> p_, scratch_;
};

// One row of ReadoutInput's layout ([S | r], S, or [z̄ | r]) copied straight
// out of a state row: ReadoutInput is pure slicing and concatenation.
template <typename T>
void ReadoutRow(const DiffOdeConfig& config, const T* z_mean, const T* state,
                T* dst) {
  const Index d = config.latent_dim;
  const Index dc = config.hippo_dim;
  const Index dr = config.info_dim;
  if (!config.use_attention) {
    std::copy_n(z_mean, d, dst);
    std::copy_n(state + dc, dr, dst + d);
  } else if (config.head == OutputHead::kDirect) {
    std::copy_n(state, d, dst);
  } else {
    std::copy_n(state, d, dst);
    std::copy_n(state + d + dc, dr, dst + d);
  }
}

}  // namespace

// One sequence's encoding as the batched RHS and readouts read it, at T.
template <typename T>
struct DiffOde::BatchedEncoded {
  std::vector<RowContext<T>> heads;
  TensorT<T> h2;      // 1 x n (attention paths)
  TensorT<T> z_mean;  // 1 x d
  TensorT<T> y0;      // 1 x StateDim(), built in f64 and rounded to T
  std::vector<Scalar> norm_times;
  Scalar t_scale = 1.0;
  Scalar t_offset = 0.0;
};

void DiffOde::OnFrozen(Precision precision) {
  if (precision != Precision::kF32) {
    serving_f32_ = nullptr;
    return;
  }
  auto snap = std::make_shared<ServingF32>();
  snap->phi = nn::FrozenMlp<float>::FromModule(*phi_);
  snap->f_r = nn::FrozenMlp<float>::FromModule(*f_r_);
  snap->w_r = nn::FrozenLinear<float>::FromModule(*w_r_);
  snap->f_out_cls = nn::FrozenMlp<float>::FromModule(*f_out_cls_);
  snap->f_out_reg = nn::FrozenMlp<float>::FromModule(*f_out_reg_);
  snap->hippo_a_t = hippo_a_t_.Cast<float>();
  snap->hippo_b_t = hippo_b_t_.Cast<float>();
  serving_f32_ = std::move(snap);
}

template <typename T>
decltype(auto) DiffOde::Layers() const {
  if constexpr (std::is_same_v<T, float>) {
    return static_cast<const ServingF32&>(*serving_f32_);
  } else {
    return ModuleLayers{gru_encoder_.get(), mlp_encoder_.get(), *phi_,
                        *f_r_, *w_r_, *f_out_cls_, *f_out_reg_, hippo_a_t_,
                        hippo_b_t_};
  }
}

template <typename T>
std::vector<DiffOde::BatchedEncoded<T>> DiffOde::EncodeBatched(
    const data::SequenceBatch& batch) const {
  // The encoder runs in f64 at either T: its latents Z feed the ridge Gram
  // inverse behind (Zᵀ)†, which amplifies any rounding of Z by the Gram's
  // condition number — f32 latents put trained checkpoints' worst rows
  // tens of percent off the f64 logits. One encoder pass per sequence is
  // cheap next to the per-step work that does run at T.
  const auto& net = Layers<Scalar>();
  const Index b = batch.batch;
  const Index d = config_.latent_dim;
  DIFFODE_CHECK_EQ(batch.features, config_.input_dim);
  std::vector<data::EncoderInputs> inputs;
  inputs.reserve(static_cast<std::size_t>(b));
  Index max_n = 0;
  for (Index r = 0; r < b; ++r) {
    const data::IrregularSeries& s = *batch.series[static_cast<std::size_t>(r)];
    DIFFODE_CHECK_GE(s.length(), 2);
    inputs.push_back(data::BuildEncoderInputs(s, kSpan));
    max_n = std::max(max_n, s.length());
  }
  std::vector<Tensor> z_rows(static_cast<std::size_t>(b));
  if (gru_encoder_) {
    // The GRU recurrence is indexed by observation number, not time, so all
    // rows advance one observation per wave: gather the still-active rows,
    // run one batched GRU step (GEMM shape m = E), scatter back.
    for (Index r = 0; r < b; ++r)
      z_rows[static_cast<std::size_t>(r)] = Tensor::Uninit(
          Shape{batch.lengths[static_cast<std::size_t>(r)], d});
    const Index enc_in = inputs.front().inputs.cols();
    Tensor h_all(Shape{b, d});  // zeros, as GruCell::InitialState per row
    std::vector<Index> active;
    for (Index i = 0; i < max_n; ++i) {
      active.clear();
      for (Index r = 0; r < b; ++r)
        if (i < batch.lengths[static_cast<std::size_t>(r)]) active.push_back(r);
      const Index e = static_cast<Index>(active.size());
      Tensor x_step = Tensor::Uninit(Shape{e, enc_in});
      for (Index j = 0; j < e; ++j) {
        const Index r = active[static_cast<std::size_t>(j)];
        std::copy_n(inputs[static_cast<std::size_t>(r)].inputs.data() +
                        i * enc_in,
                    enc_in, x_step.data() + j * enc_in);
      }
      Tensor h_step = Tensor::Uninit(Shape{e, d});
      kernels::SelectRows(e, d, active.data(), h_all.data(), h_step.data());
      const Tensor h_new = Apply(*net.gru, x_step, h_step);
      kernels::ScatterRows(e, d, active.data(), h_new.data(), h_all.data());
      for (Index j = 0; j < e; ++j) {
        const Index r = active[static_cast<std::size_t>(j)];
        std::copy_n(h_new.data() + j * d, d,
                    z_rows[static_cast<std::size_t>(r)].data() + i * d);
      }
    }
  } else {
    for (Index r = 0; r < b; ++r)
      z_rows[static_cast<std::size_t>(r)] =
          Apply(*net.mlp_encoder, inputs[static_cast<std::size_t>(r)].inputs);
  }
  // Context factorization in f64 for both dtypes, then the per-step tensors
  // are taken at T. The inversion is the numerically delicate part of DHS;
  // keeping it f64 costs one factorization per sequence, not per step.
  std::vector<BatchedEncoded<T>> encs(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r) {
    data::EncoderInputs& in = inputs[static_cast<std::size_t>(r)];
    Encoded enc;
    enc.z = ag::Constant(std::move(z_rows[static_cast<std::size_t>(r)]));
    BuildContexts(&enc);
    BatchedEncoded<T>& out = encs[static_cast<std::size_t>(r)];
    out.y0 = AsDtype<T>(InitialState(enc).value());
    for (const DhsContext& ctx : enc.heads)
      out.heads.push_back(MakeRowContext<T>(ctx));
    if (enc.h2.defined()) out.h2 = AsDtype<T>(enc.h2.value());
    out.z_mean = AsDtype<T>(enc.z_mean.value());
    out.norm_times = std::move(in.norm_times);
    out.t_scale = in.t_scale;
    out.t_offset = in.t_offset;
  }
  return encs;
}

template <typename T>
std::vector<std::vector<TensorT<T>>> DiffOde::BatchedStatesAt(
    const std::vector<BatchedEncoded<T>>& encs,
    const std::vector<std::vector<Scalar>>& norm_queries) const {
  const auto& net = Layers<T>();
  const Index b = static_cast<Index>(encs.size());
  const Index sd = StateDim();
  const Index d = config_.latent_dim;
  const Index dc = config_.hippo_dim;
  const Index dr = config_.info_dim;
  const Index heads = config_.num_heads;
  const Index dh = d / heads;
  const bool attn = config_.use_attention;
  const bool direct = config_.head == OutputHead::kDirect;
  const bool anchored = attn && config_.consistency_weight > 0.0;

  // Per-row plans replicating StatesAt's grid (see core/batch_plans.h),
  // always f64, so both dtypes replay identical timelines.
  std::vector<const std::vector<Scalar>*> anchors;
  anchors.reserve(encs.size());
  for (const BatchedEncoded<T>& e : encs)
    anchors.push_back(anchored ? &e.norm_times : nullptr);
  const BatchPlans bp = BuildBatchPlans(norm_queries, anchors, config_.step);
  std::vector<const BatchedEncoded<T>*> row_enc;
  row_enc.reserve(bp.orig_of_row.size());
  for (Index orig : bp.orig_of_row)
    row_enc.push_back(&encs[static_cast<std::size_t>(orig)]);

  // The carried state is f64 for both dtypes (ode::LockstepIntegrate).
  Tensor y = Tensor::Uninit(Shape{static_cast<Index>(bp.plans.size()), sd});
  for (Index r = 0; r < b; ++r) {
    const TensorT<T>& y0 = encs[static_cast<std::size_t>(r)].y0;
    std::copy_n(y0.data(), sd, y.data() + r * sd);
    const Index br = bp.back_row[static_cast<std::size_t>(r)];
    if (br >= 0) std::copy_n(y0.data(), sd, y.data() + br * sd);
  }

  // Buffers reused across RK stages, reshaped only when the active-row
  // count changes. p slots are sized by the longest context in the batch.
  Index max_n = 1;
  for (const BatchedEncoded<T>& e : encs)
    max_n = std::max(max_n, static_cast<Index>(e.norm_times.size()));
  RowRecovery<T> recovery(dh, max_n);
  TensorT<T> xphi, xfr, c_mat, r_mat;
  std::vector<T> outer(static_cast<std::size_t>(dc));
  Index cached_a = -1;

  // The batched RHS: per-row DHS inversion, shared layers evaluated once
  // for all active rows.
  const ode::BatchedRhsT<T> rhs = [&](const std::vector<Index>& rows,
                                      const std::vector<Scalar>& tt,
                                      const TensorT<T>& ya) -> TensorT<T> {
    const Index a = static_cast<Index>(rows.size());
    if (cached_a != a) {
      cached_a = a;
      if (attn)
        xphi = TensorT<T>::Uninit(Shape{a, d + 1});
      else
        xfr = TensorT<T>::Uninit(Shape{a, d + dc + dr});
      if (!attn || !direct) {
        c_mat = TensorT<T>::Uninit(Shape{a, dc});
        r_mat = TensorT<T>::Uninit(Shape{a, dr});
      }
      recovery.Resize(a * heads);
    }
    TensorT<T> k_out = TensorT<T>::Uninit(Shape{a, sd});
    // The HiPPO tail dc/dt = c Aᵀ + Bᵀ (w_r r), dr/dt = f_r(...): u_r comes
    // from the batched f_r forward; the Bᵀ outer product and the add are
    // per-row loops split across stored temporaries (exact elementwise ops,
    // so bitwise regardless of batching).
    const auto hippo_tail = [&](Index s_width, const TensorT<T>& u_r) {
      for (Index i = 0; i < a; ++i) {
        std::copy_n(ya.data() + i * sd + s_width, dc, c_mat.data() + i * dc);
        std::copy_n(ya.data() + i * sd + s_width + dc, dr,
                    r_mat.data() + i * dr);
      }
      const TensorT<T> dcm = c_mat.MatMul(net.hippo_a_t);  // a x dc
      const TensorT<T> wr = Apply(net.w_r, r_mat);         // a x 1
      const T* bt = net.hippo_b_t.data();
      for (Index i = 0; i < a; ++i) {
        T* krow = k_out.data() + i * sd + s_width;
        const T* dcrow = dcm.data() + i * dc;
        const T wri = wr.data()[i];
        for (Index j = 0; j < dc; ++j)
          outer[static_cast<std::size_t>(j)] = bt[j] * wri;
        for (Index j = 0; j < dc; ++j)
          krow[j] = dcrow[j] + outer[static_cast<std::size_t>(j)];
        std::copy_n(u_r.data() + i * dr, dr, krow + dc);
      }
    };
    if (!attn) {
      // HiPPO-RNN-like ablation: rows are [c | r], f_r sees [z_mean | c | r].
      for (Index i = 0; i < a; ++i) {
        const BatchedEncoded<T>& enc = *row_enc[static_cast<std::size_t>(
            rows[static_cast<std::size_t>(i)])];
        std::copy_n(enc.z_mean.data(), d, xfr.data() + i * (d + dc + dr));
        std::copy_n(ya.data() + i * sd, dc + dr,
                    xfr.data() + i * (d + dc + dr) + d);
      }
      hippo_tail(0, Apply(net.f_r, xfr));
      return k_out;
    }
    // Invert the attention per row and head, then run phi once for the
    // whole wave: rows of xphi are [z_recovered | t_row]. The per-row
    // recoveries are serial: serving parallelism is per micro-batch
    // (core/batch_predictor.cc), not per RK stage.
    for (Index i = 0; i < a; ++i) {
      const BatchedEncoded<T>& enc = *row_enc[static_cast<std::size_t>(
          rows[static_cast<std::size_t>(i)])];
      for (Index hh = 0; hh < heads; ++hh)
        recovery.PZ(enc.heads[static_cast<std::size_t>(hh)], enc.h2.data(),
                    config_.pt_strategy, i * heads + hh,
                    ya.data() + i * sd + hh * dh,
                    xphi.data() + i * (d + 1) + hh * dh);
      xphi.data()[i * (d + 1) + d] =
          static_cast<T>(tt[static_cast<std::size_t>(i)]);
    }
    TensorT<T> w = Apply(net.phi, xphi);
    kernels::MapTanh(w.numel(), w.data(), w.data());
    for (Index i = 0; i < a; ++i) {
      const BatchedEncoded<T>& enc = *row_enc[static_cast<std::size_t>(
          rows[static_cast<std::size_t>(i)])];
      for (Index hh = 0; hh < heads; ++hh)
        recovery.Derivative(enc.heads[static_cast<std::size_t>(hh)],
                            i * heads + hh, w.data() + i * d + hh * dh,
                            k_out.data() + i * sd + hh * dh);
    }
    // f_r's input [s | c | r] is exactly the packed state row.
    if (!direct) hippo_tail(d, Apply(net.f_r, ya));
    return k_out;
  };

  std::vector<std::vector<TensorT<T>>> slot_states;
  slot_states.reserve(bp.slots.size());
  for (const std::vector<Scalar>& sl : bp.slots)
    slot_states.emplace_back(sl.size());
  const ode::LockstepEventFn on_event =
      [&](const std::vector<ode::LockstepEvent>& events, Tensor* yp) {
        for (const ode::LockstepEvent& e : events)
          slot_states[static_cast<std::size_t>(
              bp.orig_of_row[static_cast<std::size_t>(e.row)])]
                     [static_cast<std::size_t>(e.tag)] =
                         AsDtype<T>(yp->Row(e.row));
      };
  ode::LockstepIntegrate(bp.plans, diff_method_, rhs, on_event, &y);

  std::vector<std::vector<TensorT<T>>> out(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r) {
    const std::vector<Scalar>& sl = bp.slots[static_cast<std::size_t>(r)];
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

template <typename T>
Tensor DiffOde::BatchedLogits(const data::SequenceBatch& batch) const {
  ag::NoGradScope no_grad;
  const std::vector<BatchedEncoded<T>> encs = EncodeBatched<T>(batch);
  std::vector<std::vector<Scalar>> queries;
  queries.reserve(encs.size());
  for (const BatchedEncoded<T>& enc : encs) queries.push_back(enc.norm_times);
  const std::vector<std::vector<TensorT<T>>> states =
      BatchedStatesAt<T>(encs, queries);
  const Index b = batch.batch;
  const Index ro = ReadoutDim();
  TensorT<T> x = TensorT<T>::Uninit(Shape{b, 2 * ro});
  // One mean-pooled readout chain per row, as raw loops: ReadoutInput is
  // pure slicing/concat and AddInPlace/MulScalar are elementwise in fixed
  // order, so accumulating the slices directly reproduces the per-sequence
  // chain bit for bit without its per-state Var and concat allocations.
  std::vector<T> acc(static_cast<std::size_t>(ro));
  std::vector<T> ri(static_cast<std::size_t>(ro));
  for (Index r = 0; r < b; ++r) {
    const T* zm = encs[static_cast<std::size_t>(r)].z_mean.data();
    const std::vector<TensorT<T>>& st = states[static_cast<std::size_t>(r)];
    ReadoutRow(config_, zm, st[0].data(), acc.data());
    for (std::size_t i = 1; i < st.size(); ++i) {
      ReadoutRow(config_, zm, st[i].data(), ri.data());
      for (Index j = 0; j < ro; ++j)
        acc[static_cast<std::size_t>(j)] += ri[static_cast<std::size_t>(j)];
    }
    const T inv = T(1) / static_cast<T>(st.size());
    for (Index j = 0; j < ro; ++j) acc[static_cast<std::size_t>(j)] *= inv;
    T* xr = x.data() + r * 2 * ro;
    std::copy_n(acc.data(), ro, xr);
    ReadoutRow(config_, zm, st.back().data(), xr + ro);
  }
  return Widen<T>(Apply(Layers<T>().f_out_cls, x));
}

template <typename T>
std::vector<std::vector<Tensor>> DiffOde::BatchedPredictions(
    const data::SequenceBatch& batch,
    const std::vector<std::vector<Scalar>>& times) const {
  ag::NoGradScope no_grad;
  DIFFODE_CHECK_EQ(static_cast<Index>(times.size()), batch.batch);
  const std::vector<BatchedEncoded<T>> encs = EncodeBatched<T>(batch);
  const Index b = batch.batch;
  std::vector<std::vector<Scalar>> norm(times);
  for (Index r = 0; r < b; ++r)
    for (Scalar& t : norm[static_cast<std::size_t>(r)])
      t = (t - encs[static_cast<std::size_t>(r)].t_offset) *
          encs[static_cast<std::size_t>(r)].t_scale;
  const std::vector<std::vector<TensorT<T>>> states =
      BatchedStatesAt<T>(encs, norm);
  const auto& net = Layers<T>();
  const Index ro = ReadoutDim();
  std::vector<std::vector<Tensor>> out(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r) {
    const auto& nq = norm[static_cast<std::size_t>(r)];
    auto& dst = out[static_cast<std::size_t>(r)];
    dst.reserve(nq.size());
    for (std::size_t k = 0; k < nq.size(); ++k) {
      // Per-pair head application on [ReadoutInput | t], 1 x (ReadoutDim()+1)
      // — exactly the per-sequence shape, so regression outputs are bitwise
      // at any B.
      TensorT<T> xrow = TensorT<T>::Uninit(Shape{1, ro + 1});
      ReadoutRow(config_, encs[static_cast<std::size_t>(r)].z_mean.data(),
                 states[static_cast<std::size_t>(r)][k].data(), xrow.data());
      xrow.data()[ro] = static_cast<T>(nq[k]);
      dst.push_back(Widen<T>(Apply(net.f_out_reg, xrow)));
    }
  }
  return out;
}

Tensor DiffOde::ClassifyLogitsBatched(const data::SequenceBatch& batch) {
  return serving_f32_ ? BatchedLogits<float>(batch)
                      : BatchedLogits<Scalar>(batch);
}

std::vector<std::vector<Tensor>> DiffOde::PredictAtBatched(
    const data::SequenceBatch& batch,
    const std::vector<std::vector<Scalar>>& times) {
  return serving_f32_ ? BatchedPredictions<float>(batch, times)
                      : BatchedPredictions<Scalar>(batch, times);
}

}  // namespace diffode::core
