// Lockstep batched execution for DIFFODE (core/batched_model.h).
//
// Equivalence contract with the per-sequence path: every row replays its
// exact per-sequence integration timeline (same (t, h) step pairs, built by
// ode::AppendSegment with IntegrateVar's stop rule), and every per-sequence
// quantity — the DHS recoveries, the HiPPO tail, the readouts — is computed
// by the same Tensor/kernel calls the autograd op forwards use, decomposed
// into the same rounding steps. The only arithmetic that differs at B > 1
// is the GEMM m-shape of the shared MLPs (phi, f_r, w_r, the GRU encoder,
// f_out_cls), whose backends guarantee c[i][j] depends only on
// (i, j, m, k, n); at B = 1 every call collapses to the per-sequence shape
// and the result is bitwise identical (tests/batched_equiv_test.cc).
#include <algorithm>
#include <cmath>
#include <vector>

#include "core/batch_plans.h"
#include "core/diffode_f32.h"
#include "core/diffode_model.h"
#include "data/encoding.h"
#include "ode/lockstep.h"
#include "tensor/kernels.h"

namespace diffode::core {
namespace {

// Must match the kSpan of diffode_model.cc: the per-sequence Encode maps
// the observation window onto [0, kSpan] before integration.
constexpr Scalar kSpan = 10.0;

// Plain-tensor mirrors of dhs.cc's RecoverPVar / RecoverZVar /
// DhsDerivative value chains. Each statement reproduces one autograd op's
// forward (same Tensor method, same operand order, same scalar
// decomposition — e.g. the reciprocal multiply of DivByScalarVar), so the
// recovered values are bitwise the per-sequence ones. Multiply-then-add
// pairs stay in separate statements through stored temporaries so the
// compiler cannot contract them into FMAs the per-sequence ops don't use.
Tensor RecoverPRow(const DhsContext& ctx, const Tensor& s_h,
                   sparsity::PtStrategy strategy) {
  Tensor b = s_h.MatMulTransposed(ctx.zt_pinv.value());  // 1 x n
  switch (strategy) {
    case sparsity::PtStrategy::kMinNorm:
      return b;
    case sparsity::PtStrategy::kAdaH: {
      // EncodeBatched runs the same CacheAdaHCorrection as Encode, so the
      // correction is always present here.
      DIFFODE_CHECK(ctx.ada_corr.defined());
      b += ctx.ada_corr.value();
      return b;
    }
    case sparsity::PtStrategy::kExactKkt:
      [[fallthrough]];
    case sparsity::PtStrategy::kMaxHoyer: {
      const Scalar total = ctx.ap_total.value().item();
      if (std::fabs(total) < 1e-10) return b;
      const Scalar coeff = (b.Sum() + -1.0) * (1.0 / total);
      Tensor corr = ctx.ap_rowsum.value() * coeff;
      b -= corr;
      return b;
    }
  }
  DIFFODE_CHECK(false);
  return b;
}

Tensor RecoverZRow(const DhsContext& ctx, const Tensor& p, const Tensor& h2) {
  const Scalar pp = p.Dot(p);
  const Scalar ph = p.Dot(h2);
  const Scalar c = ph / pp;
  Tensor a_h = p * c;
  for (Index j = 0; j < a_h.numel(); ++j) a_h.data()[j] -= 1.0;
  Tensor z = a_h.MatMul(ctx.zt_pinv.value());
  z *= std::sqrt(static_cast<Scalar>(ctx.d));
  return z;
}

Tensor DerivativeRow(const DhsContext& ctx, const Tensor& w_h,
                     const Tensor& p) {
  const Scalar scale = 1.0 / std::sqrt(static_cast<Scalar>(ctx.d));
  const Tensor& zv = ctx.z.value();
  Tensor u = w_h.MatMulTransposed(zv);  // 1 x n
  Tensor up_elem = u * p;
  Tensor term1 = up_elem.MatMul(zv);  // 1 x d_h
  const Scalar up = u.Dot(p);
  Tensor term2 = p.MatMul(zv);
  term2 *= up;
  term1 -= term2;
  term1 *= scale;
  return term1;
}

}  // namespace

std::vector<DiffOde::Encoded> DiffOde::EncodeBatched(
    const data::SequenceBatch& batch) const {
  const Index b = batch.batch;
  const Index f = config_.input_dim;
  const Index d = config_.latent_dim;
  DIFFODE_CHECK_EQ(batch.features, f);
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
    // run one batched GruCell step (GEMM shape m = E), scatter back.
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
      for (Index j = 0; j < e; ++j)
        std::copy_n(
            inputs[static_cast<std::size_t>(active[static_cast<std::size_t>(j)])]
                    .inputs.data() +
                i * enc_in,
            enc_in, x_step.data() + j * enc_in);
      Tensor h_step = Tensor::Uninit(Shape{e, d});
      kernels::SelectRows(e, d, active.data(), h_all.data(), h_step.data());
      Tensor h_new =
          gru_encoder_->Forward(ag::Constant(x_step), ag::Constant(h_step))
              .value();
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
          mlp_encoder_->Forward(
                  ag::Constant(inputs[static_cast<std::size_t>(r)].inputs))
              .value();
  }
  std::vector<Encoded> encs(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r) {
    Encoded& enc = encs[static_cast<std::size_t>(r)];
    data::EncoderInputs& in = inputs[static_cast<std::size_t>(r)];
    enc.t_scale = in.t_scale;
    enc.t_offset = in.t_offset;
    enc.norm_times = std::move(in.norm_times);
    enc.z = ag::Constant(z_rows[static_cast<std::size_t>(r)]);
    BuildContexts(&enc);
  }
  return encs;
}

std::vector<std::vector<Tensor>> DiffOde::BatchedStatesAt(
    const std::vector<Encoded>& encs,
    const std::vector<std::vector<Scalar>>& norm_queries) const {
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

  // Per-row plans replicating StatesAt's grid (see core/batch_plans.h); the
  // builder is shared with the f32 serving engine so both precisions replay
  // identical timelines.
  std::vector<const std::vector<Scalar>*> anchors(static_cast<std::size_t>(b),
                                                  nullptr);
  if (anchored)
    for (Index r = 0; r < b; ++r)
      anchors[static_cast<std::size_t>(r)] =
          &encs[static_cast<std::size_t>(r)].norm_times;
  BatchPlans bp = BuildBatchPlans(norm_queries, anchors, config_.step);
  const std::vector<ode::RowPlan>& plans = bp.plans;
  const std::vector<Index>& orig_of_row = bp.orig_of_row;
  const std::vector<std::vector<Scalar>>& slots = bp.slots;
  const std::vector<Index>& back_row = bp.back_row;
  std::vector<const Encoded*> row_enc;
  row_enc.reserve(orig_of_row.size());
  for (Index orig : orig_of_row)
    row_enc.push_back(&encs[static_cast<std::size_t>(orig)]);

  const Index rows_total = static_cast<Index>(plans.size());
  Tensor y = Tensor::Uninit(Shape{rows_total, sd});
  for (Index r = 0; r < b; ++r) {
    const Tensor y0 = InitialState(encs[static_cast<std::size_t>(r)]).value();
    std::copy_n(y0.data(), sd, y.data() + r * sd);
    const Index br = back_row[static_cast<std::size_t>(r)];
    if (br >= 0) std::copy_n(y0.data(), sd, y.data() + br * sd);
  }

  // The batched RHS: per-row DHS inversion with the exact per-sequence
  // arithmetic, shared MLPs evaluated once for all active rows.
  const ode::BatchedRhs rhs = [&](const std::vector<Index>& rows,
                                  const std::vector<Scalar>& tt,
                                  const Tensor& ya) -> Tensor {
    const Index a = static_cast<Index>(rows.size());
    Tensor k_out = Tensor::Uninit(Shape{a, sd});
    // The HiPPO tail dc/dt = c Aᵀ + Bᵀ (w_r r), dr/dt = f_r(...): u_r comes
    // from the batched f_r forward; the Bᵀ outer product and the add are
    // per-row loops split across stored temporaries (exact elementwise ops,
    // so bitwise regardless of batching).
    std::vector<Scalar> outer(static_cast<std::size_t>(dc));
    const auto hippo_tail = [&](Index s_width, const Tensor& u_r) {
      Tensor c_mat = Tensor::Uninit(Shape{a, dc});
      Tensor r_mat = Tensor::Uninit(Shape{a, dr});
      for (Index i = 0; i < a; ++i) {
        std::copy_n(ya.data() + i * sd + s_width, dc, c_mat.data() + i * dc);
        std::copy_n(ya.data() + i * sd + s_width + dc, dr,
                    r_mat.data() + i * dr);
      }
      Tensor dcm = c_mat.MatMul(hippo_a_t_);                          // a x dc
      Tensor wr = w_r_->Forward(ag::Constant(r_mat)).value();         // a x 1
      const Scalar* bt = hippo_b_t_.data();
      for (Index i = 0; i < a; ++i) {
        Scalar* krow = k_out.data() + i * sd + s_width;
        const Scalar* dcrow = dcm.data() + i * dc;
        const Scalar wri = wr.data()[i];
        for (Index j = 0; j < dc; ++j)
          outer[static_cast<std::size_t>(j)] = bt[j] * wri;
        for (Index j = 0; j < dc; ++j)
          krow[j] = dcrow[j] + outer[static_cast<std::size_t>(j)];
        std::copy_n(u_r.data() + i * dr, dr, krow + dc);
      }
    };
    if (!attn) {
      // HiPPO-RNN-like ablation: rows are [c | r], f_r sees [z_mean | c | r].
      Tensor xfr = Tensor::Uninit(Shape{a, d + dc + dr});
      for (Index i = 0; i < a; ++i) {
        const Encoded& enc = *row_enc[static_cast<std::size_t>(
            rows[static_cast<std::size_t>(i)])];
        std::copy_n(enc.z_mean.value().data(), d, xfr.data() + i * (d + dc + dr));
        std::copy_n(ya.data() + i * sd, dc + dr,
                    xfr.data() + i * (d + dc + dr) + d);
      }
      const Tensor u_r = f_r_->Forward(ag::Constant(xfr)).value();
      hippo_tail(0, u_r);
      return k_out;
    }
    // Invert the attention per row and head, then run phi once for the
    // whole wave: rows of xphi are [z_recovered | t_row]. The per-row
    // recoveries are serial: serving parallelism is per micro-batch
    // (core/batch_predictor.cc), not per RK stage.
    std::vector<std::vector<Tensor>> p_rows(
        static_cast<std::size_t>(heads),
        std::vector<Tensor>(static_cast<std::size_t>(a)));
    Tensor xphi = Tensor::Uninit(Shape{a, d + 1});
    Tensor s_h = Tensor::Uninit(Shape{1, dh});
    for (Index i = 0; i < a; ++i) {
      const Encoded& enc = *row_enc[static_cast<std::size_t>(
          rows[static_cast<std::size_t>(i)])];
      const Scalar* yrow = ya.data() + i * sd;
      for (Index hh = 0; hh < heads; ++hh) {
        const DhsContext& ctx = enc.heads[static_cast<std::size_t>(hh)];
        std::copy_n(yrow + hh * dh, dh, s_h.data());
        Tensor p = RecoverPRow(ctx, s_h, config_.pt_strategy);
        const Tensor z_h = RecoverZRow(ctx, p, enc.h2.value());
        std::copy_n(z_h.data(), dh, xphi.data() + i * (d + 1) + hh * dh);
        p_rows[static_cast<std::size_t>(hh)][static_cast<std::size_t>(i)] =
            std::move(p);
      }
      xphi.data()[i * (d + 1) + d] = tt[static_cast<std::size_t>(i)];
    }
    const Tensor w = ag::Tanh(phi_->Forward(ag::Constant(xphi))).value();
    Tensor w_h = Tensor::Uninit(Shape{1, dh});
    for (Index i = 0; i < a; ++i) {
      const Encoded& enc = *row_enc[static_cast<std::size_t>(
          rows[static_cast<std::size_t>(i)])];
      for (Index hh = 0; hh < heads; ++hh) {
        std::copy_n(w.data() + i * d + hh * dh, dh, w_h.data());
        const Tensor ds = DerivativeRow(
            enc.heads[static_cast<std::size_t>(hh)], w_h,
            p_rows[static_cast<std::size_t>(hh)][static_cast<std::size_t>(i)]);
        std::copy_n(ds.data(), dh, k_out.data() + i * sd + hh * dh);
      }
    }
    if (!direct) {
      // f_r's input [s | c | r] is exactly the packed state row.
      const Tensor u_r = f_r_->Forward(ag::Constant(ya)).value();
      hippo_tail(d, u_r);
    }
    return k_out;
  };

  std::vector<std::vector<Tensor>> slot_states(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r)
    slot_states[static_cast<std::size_t>(r)].resize(
        slots[static_cast<std::size_t>(r)].size());
  const ode::LockstepEventFn on_event =
      [&](const std::vector<ode::LockstepEvent>& events, Tensor* yp) {
        for (const ode::LockstepEvent& e : events)
          slot_states[static_cast<std::size_t>(
              orig_of_row[static_cast<std::size_t>(e.row)])]
                     [static_cast<std::size_t>(e.tag)] = yp->Row(e.row);
      };
  ode::LockstepIntegrate(plans, diff_method_, rhs, on_event, &y);

  std::vector<std::vector<Tensor>> out(static_cast<std::size_t>(b));
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

Tensor DiffOde::ClassifyLogitsBatched(const data::SequenceBatch& batch) {
  if (serving_f32_)
    return DiffOdeF32Engine::ClassifyLogitsBatched(*this, batch);
  ag::NoGradScope no_grad;
  std::vector<Encoded> encs = EncodeBatched(batch);
  const Index b = batch.batch;
  std::vector<std::vector<Scalar>> queries(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r)
    queries[static_cast<std::size_t>(r)] =
        encs[static_cast<std::size_t>(r)].norm_times;
  const std::vector<std::vector<Tensor>> states =
      BatchedStatesAt(encs, queries);
  const Index ro = ReadoutDim();
  const Index sd = StateDim();
  const Index d = config_.latent_dim;
  const Index dc = config_.hippo_dim;
  const Index dr = config_.info_dim;
  const bool attn = config_.use_attention;
  const bool direct = config_.head == OutputHead::kDirect;
  Tensor x = Tensor::Uninit(Shape{b, 2 * ro});
  // One mean-pooled readout chain per row, as raw loops: ReadoutInput is
  // pure slicing/concat and AddInPlace/MulScalar are elementwise in fixed
  // order, so accumulating the slices directly reproduces the per-sequence
  // chain bit for bit without its per-state Var and concat allocations.
  std::vector<Scalar> acc(static_cast<std::size_t>(ro));
  std::vector<Scalar> ri(static_cast<std::size_t>(ro));
  for (Index r = 0; r < b; ++r) {
    const Encoded& enc = encs[static_cast<std::size_t>(r)];
    const std::vector<Tensor>& st = states[static_cast<std::size_t>(r)];
    const Scalar* zm = attn ? nullptr : enc.z_mean.value().data();
    const auto read_into = [&](const Tensor& state, Scalar* dst) {
      const Scalar* sv = state.data();
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
    const Scalar inv = 1.0 / static_cast<Scalar>(st.size());
    for (Index j = 0; j < ro; ++j) acc[static_cast<std::size_t>(j)] *= inv;
    Scalar* xr = x.data() + r * 2 * ro;
    std::copy_n(acc.data(), ro, xr);
    read_into(st.back(), xr + ro);
  }
  return f_out_cls_->Forward(ag::Constant(x)).value();
}

std::vector<std::vector<Tensor>> DiffOde::PredictAtBatched(
    const data::SequenceBatch& batch,
    const std::vector<std::vector<Scalar>>& times) {
  if (serving_f32_) return DiffOdeF32Engine::PredictAtBatched(*this, batch, times);
  ag::NoGradScope no_grad;
  DIFFODE_CHECK_EQ(static_cast<Index>(times.size()), batch.batch);
  std::vector<Encoded> encs = EncodeBatched(batch);
  const Index b = batch.batch;
  std::vector<std::vector<Scalar>> norm(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r) {
    const Encoded& enc = encs[static_cast<std::size_t>(r)];
    auto& dst = norm[static_cast<std::size_t>(r)];
    dst.reserve(times[static_cast<std::size_t>(r)].size());
    for (Scalar t : times[static_cast<std::size_t>(r)])
      dst.push_back((t - enc.t_offset) * enc.t_scale);
  }
  const std::vector<std::vector<Tensor>> states = BatchedStatesAt(encs, norm);
  std::vector<std::vector<Tensor>> out(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r) {
    const Encoded& enc = encs[static_cast<std::size_t>(r)];
    auto& dst = out[static_cast<std::size_t>(r)];
    const auto& nq = norm[static_cast<std::size_t>(r)];
    dst.reserve(nq.size());
    for (std::size_t k = 0; k < nq.size(); ++k) {
      // Per-pair head application on 1 x (ReadoutDim()+1), exactly the
      // per-sequence shape, so regression outputs are bitwise at any B.
      const ag::Var t_var = ag::Constant(Tensor::Full(Shape{1, 1}, nq[k]));
      dst.push_back(
          f_out_reg_
              ->Forward(ag::ConcatCols(
                  {ReadoutInput(
                       enc, ag::Constant(
                                states[static_cast<std::size_t>(r)][k])),
                   t_var}))
              .value());
    }
  }
  return out;
}

}  // namespace diffode::core
