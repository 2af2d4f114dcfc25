#ifndef DIFFODE_ODE_LOCKSTEP_H_
#define DIFFODE_ODE_LOCKSTEP_H_

#include <functional>
#include <vector>

#include "ode/diff_integrator.h"
#include "tensor/tensor.h"

// Lockstep batched integration: B independent trajectories packed into one
// B x d state matrix, advanced together so the RHS sees B x d operands (the
// GEMM regime where the SIMD backend pays) instead of B separate 1 x d rows.
//
// Equivalence contract. Each row follows its OWN precomputed step timeline —
// the exact (t, h) sequence IntegrateVar would produce for that sequence
// (AppendSegment replays the integrator's stop rule and last-step clamping).
// The engine batches only across rows; it never inserts another row's time
// as a stop point. Per-row stage updates go through the same range functions
// as the per-sequence unroll (ag::detail::AxpyForward / Rk4CombineForward),
// and row packing/unpacking is a pure copy, so a row's trajectory differs
// from its per-sequence run only through the RHS's batched GEMM shapes
// (m = active rows instead of m = 1) — within ~1e-15 relative at B > 1,
// bitwise identical at B = 1 (see tests/batched_equiv_test.cc).
namespace diffode::ode {

// One integration step of a row: advance from local time t by h.
struct RowStep {
  Scalar t;
  Scalar h;
};

// A point in a row's timeline where the caller intervenes: an observation
// jump (mutates the row) or a readout (records it). Fires after the row has
// completed `after_steps` steps, before it takes the next one.
struct RowCheckpoint {
  Index after_steps;
  Index tag;  // caller-defined (e.g. observation or query index)
};

// Precomputed per-row integration timeline.
struct RowPlan {
  std::vector<RowStep> steps;
  std::vector<RowCheckpoint> checkpoints;  // non-decreasing after_steps
};

// Appends the steps IntegrateVar(f, y, t0, t1, {method, step}) would take:
// same t0 == t1 early-out, same 1e-14 stop rule, same last-step clamp, same
// running-t accumulation. Supports both directions (t1 < t0 steps backward).
void AppendSegment(RowPlan* plan, Scalar t0, Scalar t1, Scalar step);

// Appends a checkpoint at the row's current end of timeline.
void AppendCheckpoint(RowPlan* plan, Index tag);

// RHS over the packed active rows. `rows[i]` is the batch row stored at row i
// of `y_active` (a x d); `t[i]` is that row's current stage time. Returns the
// a x d derivative block. Plans and stage times stay f64 for every RHS
// dtype: the timeline replay must be bit-identical across precisions so the
// f32 serving tier reuses the exact f64 step grids.
template <typename T>
using BatchedRhsT = std::function<TensorT<T>(const std::vector<Index>& rows,
                                             const std::vector<Scalar>& t,
                                             const TensorT<T>& y_active)>;
using BatchedRhs = BatchedRhsT<Scalar>;

// One due checkpoint, identified by batch row and the caller's tag.
struct LockstepEvent {
  Index row;
  Index tag;
};

// Handles a wave of due checkpoints. `y` is the full B x d state; the
// handler may overwrite rows (jumps) or just read them (readouts). Within
// one wave each row appears at most once; a row with several checkpoints at
// the same step index receives them in tag order across successive waves.
using LockstepEventFn =
    std::function<void(const std::vector<LockstepEvent>& events, Tensor* y)>;

// Advances every row through its plan. `y` holds one row per plan; rows
// whose plans end early simply stop participating. `on_event` may be empty
// only if no plan has checkpoints. The carried state, the stage combines and
// the step sizes are f64 for every RHS dtype T:
//   - T = double combines stages through the per-sequence integrator's exact
//     range functions (ag::detail::AxpyForward / Rk4CombineForward);
//   - T = float evaluates the RHS on the stage state narrowed once per stage
//     into a reused buffer and widens the f32 derivative inside the f64
//     combines (the f32 serving tier). The per-step accumulate is a rounding
//     injection point that stiff or ill-conditioned dynamics amplify, so it
//     stays wide.
template <typename T>
void LockstepIntegrate(const std::vector<RowPlan>& plans, DiffMethod method,
                       const BatchedRhsT<T>& rhs,
                       const LockstepEventFn& on_event, Tensor* y);

extern template void LockstepIntegrate<Scalar>(const std::vector<RowPlan>&,
                                               DiffMethod, const BatchedRhs&,
                                               const LockstepEventFn&, Tensor*);
extern template void LockstepIntegrate<float>(const std::vector<RowPlan>&,
                                              DiffMethod,
                                              const BatchedRhsT<float>&,
                                              const LockstepEventFn&, Tensor*);

}  // namespace diffode::ode

#endif  // DIFFODE_ODE_LOCKSTEP_H_
