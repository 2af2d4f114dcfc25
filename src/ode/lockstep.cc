#include "ode/lockstep.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "autograd/ops.h"
#include "tensor/kernels.h"

namespace diffode::ode {
namespace {

// out = y + k * h for one row. An f64 derivative goes through the
// per-sequence integrator's exact range function, which keeps the lockstep
// path bitwise identical to the unrolled solver; an f32 derivative is
// widened inside the same f64 expression.
inline void AxpyRow(Index d, const Scalar* y, const Scalar* k, Scalar h,
                    Scalar* out) {
  ag::detail::AxpyForward(d, y, k, h, out);
}
inline void AxpyRow(Index d, const Scalar* y, const float* k, Scalar h,
                    Scalar* out) {
  for (Index j = 0; j < d; ++j) out[j] = y[j] + static_cast<Scalar>(k[j]) * h;
}

// RK4 combination out = y + h/6 (k1 + 2 k2 + 2 k3 + k4), split by derivative
// dtype as AxpyRow is.
inline void Rk4Row(Index d, const Scalar* y, const Scalar* k1, const Scalar* k2,
                   const Scalar* k3, const Scalar* k4, Scalar h, Scalar* out) {
  ag::detail::Rk4CombineForward(d, y, k1, k2, k3, k4, h, out);
}
inline void Rk4Row(Index d, const Scalar* y, const float* k1, const float* k2,
                   const float* k3, const float* k4, Scalar h, Scalar* out) {
  const Scalar h6 = h / 6.0;
  for (Index j = 0; j < d; ++j)
    out[j] = y[j] + h6 * ((static_cast<Scalar>(k1[j]) +
                           2.0 * static_cast<Scalar>(k2[j])) +
                          (2.0 * static_cast<Scalar>(k3[j]) +
                           static_cast<Scalar>(k4[j])));
}

}  // namespace

void AppendSegment(RowPlan* plan, Scalar t0, Scalar t1, Scalar step) {
  if (t0 == t1) return;
  const Scalar direction = t1 >= t0 ? 1.0 : -1.0;
  const Scalar h_mag = std::fabs(step);
  DIFFODE_CHECK_GT(h_mag, 0.0);
  Scalar t = t0;
  while (direction * (t1 - t) > 1e-14) {
    const Scalar h = direction * std::min(h_mag, std::fabs(t1 - t));
    plan->steps.push_back(RowStep{t, h});
    t += h;
  }
}

void AppendCheckpoint(RowPlan* plan, Index tag) {
  plan->checkpoints.push_back(
      RowCheckpoint{static_cast<Index>(plan->steps.size()), tag});
}

template <typename T>
void LockstepIntegrate(const std::vector<RowPlan>& plans, DiffMethod method,
                       const BatchedRhsT<T>& rhs,
                       const LockstepEventFn& on_event, Tensor* y) {
  const Index b = static_cast<Index>(plans.size());
  DIFFODE_CHECK_EQ(y->rows(), b);
  const Index d = y->cols();
  std::vector<Index> steps_done(static_cast<std::size_t>(b), 0);
  std::vector<std::size_t> next_cp(static_cast<std::size_t>(b), 0);

  std::vector<LockstepEvent> events;
  std::vector<Index> active;
  std::vector<Scalar> t0, h, tt;
  Index a = 0;
  Tensor packed, stage;
  TensorT<T> narrow, k1, k2, k3, k4;

  // The RHS on an f64 stage state: passed straight through at T = double,
  // narrowed into the reused `narrow` buffer otherwise.
  const auto eval = [&](const std::vector<Scalar>& t,
                        const Tensor& s) -> TensorT<T> {
    if constexpr (std::is_same_v<T, Scalar>) {
      return rhs(active, t, s);
    } else {
      if (narrow.numel() != s.numel()) narrow = TensorT<T>::Uninit(s.shape());
      for (Index i = 0; i < s.numel(); ++i)
        narrow.data()[i] = static_cast<T>(s.data()[i]);
      return rhs(active, t, narrow);
    }
  };
  // out[i] = packed[i] + k[i] * (factor * h_row), accumulated in f64.
  const auto axpy_rows = [&](const TensorT<T>& k, Scalar factor, Tensor* out) {
    for (Index i = 0; i < a; ++i)
      AxpyRow(d, packed.data() + i * d, k.data() + i * d,
              factor * h[static_cast<std::size_t>(i)], out->data() + i * d);
  };
  // Stage times t0 + factor * h per row, as the per-sequence steppers form
  // them.
  const auto stage_times = [&](Scalar factor) {
    tt.resize(static_cast<std::size_t>(a));
    for (Index i = 0; i < a; ++i)
      tt[static_cast<std::size_t>(i)] = t0[static_cast<std::size_t>(i)] +
                                        factor * h[static_cast<std::size_t>(i)];
  };

  for (;;) {
    // Fire due checkpoints first — one per row per wave, so several
    // checkpoints at the same step index apply in tag order (matching the
    // per-sequence interleave of jumps and readouts at coincident times).
    for (;;) {
      events.clear();
      for (Index r = 0; r < b; ++r) {
        const auto& cps = plans[static_cast<std::size_t>(r)].checkpoints;
        std::size_t& cp = next_cp[static_cast<std::size_t>(r)];
        if (cp < cps.size() &&
            cps[cp].after_steps == steps_done[static_cast<std::size_t>(r)]) {
          events.push_back(LockstepEvent{r, cps[cp].tag});
          ++cp;
        }
      }
      if (events.empty()) break;
      on_event(events, y);
    }

    // Pack the rows that still have steps to take.
    active.clear();
    t0.clear();
    h.clear();
    for (Index r = 0; r < b; ++r) {
      const auto& steps = plans[static_cast<std::size_t>(r)].steps;
      const Index done = steps_done[static_cast<std::size_t>(r)];
      if (done < static_cast<Index>(steps.size())) {
        active.push_back(r);
        t0.push_back(steps[static_cast<std::size_t>(done)].t);
        h.push_back(steps[static_cast<std::size_t>(done)].h);
      }
    }
    if (active.empty()) return;
    a = static_cast<Index>(active.size());
    packed = Tensor::Uninit(Shape{a, d});
    kernels::SelectRows(a, d, active.data(), y->data(), packed.data());

    // One step per active row, same stage structure and stage-time
    // expressions as the per-sequence EulerStep/MidpointStep/Rk4Step.
    switch (method) {
      case DiffMethod::kEuler: {
        k1 = eval(t0, packed);
        axpy_rows(k1, 1.0, &packed);
        break;
      }
      case DiffMethod::kMidpoint: {
        k1 = eval(t0, packed);
        stage = Tensor::Uninit(Shape{a, d});
        axpy_rows(k1, 0.5, &stage);
        stage_times(0.5);
        k2 = eval(tt, stage);
        axpy_rows(k2, 1.0, &packed);
        break;
      }
      case DiffMethod::kRk4: {
        k1 = eval(t0, packed);
        stage = Tensor::Uninit(Shape{a, d});
        axpy_rows(k1, 0.5, &stage);
        stage_times(0.5);
        k2 = eval(tt, stage);
        axpy_rows(k2, 0.5, &stage);
        k3 = eval(tt, stage);
        axpy_rows(k3, 1.0, &stage);
        stage_times(1.0);
        k4 = eval(tt, stage);
        for (Index i = 0; i < a; ++i)
          Rk4Row(d, packed.data() + i * d, k1.data() + i * d,
                 k2.data() + i * d, k3.data() + i * d, k4.data() + i * d,
                 h[static_cast<std::size_t>(i)], packed.data() + i * d);
        break;
      }
    }
    kernels::ScatterRows(a, d, active.data(), packed.data(), y->data());
    for (Index r : active) ++steps_done[static_cast<std::size_t>(r)];
  }
}

template void LockstepIntegrate<Scalar>(const std::vector<RowPlan>&,
                                        DiffMethod, const BatchedRhs&,
                                        const LockstepEventFn&, Tensor*);
template void LockstepIntegrate<float>(const std::vector<RowPlan>&, DiffMethod,
                                       const BatchedRhsT<float>&,
                                       const LockstepEventFn&, Tensor*);

}  // namespace diffode::ode
