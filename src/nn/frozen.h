#ifndef DIFFODE_NN_FROZEN_H_
#define DIFFODE_NN_FROZEN_H_

#include <memory>
#include <vector>

#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "tensor/kernels.h"

// Frozen serving layers: plain-tensor, dtype-generic mirrors of the
// autograd layers, built from a Module's f64 parameters. Their forwards are
// exactly the value chains of the corresponding Module forwards (same
// kernel calls, same operand order; a multiply and an add never share a
// statement, so no FMA fuses what the autograd ops round twice) with no
// tape and no Var allocations, so at T = double they are bitwise the module
// forwards (tests/nograd_test.cc). The lockstep serving engine runs every
// layer through them at both dtypes (docs/performance.md, "Serving
// precision").
//
// Under Freeze(Precision::kF32) the parameters are rounded through float
// before any layer is built, so the Cast<float> here never rounds twice and
// a save → load → Freeze round-trip rebuilds bit-identical layers.
namespace diffode::nn {

// Affine layer y = x W + b (mirror of nn::Linear::Forward).
template <typename T>
struct FrozenLinear {
  TensorT<T> w;  // in x out
  TensorT<T> b;  // 1 x out

  static FrozenLinear FromModule(const Linear& m) {
    FrozenLinear out;
    out.w = m.weight().value().template Cast<T>();
    out.b = m.bias().value().template Cast<T>();
    return out;
  }

  TensorT<T> Forward(const TensorT<T>& x) const {
    TensorT<T> y = x.MatMul(w);
    const Index cols = y.cols();
    for (Index i = 0; i < y.rows(); ++i) {
      T* row = y.data() + i * cols;
      for (Index j = 0; j < cols; ++j) row[j] += b.data()[j];
    }
    return y;
  }
};

// MLP mirror of nn::Mlp::Forward: activation between layers, none after the
// last. Only the activations the serving models use are implemented.
template <typename T>
struct FrozenMlp {
  std::vector<FrozenLinear<T>> layers;
  Activation activation = Activation::kTanh;

  static FrozenMlp FromModule(const Mlp& m) {
    FrozenMlp out;
    out.activation = m.activation();
    out.layers.reserve(m.layers().size());
    for (const auto& l : m.layers())
      out.layers.push_back(FrozenLinear<T>::FromModule(*l));
    return out;
  }

  TensorT<T> Forward(const TensorT<T>& x) const {
    TensorT<T> h = layers.front().Forward(x);
    for (std::size_t i = 1; i < layers.size(); ++i) {
      switch (activation) {
        case Activation::kTanh:
          kernels::MapTanh(h.numel(), h.data(), h.data());
          break;
        case Activation::kSigmoid:
          kernels::MapSigmoid(h.numel(), h.data(), h.data());
          break;
        case Activation::kRelu:
          for (Index j = 0; j < h.numel(); ++j)
            h.data()[j] = h.data()[j] > T(0) ? h.data()[j] : T(0);
          break;
        case Activation::kNone:
          break;
      }
      h = layers[i].Forward(h);
    }
    return h;
  }
};

// GRU cell mirror of nn::GruCell::Forward: x: (b x input), h: (b x hidden).
template <typename T>
struct FrozenGru {
  FrozenLinear<T> x_gates;  // input -> [r | u | c] pre-activations
  FrozenLinear<T> h_gates;  // hidden -> [r | u | c]

  static FrozenGru FromModule(const GruCell& m) {
    return {FrozenLinear<T>::FromModule(m.x_gates()),
            FrozenLinear<T>::FromModule(m.h_gates())};
  }

  TensorT<T> Forward(const TensorT<T>& x, const TensorT<T>& h) const {
    const TensorT<T> xg = x_gates.Forward(x);
    const TensorT<T> hg = h_gates.Forward(h);
    const Index hs = h.cols();
    const Index n = h.numel();
    TensorT<T> r = TensorT<T>::Uninit(h.shape());
    TensorT<T> u = TensorT<T>::Uninit(h.shape());
    TensorT<T> c = TensorT<T>::Uninit(h.shape());
    for (Index i = 0; i < h.rows(); ++i) {
      const T* xr = xg.data() + i * 3 * hs;
      const T* hr = hg.data() + i * 3 * hs;
      T* ri = r.data() + i * hs;
      T* ui = u.data() + i * hs;
      for (Index j = 0; j < hs; ++j) ri[j] = xr[j] + hr[j];
      for (Index j = 0; j < hs; ++j) ui[j] = xr[hs + j] + hr[hs + j];
    }
    kernels::MapSigmoid(n, r.data(), r.data());
    kernels::MapSigmoid(n, u.data(), u.data());
    // c = tanh(xg_c + r * hg_c)
    for (Index i = 0; i < h.rows(); ++i) {
      const T* xc = xg.data() + i * 3 * hs + 2 * hs;
      const T* hc = hg.data() + i * 3 * hs + 2 * hs;
      const T* ri = r.data() + i * hs;
      T* ci = c.data() + i * hs;
      for (Index j = 0; j < hs; ++j) {
        const T rh = ri[j] * hc[j];
        ci[j] = xc[j] + rh;
      }
    }
    kernels::MapTanh(n, c.data(), c.data());
    // h' = c + u * (h - c), written over r
    for (Index k = 0; k < n; ++k) {
      T t = h.data()[k] - c.data()[k];
      t = u.data()[k] * t;
      r.data()[k] = c.data()[k] + t;
    }
    return r;
  }
};

}  // namespace diffode::nn

#endif  // DIFFODE_NN_FROZEN_H_
