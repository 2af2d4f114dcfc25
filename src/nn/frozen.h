#ifndef DIFFODE_NN_FROZEN_H_
#define DIFFODE_NN_FROZEN_H_

#include <memory>
#include <vector>

#include "nn/linear.h"
#include "nn/mlp.h"
#include "tensor/kernels.h"

// Frozen serving snapshots: plain-tensor, dtype-generic mirrors of the
// autograd layers, built once from a frozen Module's f64 parameters. Their
// forwards are exactly the value chains of the corresponding Module
// forwards (same kernel calls, same operand order) with no tape, no Var
// allocations, and the element type chosen at snapshot time — the compute
// layer behind Freeze(Precision::kF32) serving (docs/performance.md,
// "Serving precision").
//
// Snapshots are taken AFTER Module::Freeze has rounded the parameters to
// the target precision, so the Cast here never rounds twice and a
// save → load → Freeze round-trip rebuilds bit-identical snapshots.
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
            if (h.data()[j] < T(0)) h.data()[j] = T(0);
          break;
        case Activation::kNone:
          break;
      }
      h = layers[i].Forward(h);
    }
    return h;
  }
};

}  // namespace diffode::nn

#endif  // DIFFODE_NN_FROZEN_H_
