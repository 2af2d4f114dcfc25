#ifndef DIFFODE_NN_MODULE_H_
#define DIFFODE_NN_MODULE_H_

#include <vector>

#include "autograd/variable.h"

namespace diffode::nn {

// Base class for anything with trainable parameters. Parameters are autograd
// Vars with requires_grad set; handles are shared, so collecting them copies
// cheap shared_ptr handles into the optimizer.
class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  Module(Module&&) = default;
  Module& operator=(Module&&) = default;

  // Appends this module's parameters (including submodules') to out.
  virtual void CollectParams(std::vector<ag::Var>* out) const = 0;

  std::vector<ag::Var> Params() const {
    std::vector<ag::Var> out;
    CollectParams(&out);
    return out;
  }

  Index NumParams() const {
    Index n = 0;
    for (const auto& p : Params()) n += p.value().numel();
    return n;
  }

  // Marks every parameter as non-trainable and drops any gradient buffers.
  // A frozen module's forward builds no backward closures even in grad mode
  // (nothing requires grad), which is the right shape for a model loaded
  // from a checkpoint to serve predictions. Irreversible by design: thaw by
  // rebuilding the model.
  //
  // `precision` selects the serving compute precision. Freeze(kF32) rounds
  // every parameter through float IN PLACE: the f64 master copies become
  // exactly f32-representable, so (a) any f32 layer a model builds from
  // them casts without further rounding, and (b) serialization keeps
  // storing plain f64 on disk while a save → load → Freeze(kF32) round-trip
  // serves bit-identical outputs (tests/serialize_roundtrip_test.cc).
  void Freeze(Precision precision = Precision::kF64) {
    for (auto& p : Params()) {
      const auto& node = p.node();
      if (!node) continue;
      node->requires_grad = false;
      node->grad = Tensor();
      if (precision == Precision::kF32) {
        Tensor& v = node->value;
        for (Index i = 0; i < v.numel(); ++i)
          v.data()[i] = static_cast<Scalar>(static_cast<float>(v.data()[i]));
      }
    }
    serving_precision_ = precision;
  }

  // The precision the last Freeze() selected; kF64 for unfrozen modules.
  Precision serving_precision() const { return serving_precision_; }

 private:
  Precision serving_precision_ = Precision::kF64;
};

}  // namespace diffode::nn

#endif  // DIFFODE_NN_MODULE_H_
