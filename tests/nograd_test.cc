// Grad-mode contract: a forward pass under ag::NoGradScope builds no tape —
// no nodes, no parent edges, no backward closures — and produces values that
// are bitwise identical to the grad-on forward, at any thread count and on
// both kernel backends.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "baselines/zoo.h"
#include "core/alloc_stats.h"
#include "core/diffode_model.h"
#include "core/parallel.h"
#include "data/generators.h"
#include "nn/frozen.h"
#include "tensor/buffer_pool.h"
#include "tensor/random.h"
#include "tensor/simd.h"

namespace diffode {
namespace {

using core::AllocStats;

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

core::DiffOdeConfig TinyConfig() {
  core::DiffOdeConfig config;
  config.input_dim = 1;
  config.latent_dim = 8;
  config.hippo_dim = 6;
  config.info_dim = 6;
  config.mlp_hidden = 12;
  config.num_classes = 2;
  config.step = 0.5;
  // Exercise both aux-loss gates: the consistency anchors (default on) and
  // the optional Hoyer regularizer.
  config.hoyer_weight = 0.05;
  return config;
}

data::IrregularSeries TinySeries(std::uint64_t seed) {
  Rng rng(seed);
  data::IrregularSeries s;
  const Index n = 10;
  s.values = Tensor(Shape{n, 1});
  s.mask = Tensor::Ones(Shape{n, 1});
  Scalar t = 0.0;
  for (Index i = 0; i < n; ++i) {
    t += rng.Uniform(0.2, 1.0);
    s.times.push_back(t);
    s.values.at(i, 0) = std::sin(t) + rng.Normal(0.0, 0.05);
  }
  s.label = 1;
  return s;
}

TEST(GradModeTest, DefaultsOnAndScopesNestAndRestore) {
  EXPECT_TRUE(ag::GradMode::IsEnabled());
  {
    ag::NoGradScope outer;
    EXPECT_FALSE(ag::GradMode::IsEnabled());
    {
      ag::NoGradScope inner;
      EXPECT_FALSE(ag::GradMode::IsEnabled());
    }
    // Inner exit must restore the outer (still disabled) mode.
    EXPECT_FALSE(ag::GradMode::IsEnabled());
  }
  EXPECT_TRUE(ag::GradMode::IsEnabled());
}

TEST(GradModeTest, GradModeIsThreadLocal) {
  ag::NoGradScope no_grad;
  ASSERT_FALSE(ag::GradMode::IsEnabled());
  // The scope on the submitting thread must not leak into pool workers
  // (they keep their own default-enabled mode). The caller participates in
  // Run, so only shards that landed on *other* threads are asserted.
  const std::thread::id self = std::this_thread::get_id();
  constexpr Index kShards = 16;
  std::vector<unsigned char> enabled(kShards, 0);
  std::vector<std::thread::id> ran_on(kShards);
  ThreadCountGuard tg(4);
  parallel::ThreadPool::Get().Run(kShards, [&](Index i) {
    enabled[static_cast<std::size_t>(i)] = ag::GradMode::IsEnabled() ? 1 : 0;
    ran_on[static_cast<std::size_t>(i)] = std::this_thread::get_id();
  });
  for (Index i = 0; i < kShards; ++i) {
    if (ran_on[static_cast<std::size_t>(i)] == self) {
      EXPECT_EQ(enabled[static_cast<std::size_t>(i)], 0) << "shard " << i;
    } else {
      EXPECT_EQ(enabled[static_cast<std::size_t>(i)], 1) << "shard " << i;
    }
  }
}

TEST(GradModeTest, ConstantIsValueOnlyUnderNoGrad) {
  ag::NoGradScope no_grad;
  const AllocStats::Snapshot before = AllocStats::Read();
  ag::Var c = ag::Constant(Tensor::Ones(Shape{2, 3}));
  const AllocStats::Snapshot d = AllocStats::Delta(before, AllocStats::Read());
  EXPECT_TRUE(c.defined());
  EXPECT_EQ(c.node(), nullptr);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 3);
  EXPECT_EQ(d.value_only_vars, 1u);
  EXPECT_EQ(d.arena_nodes, 0u);
  EXPECT_EQ(d.heap_nodes, 0u);
}

TEST(GradModeTest, ParamsKeepTheirNodeUnderNoGrad) {
  // A model constructed (or a checkpoint loaded) inside a NoGradScope must
  // still produce real parameter nodes — only non-trainable wraps go
  // value-only.
  ag::NoGradScope no_grad;
  ag::Var p = ag::Param(Tensor::Ones(Shape{2, 2}));
  ASSERT_NE(p.node(), nullptr);
  EXPECT_TRUE(p.requires_grad());
}

TEST(GradModeTest, OpsShortCircuitToValueOnlyResults) {
  ag::Var p = ag::Param(Tensor::Full(Shape{1, 4}, 2.0));
  ag::NoGradScope no_grad;
  ag::Var y = ag::MulScalar(ag::Tanh(p), 3.0);
  EXPECT_TRUE(y.defined());
  EXPECT_EQ(y.node(), nullptr);  // no tape even with a param input
  EXPECT_NEAR(y.value().at(0, 0), 3.0 * std::tanh(2.0), 1e-12);
}

TEST(GradModeTest, DetachBlocksGradientFlow) {
  ag::Var p = ag::Param(Tensor::Full(Shape{1, 3}, 1.5));
  ag::Var d = ag::Mul(p, p).Detach();
  EXPECT_EQ(d.node(), nullptr);
  EXPECT_NEAR(d.value().at(0, 0), 2.25, 1e-12);
  // Using the detached value in a grad-mode graph wraps it as a constant
  // leaf: the loss differentiates w.r.t. q but nothing reaches p.
  ag::Var q = ag::Param(Tensor::Ones(Shape{1, 3}));
  ag::Var loss = ag::Sum(ag::Mul(d, q));
  loss.Backward();
  EXPECT_NEAR(q.grad().at(0, 0), 2.25, 1e-12);
  for (Index i = 0; i < 3; ++i) EXPECT_EQ(p.grad().at(0, i), 0.0);
}

TEST(NoGradTest, ForwardAllocatesZeroTapeNodes) {
  core::DiffOde model(TinyConfig());
  data::IrregularSeries s = TinySeries(7);
  // Warm pass so lazy one-time setup doesn't count.
  {
    ag::NoGradScope no_grad;
    (void)model.ClassifyLogits(s);
    (void)model.TakeAuxiliaryLoss();
  }
  ag::TapeArena::Scope arena_scope;
  tensor::BufferPool::Scope pool_scope;
  ag::NoGradScope no_grad;
  const AllocStats::Snapshot before = AllocStats::Read();
  ag::Var logits = model.ClassifyLogits(s);
  (void)model.TakeAuxiliaryLoss();
  const AllocStats::Snapshot d = AllocStats::Delta(before, AllocStats::Read());
  EXPECT_TRUE(logits.defined());
  EXPECT_EQ(d.arena_nodes, 0u);  // the whole forward is node-free
  EXPECT_EQ(d.heap_nodes, 0u);
  EXPECT_GT(d.value_only_vars, 0u);
}

TEST(NoGradTest, NoAuxiliaryLossUnderNoGrad) {
  core::DiffOde model(TinyConfig());
  data::IrregularSeries s = TinySeries(8);
  {
    // Grad-on forward: the consistency term (weight 0.1 by default) and the
    // Hoyer term land in the aux slot.
    (void)model.ClassifyLogits(s);
    ag::Var aux = model.TakeAuxiliaryLoss();
    EXPECT_TRUE(aux.defined());
  }
  {
    ag::NoGradScope no_grad;
    (void)model.ClassifyLogits(s);
    ag::Var aux = model.TakeAuxiliaryLoss();
    EXPECT_FALSE(aux.defined());  // training-only terms are skipped
  }
}

// The tentpole equivalence: eval outputs are bitwise identical with the tape
// on or off, for every (threads, ISA) combination the build supports.
TEST(NoGradTest, DiffOdeForwardBitwiseMatchesGradOn) {
  core::DiffOde model(TinyConfig());
  data::IrregularSeries s = TinySeries(11);
  const std::vector<Scalar> queries = {s.times[2] + 0.05,
                                       s.times.back() + 0.7};
  for (simd::Isa isa : SupportedIsas()) {
    IsaGuard ig(isa);
    for (int threads : {1, 4}) {
      ThreadCountGuard tg(threads);
      (void)model.TakeAuxiliaryLoss();
      Tensor logits_grad = model.ClassifyLogits(s).value();
      (void)model.TakeAuxiliaryLoss();
      std::vector<Tensor> preds_grad;
      for (auto& v : model.PredictAt(s, queries))
        preds_grad.push_back(v.value());
      (void)model.TakeAuxiliaryLoss();

      ag::NoGradScope no_grad;
      Tensor logits_ng = model.ClassifyLogits(s).value();
      (void)model.TakeAuxiliaryLoss();
      ExpectBitwiseEqual(logits_ng, logits_grad, simd::IsaName(isa));
      std::vector<ag::Var> preds_ng = model.PredictAt(s, queries);
      (void)model.TakeAuxiliaryLoss();
      ASSERT_EQ(preds_ng.size(), preds_grad.size());
      for (std::size_t k = 0; k < preds_ng.size(); ++k)
        ExpectBitwiseEqual(preds_ng[k].value(), preds_grad[k],
                           simd::IsaName(isa));
    }
  }
}

// The frozen serving layers (nn/frozen.h) replay the module forwards op for
// op, so at f64 each is bitwise its module's no-grad forward, at every
// kernel ISA and at the GEMM row counts the lockstep engine uses.
TEST(NoGradTest, FrozenLayersBitwiseMatchModules) {
  Rng rng(17);
  const Index in = 7;
  const Index hidden = 6;
  nn::Linear linear(in, 5, rng);
  nn::GruCell gru(in, hidden, rng);
  std::vector<std::unique_ptr<nn::Mlp>> mlps;
  for (nn::Activation act : {nn::Activation::kTanh, nn::Activation::kSigmoid,
                             nn::Activation::kRelu})
    mlps.push_back(
        std::make_unique<nn::Mlp>(std::vector<Index>{in, 9, 4}, rng, act));
  // Biases start at zero; give every parameter a random value so the bias
  // adds are exercised.
  std::vector<ag::Var> params = linear.Params();
  gru.CollectParams(&params);
  for (const auto& m : mlps) m->CollectParams(&params);
  for (ag::Var& p : params)
    p.node()->value = rng.NormalTensor(p.value().shape(), 0.0, 0.7);
  const auto frozen_linear = nn::FrozenLinear<Scalar>::FromModule(linear);
  const auto frozen_gru = nn::FrozenGru<Scalar>::FromModule(gru);
  std::vector<nn::FrozenMlp<Scalar>> frozen_mlps;
  for (const auto& m : mlps)
    frozen_mlps.push_back(nn::FrozenMlp<Scalar>::FromModule(*m));

  ag::NoGradScope no_grad;
  for (simd::Isa isa : SupportedIsas()) {
    IsaGuard ig(isa);
    for (Index m : {1, 3, 8}) {
      const Tensor x = rng.NormalTensor(Shape{m, in});
      const Tensor h = rng.UniformTensor(Shape{m, hidden}, -1.0, 1.0);
      ExpectBitwiseEqual(frozen_linear.Forward(x),
                         linear.Forward(ag::Constant(x)).value(), "Linear");
      ExpectBitwiseEqual(
          frozen_gru.Forward(x, h),
          gru.Forward(ag::Constant(x), ag::Constant(h)).value(), "GruCell");
      for (std::size_t k = 0; k < mlps.size(); ++k)
        ExpectBitwiseEqual(frozen_mlps[k].Forward(x),
                           mlps[k]->Forward(ag::Constant(x)).value(), "Mlp");
    }
  }
}

// Same equivalence across representative baselines (recurrent, decayed,
// ODE-solver based) so the whole zoo is known to be mode-agnostic.
TEST(NoGradTest, BaselineForwardBitwiseMatchesGradOn) {
  data::IrregularSeries s = TinySeries(13);
  const std::vector<Scalar> queries = {s.times[4] + 0.1};
  for (const char* name : {"GRU-D", "ODE-RNN", "Latent ODE"}) {
    baselines::BaselineConfig config;
    config.input_dim = 1;
    config.hidden_dim = 8;
    config.hippo_dim = 6;
    config.step = 0.5;
    auto model = baselines::MakeBaseline(name, config);
    ASSERT_NE(model, nullptr) << name;
    Tensor logits_grad = model->ClassifyLogits(s).value();
    Tensor pred_grad = model->PredictAt(s, queries)[0].value();
    ag::NoGradScope no_grad;
    ExpectBitwiseEqual(model->ClassifyLogits(s).value(), logits_grad, name);
    ExpectBitwiseEqual(model->PredictAt(s, queries)[0].value(), pred_grad,
                       name);
  }
}

}  // namespace
}  // namespace diffode
