#include "core/alloc_stats.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "autograd/arena.h"
#include "autograd/ops.h"
#include "core/diffode_model.h"
#include "core/parallel.h"
#include "data/generators.h"
#include "data/sequence_batch.h"
#include "tensor/buffer_pool.h"
#include "train/trainer.h"

namespace diffode {
namespace {

using core::AllocStats;
using tensor::BufferPool;

TEST(BufferPoolTest, BucketRounding) {
  EXPECT_EQ(BufferPool::BucketBytes(1), 64u);
  EXPECT_EQ(BufferPool::BucketBytes(64), 64u);
  EXPECT_EQ(BufferPool::BucketBytes(65), 128u);
  EXPECT_EQ(BufferPool::BucketBytes(1000), 1024u);
  EXPECT_EQ(BufferPool::BucketBytes(1 << 20), std::size_t{1} << 20);
}

TEST(BufferPoolTest, RecyclesWithinScope) {
  BufferPool::Scope scope;
  void* a = BufferPool::Allocate(256);
  BufferPool::Deallocate(a, 256);
  const AllocStats::Snapshot before = AllocStats::Read();
  void* b = BufferPool::Allocate(256);
  const AllocStats::Snapshot d =
      AllocStats::Delta(before, AllocStats::Read());
  EXPECT_EQ(b, a);  // served straight from the thread cache
  EXPECT_EQ(d.pool_hits, 1u);
  EXPECT_EQ(d.pool_misses, 0u);
  BufferPool::Deallocate(b, 256);
}

TEST(BufferPoolTest, ScopesAreReentrant) {
  EXPECT_FALSE(BufferPool::ScopeActive());
  {
    BufferPool::Scope outer;
    EXPECT_TRUE(BufferPool::ScopeActive());
    void* a = BufferPool::Allocate(128);
    {
      BufferPool::Scope inner;
      EXPECT_TRUE(BufferPool::ScopeActive());
      BufferPool::Deallocate(a, 128);
    }
    // The inner scope must not have flushed the cache: the block is still
    // available for recycling on this thread.
    const AllocStats::Snapshot before = AllocStats::Read();
    void* b = BufferPool::Allocate(128);
    EXPECT_EQ(AllocStats::Delta(before, AllocStats::Read()).pool_hits, 1u);
    BufferPool::Deallocate(b, 128);
  }
  EXPECT_FALSE(BufferPool::ScopeActive());
}

TEST(BufferPoolTest, OutsideScopeBypassesToHeap) {
  ASSERT_FALSE(BufferPool::ScopeActive());
  const AllocStats::Snapshot before = AllocStats::Read();
  void* p = BufferPool::Allocate(512);
  const AllocStats::Snapshot d =
      AllocStats::Delta(before, AllocStats::Read());
  EXPECT_GE(d.pool_bypass, 1u);
  EXPECT_EQ(d.pool_hits, 0u);
  BufferPool::Deallocate(p, 512);
}

TEST(TapeArenaTest, BumpAllocatesAndResetsWarm) {
  ag::TapeArena::Scope scope;
  ag::TapeArena* arena = ag::TapeArena::Active();
  ASSERT_NE(arena, nullptr);
  void* a = arena->Allocate(100, 16);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 16, 0u);
  void* b = arena->Allocate(100, 16);
  EXPECT_NE(a, b);
  EXPECT_GE(arena->BytesInUse(), 200u);
  arena->Reset();
  EXPECT_EQ(arena->BytesInUse(), 0u);
  // Blocks are retained: a warm arena hands back the same storage.
  EXPECT_EQ(arena->Allocate(100, 16), a);
  arena->Reset();
}

TEST(TapeArenaTest, DisabledMeansNoActiveArena) {
  ag::TapeArena::SetEnabled(false);
  {
    ag::TapeArena::Scope scope;
    EXPECT_EQ(ag::TapeArena::Active(), nullptr);
  }
  ag::TapeArena::SetEnabled(true);
  {
    ag::TapeArena::Scope scope;
    EXPECT_NE(ag::TapeArena::Active(), nullptr);
  }
}

TEST(VarGradTest, ZeroGradReusesTheGradBuffer) {
  ag::Var p = ag::Param(Tensor::Ones(Shape{3, 4}));
  ag::Var loss = ag::Sum(ag::Mul(p, p));
  loss.Backward();
  ASSERT_GT(p.grad().numel(), 0);
  const Scalar* buf = p.grad().values().data();
  p.ZeroGrad();
  EXPECT_EQ(p.grad().values().data(), buf);  // cleared in place
  for (Index i = 0; i < p.grad().numel(); ++i)
    EXPECT_EQ(p.grad().values()[static_cast<std::size_t>(i)], 0.0);
}

// One pass over a 3000-op Tanh chain from `p` under the calling thread's
// arena and pool: forward, Backward, drop the tape, reset the arena.
// Returns the pass's allocation counts.
AllocStats::Snapshot RunTanhChain(ag::Var& p) {
  ag::TapeArena::Scope tape;
  BufferPool::Scope pool;
  p.ZeroGrad();
  const AllocStats::Snapshot before = AllocStats::Read();
  {
    ag::Var h = p;
    for (int i = 0; i < 3000; ++i) h = ag::Tanh(h);
    ag::Sum(h).Backward();
  }
  const AllocStats::Snapshot d = AllocStats::Delta(before, AllocStats::Read());
  if (ag::TapeArena* arena = ag::TapeArena::Active()) arena->Reset();
  return d;
}

// Backward releases each interior gradient once it has been propagated, so
// a deep tape's live tensors stay within one thread's cache: once warm, a
// pass never refills from the shared depot.
TEST(AllocStatsTest, WarmBackwardStaysOffTheDepot) {
  const int prev_threads = parallel::ThreadPool::Get().num_threads();
  parallel::ThreadPool::SetNumThreads(1);
  ag::Var p = ag::Param(Tensor::Full(Shape{1, 16}, 0.5));
  RunTanhChain(p);
  RunTanhChain(p);
  const AllocStats::Snapshot d = RunTanhChain(p);
  EXPECT_EQ(d.depot_hits, 0u);
  EXPECT_EQ(d.pool_misses, 0u);
  EXPECT_GT(d.pool_hits, 0u);

  BufferPool::SetEnabled(false);
  ag::Var q = ag::Param(Tensor::Full(Shape{1, 16}, 0.5));
  RunTanhChain(q);
  BufferPool::SetEnabled(true);
  for (Index i = 0; i < 16; ++i) EXPECT_EQ(p.grad()[i], q.grad()[i]) << i;
  parallel::ThreadPool::SetNumThreads(prev_threads);
}

core::DiffOdeConfig TinyConfig() {
  core::DiffOdeConfig config;
  config.input_dim = 1;
  config.latent_dim = 8;
  config.hippo_dim = 6;
  config.info_dim = 6;
  config.mlp_hidden = 12;
  config.num_classes = 2;
  config.step = 1.0;
  return config;
}

data::Dataset TinyDataset() {
  data::SyntheticPeriodicConfig dconfig;
  dconfig.num_series = 12;
  dconfig.grid_points = 8;
  return data::MakeSyntheticPeriodic(dconfig);
}

train::TrainOptions TinyOptions(Index epochs) {
  train::TrainOptions options;
  options.epochs = epochs;
  options.batch_size = 16;  // >= train split: one batch per epoch
  options.lr = 1e-3;
  options.patience = 100;
  return options;
}

// The steady-state contract of the PR: once the pool and arena are warm,
// a training step allocates nothing from the heap for its intermediates.
TEST(AllocStatsTest, SteadyStateTrainingHasZeroPoolMisses) {
  const int prev_threads = parallel::ThreadPool::Get().num_threads();
  parallel::ThreadPool::SetNumThreads(1);
  data::Dataset ds = TinyDataset();
  core::DiffOde model(TinyConfig());
  // Warm-up: first epochs populate the depot and the arena blocks.
  (void)train::TrainClassifier(&model, ds, TinyOptions(2));
  const AllocStats::Snapshot before = AllocStats::Read();
  (void)train::TrainClassifier(&model, ds, TinyOptions(1));
  const AllocStats::Snapshot d =
      AllocStats::Delta(before, AllocStats::Read());
  EXPECT_EQ(d.pool_misses, 0u);
  EXPECT_GT(d.pool_hits + d.depot_hits, 0u);  // the pool actually served
  EXPECT_GT(d.arena_nodes, 0u);               // tapes came from the arena
  parallel::ThreadPool::SetNumThreads(prev_threads);
}

// Serving allocates per call, not per RK stage: the lockstep engine runs
// every per-stage and readout tensor inside one buffer-pool scope, so once
// the thread's pool is warm, a frozen model's batched forward takes the
// heap as often at step 0.5 as at step 0.125 (four times the waves). A
// tensor that escapes the scope, or a per-stage allocation outside it, makes
// the count grow with the step count.
TEST(AllocStatsTest, ServingHeapAllocationsDoNotScaleWithSteps) {
  const int prev_threads = parallel::ThreadPool::Get().num_threads();
  parallel::ThreadPool::SetNumThreads(1);
  const data::Dataset ds = TinyDataset();
  std::vector<const data::IrregularSeries*> ptrs;
  for (const auto* split : {&ds.train, &ds.val, &ds.test})
    for (const auto& s : *split)
      if (ptrs.size() < 8) ptrs.push_back(&s);
  ASSERT_EQ(ptrs.size(), 8u);
  const data::SequenceBatch batch = data::MakeSequenceBatch(ptrs);
  for (Precision precision : {Precision::kF64, Precision::kF32}) {
    std::uint64_t heap[2];
    std::uint64_t pooled[2];
    for (int i = 0; i < 2; ++i) {
      core::DiffOdeConfig config = TinyConfig();
      config.step = i == 0 ? 0.5 : 0.125;
      core::DiffOde model(config);
      model.Freeze(precision);
      for (int warm = 0; warm < 2; ++warm)
        (void)model.ClassifyLogitsBatched(batch);
      const AllocStats::Snapshot before = AllocStats::Read();
      (void)model.ClassifyLogitsBatched(batch);
      const AllocStats::Snapshot d =
          AllocStats::Delta(before, AllocStats::Read());
      heap[i] = d.pool_bypass + d.pool_misses;
      pooled[i] = d.pool_hits + d.depot_hits;
    }
    EXPECT_EQ(heap[0], heap[1]) << PrecisionName(precision);
    EXPECT_GT(pooled[1], pooled[0]) << PrecisionName(precision);
  }
  parallel::ThreadPool::SetNumThreads(prev_threads);
}

struct TrainOutcome {
  std::vector<Scalar> losses;
  std::vector<Tensor> params;
};

TrainOutcome RunTinyTraining(bool fast_alloc, int threads) {
  parallel::ThreadPool::SetNumThreads(threads);
  ag::TapeArena::SetEnabled(fast_alloc);
  tensor::BufferPool::SetEnabled(fast_alloc);
  data::Dataset ds = TinyDataset();
  core::DiffOde model(TinyConfig());
  train::FitResult fit =
      train::TrainClassifier(&model, ds, TinyOptions(2));
  TrainOutcome out;
  out.losses = fit.train_losses;
  for (const auto& p : model.Params()) out.params.push_back(p.value());
  ag::TapeArena::SetEnabled(true);
  tensor::BufferPool::SetEnabled(true);
  return out;
}

void ExpectBitwiseEqual(const TrainOutcome& a, const TrainOutcome& b) {
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (std::size_t i = 0; i < a.losses.size(); ++i)
    EXPECT_EQ(a.losses[i], b.losses[i]);
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    ASSERT_EQ(a.params[i].shape(), b.params[i].shape());
    for (Index k = 0; k < a.params[i].numel(); ++k)
      EXPECT_EQ(a.params[i].values()[static_cast<std::size_t>(k)],
                b.params[i].values()[static_cast<std::size_t>(k)]);
  }
}

// Arena + pool must change where bytes live, never what is computed: losses
// and weights are bitwise identical with the fast allocators on or off, at
// one thread and at four.
TEST(AllocStatsTest, ArenaAndPoolAreBitwiseEquivalent) {
  const int prev_threads = parallel::ThreadPool::Get().num_threads();
  const TrainOutcome fast1 = RunTinyTraining(/*fast_alloc=*/true, 1);
  const TrainOutcome slow1 = RunTinyTraining(/*fast_alloc=*/false, 1);
  const TrainOutcome fast4 = RunTinyTraining(/*fast_alloc=*/true, 4);
  const TrainOutcome slow4 = RunTinyTraining(/*fast_alloc=*/false, 4);
  ExpectBitwiseEqual(fast1, slow1);
  ExpectBitwiseEqual(fast1, fast4);
  ExpectBitwiseEqual(fast1, slow4);
  parallel::ThreadPool::SetNumThreads(prev_threads);
}

}  // namespace
}  // namespace diffode
