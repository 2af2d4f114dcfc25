#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "autograd/ops.h"
#include "core/parallel.h"
#include "gradcheck.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace diffode::kernels {
namespace {

// Textbook triple loop, the reference the blocked kernels must reproduce.
Tensor NaiveGemm(const Tensor& a, const Tensor& b) {
  const Index m = a.rows(), k = a.cols(), n = b.cols();
  Tensor c(Shape{m, n});
  for (Index i = 0; i < m; ++i)
    for (Index p = 0; p < k; ++p)
      for (Index j = 0; j < n; ++j)
        c.at(i, j) += a.at(i, p) * b.at(p, j);
  return c;
}

void ExpectNear(const Tensor& got, const Tensor& want, double tol) {
  ASSERT_TRUE(got.shape() == want.shape());
  for (Index i = 0; i < got.numel(); ++i)
    EXPECT_NEAR(got[i], want[i], tol * (1.0 + std::fabs(want[i]))) << "i=" << i;
}

// Pool-size guard that always restores the default, even on test failure.
struct ThreadCountGuard {
  explicit ThreadCountGuard(int n) { parallel::ThreadPool::SetNumThreads(n); }
  ~ThreadCountGuard() { parallel::ThreadPool::SetNumThreads(0); }
};

TEST(KernelsTest, GemmMatchesNaiveOnOddShapes) {
  Rng rng(11);
  const struct { Index m, k, n; } shapes[] = {
      {1, 1, 1}, {1, 9, 1}, {1, 1, 7}, {5, 1, 3},
      {65, 130, 33}, {33, 65, 17}, {64, 64, 64}};
  for (const auto& s : shapes) {
    Tensor a = rng.NormalTensor(Shape{s.m, s.k});
    Tensor b = rng.NormalTensor(Shape{s.k, s.n});
    // The blocked kernel sums in the same p order as the naive loop, so the
    // match is exact, not just close.
    ExpectNear(a.MatMul(b), NaiveGemm(a, b), 1e-12);
  }
}

TEST(KernelsTest, GemmTNMatchesExplicitTranspose) {
  Rng rng(12);
  const struct { Index m, k, n; } shapes[] = {
      {1, 1, 1}, {3, 1, 5}, {65, 130, 33}, {17, 64, 9}};
  for (const auto& s : shapes) {
    Tensor a = rng.NormalTensor(Shape{s.k, s.m});  // stored transposed
    Tensor b = rng.NormalTensor(Shape{s.k, s.n});
    ExpectNear(a.TransposedMatMul(b), NaiveGemm(a.Transposed(), b), 1e-12);
  }
}

TEST(KernelsTest, GemmNTMatchesExplicitTranspose) {
  Rng rng(13);
  const struct { Index m, k, n; } shapes[] = {
      {1, 1, 1}, {3, 5, 1}, {65, 130, 33}, {9, 64, 17}};
  for (const auto& s : shapes) {
    Tensor a = rng.NormalTensor(Shape{s.m, s.k});
    Tensor b = rng.NormalTensor(Shape{s.n, s.k});  // stored transposed
    // NT accumulates its dot products in a different association than the
    // naive loop, so allow rounding-level slack.
    ExpectNear(a.MatMulTransposed(b), NaiveGemm(a, b.Transposed()), 1e-12);
  }
}

TEST(KernelsTest, ElementwiseKernelsMatchLoops) {
  Rng rng(14);
  const Index n = 1037;
  Tensor x = rng.NormalTensor(Shape{n});
  Tensor y = rng.NormalTensor(Shape{n});

  Tensor axpy = y;
  Axpy(n, 2.5, x.data(), axpy.data());
  Tensor scaled(Shape{n});
  AddScaled(n, y.data(), 2.5, x.data(), scaled.data());  // y + 2.5 x
  Tensor mapped(Shape{n});
  Map(n, x.data(), mapped.data(), [](Scalar v) { return std::tanh(v); });
  Tensor zipped(Shape{n});
  Zip(n, x.data(), y.data(), zipped.data(),
      [](Scalar a, Scalar b) { return a * b + 1.0; });
  for (Index i = 0; i < n; ++i) {
    // The compiled kernels may fuse mul+add; the fused and unfused results
    // differ by at most the rounding of the product, so compare with an
    // absolute bound. The two kernels must still agree exactly.
    EXPECT_NEAR(axpy[i], y[i] + 2.5 * x[i], 1e-14);
    EXPECT_EQ(scaled[i], axpy[i]);
    EXPECT_DOUBLE_EQ(mapped[i], std::tanh(x[i]));
    EXPECT_DOUBLE_EQ(zipped[i], x[i] * y[i] + 1.0);
  }
}

TEST(KernelsTest, ParallelForCoversRangeWithDisjointChunks) {
  ThreadCountGuard guard(4);
  const Index n = 100000;
  std::vector<Scalar> out(static_cast<std::size_t>(n), 0.0);
  parallel::ParallelFor(0, n, 1024, [&](Index b, Index e) {
    for (Index i = b; i < e; ++i)
      out[static_cast<std::size_t>(i)] += static_cast<Scalar>(i);
  });
  for (Index i = 0; i < n; ++i)
    ASSERT_EQ(out[static_cast<std::size_t>(i)], static_cast<Scalar>(i));
}

TEST(KernelsTest, ReductionsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(15);
  const Index n = 50001;
  Tensor x = rng.NormalTensor(Shape{n});
  Tensor y = rng.NormalTensor(Shape{n});
  Scalar sum1, dot1, sum4, dot4;
  {
    ThreadCountGuard guard(1);
    sum1 = x.Sum();
    dot1 = x.Dot(y);
  }
  {
    ThreadCountGuard guard(4);
    sum4 = x.Sum();
    dot4 = x.Dot(y);
  }
  EXPECT_EQ(sum1, sum4);
  EXPECT_EQ(dot1, dot4);
}

TEST(KernelsTest, GemmBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(16);
  Tensor a = rng.NormalTensor(Shape{130, 70});
  Tensor b = rng.NormalTensor(Shape{70, 90});
  Tensor c1, c4;
  {
    ThreadCountGuard guard(1);
    c1 = a.MatMul(b);
  }
  {
    ThreadCountGuard guard(4);
    c4 = a.MatMul(b);
  }
  ASSERT_TRUE(c1.shape() == c4.shape());
  for (Index i = 0; i < c1.numel(); ++i) EXPECT_EQ(c1[i], c4[i]);
}

// The lockstep engine's row movement: pure copies, so every copied element
// must match exactly and every row a kernel does not name must stay as it
// was.
template <typename T>
void CheckRowKernels(Index cols) {
  SCOPED_TRACE(::testing::Message() << "cols=" << cols);
  const Index rows = 9;
  std::vector<T> src(static_cast<std::size_t>(rows * cols));
  std::vector<T> dst(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<T>(i) + T(0.25);
    dst[i] = -static_cast<T>(i) - T(1);
  }
  auto at = [cols](const std::vector<T>& v, Index r, Index j) {
    return v[static_cast<std::size_t>(r * cols + j)];
  };

  const std::vector<unsigned char> mask = {1, 0, 0, 1, 1, 0, 1, 0, 1};
  std::vector<T> updated = dst;
  MaskedRowUpdate(rows, cols, mask.data(), src.data(), updated.data());
  for (Index r = 0; r < rows; ++r)
    for (Index j = 0; j < cols; ++j)
      EXPECT_EQ(at(updated, r, j), mask[r] ? at(src, r, j) : at(dst, r, j))
          << "r=" << r << " j=" << j;

  // Gather rows into a packed block, then scatter the block into a copy of
  // dst: the picked rows come back as src had them, the others untouched.
  const std::vector<Index> picked = {7, 2, 5, 0};
  const Index count = static_cast<Index>(picked.size());
  std::vector<T> packed(static_cast<std::size_t>(count * cols), T(0));
  SelectRows(count, cols, picked.data(), src.data(), packed.data());
  for (Index i = 0; i < count; ++i)
    for (Index j = 0; j < cols; ++j)
      EXPECT_EQ(at(packed, i, j), at(src, picked[i], j)) << "i=" << i;
  std::vector<T> back = dst;
  ScatterRows(count, cols, picked.data(), packed.data(), back.data());
  for (Index r = 0; r < rows; ++r) {
    const bool was_picked =
        std::find(picked.begin(), picked.end(), r) != picked.end();
    for (Index j = 0; j < cols; ++j)
      EXPECT_EQ(at(back, r, j), was_picked ? at(src, r, j) : at(dst, r, j))
          << "r=" << r << " j=" << j;
  }
}

TEST(KernelsTest, RowKernelsCopyExactlyAndLeaveOtherRowsUntouched) {
  for (Index cols : {1, 7, 48, 129}) {
    CheckRowKernels<double>(cols);  // dtype:ok — f64 instantiation
    CheckRowKernels<float>(cols);
  }
}

TEST(KernelsTest, MatMulGradcheckNonSquare) {
  Rng rng(17);
  ag::Var x = ag::Param(rng.NormalTensor(Shape{3, 4}));
  Tensor b = rng.NormalTensor(Shape{4, 2});
  const double err = testing::MaxGradError(
      x, [&]() { return ag::Sum(ag::MatMul(x, ag::Constant(b))); });
  EXPECT_LT(err, 1e-6);

  ag::Var y = ag::Param(rng.NormalTensor(Shape{4, 5}));
  Tensor a = rng.NormalTensor(Shape{2, 4});
  const double err_rhs = testing::MaxGradError(
      y, [&]() { return ag::Sum(ag::MatMul(ag::Constant(a), y)); });
  EXPECT_LT(err_rhs, 1e-6);
}

TEST(KernelsTest, MatMulNTGradcheckBothSides) {
  Rng rng(18);
  ag::Var q = ag::Param(rng.NormalTensor(Shape{3, 4}));
  Tensor k = rng.NormalTensor(Shape{5, 4});
  const double err_q = testing::MaxGradError(q, [&]() {
    return ag::Sum(ag::Square(ag::MatMulNT(q, ag::Constant(k))));
  });
  EXPECT_LT(err_q, 1e-6);

  ag::Var kv = ag::Param(rng.NormalTensor(Shape{5, 4}));
  Tensor qc = rng.NormalTensor(Shape{3, 4});
  const double err_k = testing::MaxGradError(kv, [&]() {
    return ag::Sum(ag::Square(ag::MatMulNT(ag::Constant(qc), kv)));
  });
  EXPECT_LT(err_k, 1e-6);
}

TEST(KernelsTest, MatMulNTMatchesMatMulOfTranspose) {
  Rng rng(19);
  ag::Var a = ag::Param(rng.NormalTensor(Shape{6, 7}));
  ag::Var b = ag::Param(rng.NormalTensor(Shape{9, 7}));
  ag::Var nt = ag::MatMulNT(a, b);
  ag::Var ref = ag::MatMul(a, ag::Transpose(b));
  ExpectNear(nt.value(), ref.value(), 1e-12);

  ag::Var loss_nt = ag::Sum(ag::Square(nt));
  loss_nt.Backward();
  Tensor ga_nt = a.grad(), gb_nt = b.grad();
  a.ZeroGrad();
  b.ZeroGrad();
  ag::Var loss_ref = ag::Sum(ag::Square(ref));
  loss_ref.Backward();
  ExpectNear(ga_nt, a.grad(), 1e-11);
  ExpectNear(gb_nt, b.grad(), 1e-11);
}

}  // namespace
}  // namespace diffode::kernels
