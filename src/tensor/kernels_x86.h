#ifndef DIFFODE_TENSOR_KERNELS_X86_H_
#define DIFFODE_TENSOR_KERNELS_X86_H_

// The x86 SIMD kernels, written once over a vector trait V<T> and
// instantiated at two widths: 256 bits in kernels_avx2.cc (-mavx2 -mfma) and
// 512 bits in kernels_avx512.cc (-mavx512f -mavx512dq). Only those two TUs
// may include this header. Everything here has internal linkage, so each TU
// gets its own copy compiled for its own target flags — the linker can
// never hand the AVX-512 copy of a helper to the AVX2 table.
//
// An including TU specializes V<double> and V<float> (in this same unnamed
// namespace) before instantiating MakeX86Table<T>(). A trait provides:
//
//   Reg, Mask, kW                    register, tail mask, lanes per register
//   Zero, Load, Store, Broadcast     full-vector moves (unmasked)
//   Fma, Add, Mul                    lane arithmetic
//   Tail(t)                          mask of the first t (1..kW-1) lanes
//   MaskzLoad, MaskStore             tail moves; masked-off lanes read as 0
//   HSum                             horizontal sum in one fixed lane order
//
// Full vectors always use plain loads and stores; only the column tail or
// the k tail runs masked (a 256-bit vmaskmov is not free). A masked tail is
// the same fma chain with dead lanes, so every surviving element is computed
// exactly as a full vector would compute it.
//
// Determinism: the contract of kernels_isa.h — each output element is a
// fixed operation sequence that depends only on its indices and the problem
// shape. Row blocks give each row its own accumulators, lanes partition the
// reduction axis by residue class mod kW, and HSum has one combining tree.
//
// The transcendentals are 256-bit at both widths, so exp/tanh/sigmoid give
// the same bits on either x86 ISA; the wider ISA only widens the GEMMs and
// vector ops, which is where its speed lives.

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "tensor/kernels_isa.h"

namespace diffode::kernels::detail {
namespace {

template <typename T>
struct V;

template <bool kTail, typename T>
inline typename V<T>::Reg LoadV(typename V<T>::Mask m, const T* p) {
  if constexpr (kTail) {
    return V<T>::MaskzLoad(m, p);
  } else {
    (void)m;
    return V<T>::Load(p);
  }
}

template <bool kTail, typename T>
inline void StoreV(T* p, typename V<T>::Mask m, typename V<T>::Reg v) {
  if constexpr (kTail) {
    V<T>::MaskStore(p, m, v);
  } else {
    (void)m;
    V<T>::Store(p, v);
  }
}

// ---------------------------------------------------------------------------
// GEMM: C = A * B. Register-blocked microkernel — 8 row accumulators × one
// vector of C columns, held in registers across the whole k loop — with
// 4/2/1-row variants for the row tail and a masked column tail. A is read
// by broadcast (contiguous per row), B by row vectors, so no packing.

template <int MR, bool kTail, typename T>
inline void MicroN(Index k, typename V<T>::Mask m, const T* a, Index lda,
                   const T* b, Index ldb, T* c, Index ldc) {
  using W = V<T>;
  typename W::Reg acc[MR];
  for (int r = 0; r < MR; ++r) acc[r] = W::Zero();
  for (Index p = 0; p < k; ++p) {
    const typename W::Reg bv = LoadV<kTail, T>(m, b + p * ldb);
    for (int r = 0; r < MR; ++r)
      acc[r] = W::Fma(W::Broadcast(a[r * lda + p]), bv, acc[r]);
  }
  for (int r = 0; r < MR; ++r) StoreV<kTail, T>(c + r * ldc, m, acc[r]);
}

template <int MR, typename T>
inline void RowBlockN(Index i, Index k, Index n, const T* a, const T* b,
                      T* c) {
  using W = V<T>;
  const Index nv = n & ~(W::kW - 1);
  for (Index j = 0; j < nv; j += W::kW)
    MicroN<MR, false, T>(k, typename W::Mask(), a + i * k, k, b + j, n,
                         c + i * n + j, n);
  if (nv < n)
    MicroN<MR, true, T>(k, W::Tail(n - nv), a + i * k, k, b + nv, n,
                        c + i * n + nv, n);
}

// Single-row fast path (the dominant inference GEMM shape: ODE and RNN
// states are 1 x d rows against d x d weights). Up to 256 bytes of the
// output row — 8 ymm or 4 zmm accumulators — share each a[p] broadcast.
// Per element it is the same ascending-p fma chain as MicroN<1>, so mixing
// the paths keeps output bitwise identical.
template <int NV, typename T>
inline void Row1Block(Index k, Index n, const T* a, const T* b, T* c) {
  using W = V<T>;
  typename W::Reg acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = W::Zero();
  for (Index p = 0; p < k; ++p) {
    const typename W::Reg av = W::Broadcast(a[p]);
    const T* br = b + p * n;
    for (int v = 0; v < NV; ++v)
      acc[v] = W::Fma(av, W::Load(br + W::kW * v), acc[v]);
  }
  for (int v = 0; v < NV; ++v) W::Store(c + W::kW * v, acc[v]);
}

template <typename T>
inline void GemmRow1(Index k, Index n, const T* a, const T* b, T* c) {
  using W = V<T>;
  constexpr Index kW = W::kW;
  constexpr int kMaxNV = static_cast<int>(256 / (kW * sizeof(T)));
  const Index nv = n & ~(kW - 1);
  Index j = 0;
  for (; j + kMaxNV * kW <= nv; j += kMaxNV * kW)
    Row1Block<kMaxNV, T>(k, n, a, b + j, c + j);
  if constexpr (kMaxNV > 4) {
    if (nv - j >= 4 * kW) {
      Row1Block<4, T>(k, n, a, b + j, c + j);
      j += 4 * kW;
    }
  }
  if (nv - j >= 2 * kW) {
    Row1Block<2, T>(k, n, a, b + j, c + j);
    j += 2 * kW;
  }
  if (nv - j >= kW) {
    Row1Block<1, T>(k, n, a, b + j, c + j);
    j += kW;
  }
  if (j < n)
    MicroN<1, true, T>(k, W::Tail(n - j), a, k, b + j, n, c + j, n);
}

template <typename T>
void GemmPanel(Index i0, Index i1, Index k, Index n, const T* a, const T* b,
               T* c) {
  Index i = i0;
  for (; i + 8 <= i1; i += 8) RowBlockN<8>(i, k, n, a, b, c);
  if (i1 - i >= 4) {
    RowBlockN<4>(i, k, n, a, b, c);
    i += 4;
  }
  if (i1 - i >= 2) {
    RowBlockN<2>(i, k, n, a, b, c);
    i += 2;
  }
  if (i1 - i >= 1) GemmRow1(k, n, a + i * k, b, c + i * n);
}

// ---------------------------------------------------------------------------
// GemmTN: C = A^T * B with A stored (k x m). Reading A down a column touches
// a new cache line every step, so each row block packs its A panel into a
// contiguous (kc x MR) buffer once and reuses it across all column vectors.
// k is blocked at kKc to bound the pack buffer; C accumulates across
// k-blocks in increasing p order, and the first block starts from zero
// instead of loading C (same arithmetic: (0 + block0) + block1 + ...), so
// the common k <= kKc case touches C exactly once.

constexpr Index kKc = 256;

template <int MR, bool kTail, typename T>
inline void MicroPackedA(bool first, Index pc, typename V<T>::Mask m,
                         const T* ap, const T* b, Index ldb, T* c, Index ldc) {
  using W = V<T>;
  typename W::Reg acc[MR];
  if (first) {
    for (int r = 0; r < MR; ++r) acc[r] = W::Zero();
  } else {
    for (int r = 0; r < MR; ++r) acc[r] = LoadV<kTail, T>(m, c + r * ldc);
  }
  for (Index p = 0; p < pc; ++p) {
    const typename W::Reg bv = LoadV<kTail, T>(m, b + p * ldb);
    for (int r = 0; r < MR; ++r)
      acc[r] = W::Fma(W::Broadcast(ap[p * MR + r]), bv, acc[r]);
  }
  for (int r = 0; r < MR; ++r) StoreV<kTail, T>(c + r * ldc, m, acc[r]);
}

template <int MR, typename T>
inline void RowBlockTN(bool first, Index i, Index m, Index n, Index p0,
                       Index pc, const T* a, const T* b, T* c, T* apack) {
  using W = V<T>;
  const Index nv = n & ~(W::kW - 1);
  for (Index p = 0; p < pc; ++p) {
    const T* src = a + (p0 + p) * m + i;
    for (int r = 0; r < MR; ++r) apack[p * MR + r] = src[r];
  }
  for (Index j = 0; j < nv; j += W::kW)
    MicroPackedA<MR, false, T>(first, pc, typename W::Mask(), apack,
                               b + p0 * n + j, n, c + i * n + j, n);
  if (nv < n)
    MicroPackedA<MR, true, T>(first, pc, W::Tail(n - nv), apack,
                              b + p0 * n + nv, n, c + i * n + nv, n);
}

template <typename T>
void GemmTNPanel(Index i0, Index i1, Index m, Index k, Index n, const T* a,
                 const T* b, T* c) {
  if (k == 0) {
    std::fill(c + i0 * n, c + i1 * n, T(0));
    return;
  }
  alignas(64) T apack[kKc * 8];
  for (Index p0 = 0; p0 < k; p0 += kKc) {
    const bool first = p0 == 0;
    const Index pc = std::min(k - p0, kKc);
    Index i = i0;
    for (; i + 8 <= i1; i += 8)
      RowBlockTN<8>(first, i, m, n, p0, pc, a, b, c, apack);
    if (i1 - i >= 4) {
      RowBlockTN<4>(first, i, m, n, p0, pc, a, b, c, apack);
      i += 4;
    }
    if (i1 - i >= 2) {
      RowBlockTN<2>(first, i, m, n, p0, pc, a, b, c, apack);
      i += 2;
    }
    if (i1 - i >= 1) RowBlockTN<1>(first, i, m, n, p0, pc, a, b, c, apack);
  }
}

// ---------------------------------------------------------------------------
// GemmNT: C = A * B^T with B stored (n x k). Both operands are contiguous
// along k, so instead of packing, the kernel vectorizes the reduction axis:
// each output element owns one vector accumulator (lane l sums the p ≡ l
// terms, the masked k-tail included) finished by the fixed HSum. A 2x4
// element block shares the a/b row loads; per-element arithmetic equals
// VecDot regardless of the blocking, so row pairing never changes bits.

template <typename T>
inline T VecDot(Index k, const T* x, const T* y) {
  using W = V<T>;
  const Index kv = k & ~(W::kW - 1);
  typename W::Reg acc = W::Zero();
  for (Index p = 0; p < kv; p += W::kW)
    acc = W::Fma(W::Load(x + p), W::Load(y + p), acc);
  if (kv < k) {
    const typename W::Mask m = W::Tail(k - kv);
    acc = W::Fma(W::MaskzLoad(m, x + kv), W::MaskzLoad(m, y + kv), acc);
  }
  return W::HSum(acc);
}

template <int MR, typename T>
inline void NTBlock4(Index i, Index j, Index k, Index n, const T* a,
                     const T* b, T* c) {
  using W = V<T>;
  const Index kv = k & ~(W::kW - 1);
  typename W::Reg acc[MR][4];
  for (int r = 0; r < MR; ++r)
    for (int jj = 0; jj < 4; ++jj) acc[r][jj] = W::Zero();
  for (Index p = 0; p < kv; p += W::kW) {
    typename W::Reg av[MR];
    for (int r = 0; r < MR; ++r) av[r] = W::Load(a + (i + r) * k + p);
    for (int jj = 0; jj < 4; ++jj) {
      const typename W::Reg bv = W::Load(b + (j + jj) * k + p);
      for (int r = 0; r < MR; ++r) acc[r][jj] = W::Fma(av[r], bv, acc[r][jj]);
    }
  }
  if (kv < k) {
    const typename W::Mask m = W::Tail(k - kv);
    typename W::Reg av[MR];
    for (int r = 0; r < MR; ++r) av[r] = W::MaskzLoad(m, a + (i + r) * k + kv);
    for (int jj = 0; jj < 4; ++jj) {
      const typename W::Reg bv = W::MaskzLoad(m, b + (j + jj) * k + kv);
      for (int r = 0; r < MR; ++r) acc[r][jj] = W::Fma(av[r], bv, acc[r][jj]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int jj = 0; jj < 4; ++jj)
      c[(i + r) * n + j + jj] = W::HSum(acc[r][jj]);
}

template <typename T>
void GemmNTPanel(Index i0, Index i1, Index k, Index n, const T* a, const T* b,
                 T* c) {
  const Index n4 = n & ~Index{3};
  Index i = i0;
  for (; i + 2 <= i1; i += 2) {
    for (Index j = 0; j < n4; j += 4) NTBlock4<2>(i, j, k, n, a, b, c);
    for (Index j = n4; j < n; ++j) {
      c[i * n + j] = VecDot(k, a + i * k, b + j * k);
      c[(i + 1) * n + j] = VecDot(k, a + (i + 1) * k, b + j * k);
    }
  }
  if (i < i1) {
    for (Index j = 0; j < n4; j += 4) NTBlock4<1>(i, j, k, n, a, b, c);
    for (Index j = n4; j < n; ++j)
      c[i * n + j] = VecDot(k, a + i * k, b + j * k);
  }
}

// ---------------------------------------------------------------------------
// Contiguous-range vector ops: full vectors plus one masked tail vector.

template <typename T>
void AxpyRange(Index n, T alpha, const T* x, T* y) {
  using W = V<T>;
  const typename W::Reg av = W::Broadcast(alpha);
  const Index nv = n & ~(W::kW - 1);
  Index i = 0;
  for (; i < nv; i += W::kW)
    W::Store(y + i, W::Fma(av, W::Load(x + i), W::Load(y + i)));
  if (i < n) {
    const typename W::Mask m = W::Tail(n - i);
    W::MaskStore(y + i, m,
                 W::Fma(av, W::MaskzLoad(m, x + i), W::MaskzLoad(m, y + i)));
  }
}

template <typename T>
void AddScaledRange(Index n, const T* x, T alpha, const T* y, T* out) {
  using W = V<T>;
  const typename W::Reg av = W::Broadcast(alpha);
  const Index nv = n & ~(W::kW - 1);
  Index i = 0;
  for (; i < nv; i += W::kW)
    W::Store(out + i, W::Fma(av, W::Load(y + i), W::Load(x + i)));
  if (i < n) {
    const typename W::Mask m = W::Tail(n - i);
    W::MaskStore(out + i, m,
                 W::Fma(av, W::MaskzLoad(m, y + i), W::MaskzLoad(m, x + i)));
  }
}

template <typename T>
void ScaleRange(Index n, T alpha, T* x) {
  using W = V<T>;
  const typename W::Reg av = W::Broadcast(alpha);
  const Index nv = n & ~(W::kW - 1);
  Index i = 0;
  for (; i < nv; i += W::kW) W::Store(x + i, W::Mul(av, W::Load(x + i)));
  if (i < n) {
    const typename W::Mask m = W::Tail(n - i);
    W::MaskStore(x + i, m, W::Mul(av, W::MaskzLoad(m, x + i)));
  }
}

// Reduction partials over one fixed-grid chunk: two vector accumulator
// chains combined in a fixed order, then the scalar tail in element order.
// The chunk grid itself lives in kernels.cc; this only fixes the
// intra-chunk association.

template <typename T>
T SumRange(Index n, const T* x) {
  using W = V<T>;
  const Index n2 = n & ~(2 * W::kW - 1);
  typename W::Reg acc0 = W::Zero();
  typename W::Reg acc1 = W::Zero();
  Index i = 0;
  for (; i < n2; i += 2 * W::kW) {
    acc0 = W::Add(acc0, W::Load(x + i));
    acc1 = W::Add(acc1, W::Load(x + i + W::kW));
  }
  T s = W::HSum(W::Add(acc0, acc1));
  for (; i < n; ++i) s += x[i];
  return s;
}

template <typename T>
T DotRange(Index n, const T* x, const T* y) {
  using W = V<T>;
  const Index n2 = n & ~(2 * W::kW - 1);
  typename W::Reg acc0 = W::Zero();
  typename W::Reg acc1 = W::Zero();
  Index i = 0;
  for (; i < n2; i += 2 * W::kW) {
    acc0 = W::Fma(W::Load(x + i), W::Load(y + i), acc0);
    acc1 = W::Fma(W::Load(x + i + W::kW), W::Load(y + i + W::kW), acc1);
  }
  T s = W::HSum(W::Add(acc0, acc1));
  // An explicit fma per tail element: left as `s += x[i] * y[i]`, each build
  // picks its own contraction (release GCC vectorizes part of the tail
  // unfused, sanitizer builds fuse all of it) and the bits differ per build.
  for (; i < n; ++i) s = std::fma(x[i], y[i], s);
  return s;
}

// ---------------------------------------------------------------------------
// 256-bit transcendentals (both widths; see the file comment).
//
// ExpPd is a Cephes-style exp: round-to-nearest argument reduction against a
// two-part ln2, a rational approximation of exp(r) on |r| <= ln2/2 (~1 ulp),
// and reconstruction by two half-exponent scalings so borderline arguments
// (|x| near 709) neither overflow the exponent field nor flush prematurely.
// Inputs beyond the true overflow / total-underflow thresholds are blended
// to inf / 0; NaN propagates.

inline __m256d ExpPd(__m256d x) {
  const __m256d n_f = _mm256_round_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(1.44269504088896340736)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(n_f, _mm256_set1_pd(6.93145751953125e-1), x);
  r = _mm256_fnmadd_pd(n_f, _mm256_set1_pd(1.42860682030941723212e-6), r);
  const __m256d rr = _mm256_mul_pd(r, r);
  __m256d p = _mm256_set1_pd(1.26177193074810590878e-4);
  p = _mm256_fmadd_pd(p, rr, _mm256_set1_pd(3.02994407707441961300e-2));
  p = _mm256_fmadd_pd(p, rr, _mm256_set1_pd(9.99999999999999999910e-1));
  p = _mm256_mul_pd(p, r);
  __m256d q = _mm256_set1_pd(3.00198505138664455042e-6);
  q = _mm256_fmadd_pd(q, rr, _mm256_set1_pd(2.52448340349684104192e-3));
  q = _mm256_fmadd_pd(q, rr, _mm256_set1_pd(2.27265548208155028766e-1));
  q = _mm256_fmadd_pd(q, rr, _mm256_set1_pd(2.0));
  __m256d e = _mm256_div_pd(p, _mm256_sub_pd(q, p));
  e = _mm256_fmadd_pd(e, _mm256_set1_pd(2.0), _mm256_set1_pd(1.0));
  // e *= 2^n via two factors 2^(n/2) and 2^(n - n/2): each factor's biased
  // exponent stays in the normal range for every n that can reach here.
  const __m128i n_i = _mm256_cvtpd_epi32(n_f);
  const __m128i n_half = _mm_srai_epi32(n_i, 1);
  const __m128i bias = _mm_set1_epi32(1023);
  const __m256i f0 = _mm256_slli_epi64(
      _mm256_cvtepi32_epi64(_mm_add_epi32(n_half, bias)), 52);
  const __m256i f1 = _mm256_slli_epi64(
      _mm256_cvtepi32_epi64(
          _mm_add_epi32(_mm_sub_epi32(n_i, n_half), bias)), 52);
  e = _mm256_mul_pd(_mm256_mul_pd(e, _mm256_castsi256_pd(f0)),
                    _mm256_castsi256_pd(f1));
  // exp overflows above ln(DBL_MAX) and is exactly 0 below the subnormal
  // floor; in between the two-factor scaling produces gradual underflow.
  const __m256d inf = _mm256_set1_pd(__builtin_inf());
  e = _mm256_blendv_pd(
      e, inf, _mm256_cmp_pd(x, _mm256_set1_pd(709.782712893384), _CMP_GT_OQ));
  e = _mm256_blendv_pd(
      e, _mm256_setzero_pd(),
      _mm256_cmp_pd(x, _mm256_set1_pd(-745.2), _CMP_LT_OQ));
  return e;
}

// Cephes tanh: odd rational x + x^3 P(x^2)/Q(x^2) for |x| < 0.625, else
// sign(x) * (1 - 2/(exp(2|x|) + 1)); the small-|x| polynomial avoids the
// 1 - exp cancellation near zero, the exp branch saturates to ±1 exactly.
inline __m256d TanhPd(__m256d x) {
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const __m256d sign = _mm256_and_pd(x, sign_bit);
  const __m256d z = _mm256_andnot_pd(sign_bit, x);
  const __m256d s = _mm256_mul_pd(x, x);
  __m256d pp = _mm256_set1_pd(-9.64399179425052238628e-1);
  pp = _mm256_fmadd_pd(pp, s, _mm256_set1_pd(-9.92877231001918586564e1));
  pp = _mm256_fmadd_pd(pp, s, _mm256_set1_pd(-1.61468768441708447952e3));
  __m256d qq = _mm256_add_pd(s, _mm256_set1_pd(1.12811678491632931402e2));
  qq = _mm256_fmadd_pd(qq, s, _mm256_set1_pd(2.23548839060100448583e3));
  qq = _mm256_fmadd_pd(qq, s, _mm256_set1_pd(4.84406305325125486048e3));
  const __m256d small = _mm256_fmadd_pd(
      _mm256_mul_pd(s, x), _mm256_div_pd(pp, qq), x);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d e = ExpPd(_mm256_mul_pd(z, two));
  const __m256d big = _mm256_or_pd(
      _mm256_sub_pd(one, _mm256_div_pd(two, _mm256_add_pd(e, one))), sign);
  return _mm256_blendv_pd(big, small,
                          _mm256_cmp_pd(z, _mm256_set1_pd(0.625), _CMP_LT_OQ));
}

inline __m256d SigmoidPd(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d e = ExpPd(_mm256_sub_pd(_mm256_setzero_pd(), x));
  return _mm256_div_pd(one, _mm256_add_pd(one, e));
}

// Single precision (8 lanes): native float Cephes evaluations, within ~2 ulp
// of libm's float functions (tests/kernels_isa_test.cc budgets 4).
//
// Cephes expf: n = round(x log2 e), r = x − n ln 2 (two-step Cody–Waite),
// degree-5 polynomial for e^r on |r| <= ln(2)/2, scaled by 2^n through the
// exponent field in two factors so near-threshold inputs underflow
// gradually instead of flushing at 2^-126.
inline __m256 ExpPs(__m256 x) {
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  __m256 fx = _mm256_mul_ps(x, log2e);
  fx = _mm256_round_ps(fx, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  const __m256 one = _mm256_set1_ps(1.0f);
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), _mm256_add_ps(r, one));
  const __m256i n = _mm256_cvtps_epi32(fx);
  const __m256i n0 = _mm256_srai_epi32(n, 1);
  const __m256i n1 = _mm256_sub_epi32(n, n0);
  const __m256i bias = _mm256_set1_epi32(127);
  const __m256 f0 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(n0, bias), 23));
  const __m256 f1 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(n1, bias), 23));
  __m256 e = _mm256_mul_ps(_mm256_mul_ps(p, f0), f1);
  // expf overflows above ln(FLT_MAX) and is exactly 0 below the subnormal
  // floor; in between the two-factor scaling produces gradual underflow.
  const __m256 inf = _mm256_set1_ps(__builtin_inff());
  e = _mm256_blendv_ps(
      e, inf,
      _mm256_cmp_ps(x, _mm256_set1_ps(88.72283172607422f), _CMP_GT_OQ));
  e = _mm256_blendv_ps(
      e, _mm256_setzero_ps(),
      _mm256_cmp_ps(x, _mm256_set1_ps(-103.97f), _CMP_LT_OQ));
  return e;
}

// Cephes tanhf: odd polynomial x + x^3 P(x^2) for |x| < 0.625 — the same
// branch split as TanhPd, so cross-dtype behavior differs at no extra
// boundary — else sign(x) * (1 - 2/(exp(2|x|) + 1)).
inline __m256 TanhPs(__m256 x) {
  const __m256 sign_bit = _mm256_set1_ps(-0.0f);
  const __m256 sign = _mm256_and_ps(x, sign_bit);
  const __m256 z = _mm256_andnot_ps(sign_bit, x);
  const __m256 s = _mm256_mul_ps(x, x);
  __m256 p = _mm256_set1_ps(-5.70498872745e-3f);
  p = _mm256_fmadd_ps(p, s, _mm256_set1_ps(2.06390887954e-2f));
  p = _mm256_fmadd_ps(p, s, _mm256_set1_ps(-5.37397155531e-2f));
  p = _mm256_fmadd_ps(p, s, _mm256_set1_ps(1.33314422036e-1f));
  p = _mm256_fmadd_ps(p, s, _mm256_set1_ps(-3.33332819422e-1f));
  const __m256 small = _mm256_fmadd_ps(_mm256_mul_ps(s, x), p, x);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 e = ExpPs(_mm256_mul_ps(z, two));
  const __m256 big = _mm256_or_ps(
      _mm256_sub_ps(one, _mm256_div_ps(two, _mm256_add_ps(e, one))), sign);
  return _mm256_blendv_ps(big, small,
                          _mm256_cmp_ps(z, _mm256_set1_ps(0.625f), _CMP_LT_OQ));
}

inline __m256 SigmoidPs(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = ExpPs(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

// Load/store mask covering the first `t` (1..3) double lanes of a tail.
inline __m256i TailMaskPd(Index t) {
  alignas(32) static const std::int64_t kMask[8] = {-1, -1, -1, -1,
                                                    0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask + 4 - static_cast<int>(t)));
}

// Load/store mask covering the first `t` (1..7) float lanes of a tail.
inline __m256i TailMaskPs(Index t) {
  alignas(32) static const std::int32_t kMask[16] = {-1, -1, -1, -1, -1, -1,
                                                     -1, -1, 0,  0,  0,  0,
                                                     0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask + 8 - static_cast<int>(t)));
}

// Full 256-bit vectors, then one masked vector for the tail elements so
// tails run the identical arithmetic.
template <__m256d (*F)(__m256d)>
void MapRangePd(Index n, const double* x,  // dtype:ok — f64 lanes
                double* out) {             // dtype:ok — f64 lanes
  Index i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(out + i, F(_mm256_loadu_pd(x + i)));
  if (i < n) {
    const __m256i mask = TailMaskPd(n - i);
    const __m256d v = _mm256_maskload_pd(x + i, mask);
    _mm256_maskstore_pd(out + i, mask, F(v));
  }
}

template <__m256 (*F)(__m256)>
void MapRangePs(Index n, const float* x, float* out) {
  Index i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(out + i, F(_mm256_loadu_ps(x + i)));
  if (i < n) {
    const __m256i mask = TailMaskPs(n - i);
    const __m256 v = _mm256_maskload_ps(x + i, mask);
    _mm256_maskstore_ps(out + i, mask, F(v));
  }
}

template <__m256d (*Fd)(__m256d), __m256 (*Fs)(__m256), typename T>
void MapRange(Index n, const T* x, T* out) {
  if constexpr (std::is_same_v<T, double>)  // dtype:ok — f64 lanes
    MapRangePd<Fd>(n, x, out);
  else
    MapRangePs<Fs>(n, x, out);
}

// One table per dtype; an including TU instantiates it once V<T> exists.
template <typename T>
constexpr KernelTable<T> MakeX86Table() {
  return KernelTable<T>{
      GemmPanel<T>,
      GemmTNPanel<T>,
      GemmNTPanel<T>,
      AxpyRange<T>,
      AddScaledRange<T>,
      ScaleRange<T>,
      SumRange<T>,
      DotRange<T>,
      MapRange<TanhPd, TanhPs, T>,
      MapRange<SigmoidPd, SigmoidPs, T>,
      MapRange<ExpPd, ExpPs, T>,
  };
}

}  // namespace
}  // namespace diffode::kernels::detail

#endif  // DIFFODE_TENSOR_KERNELS_X86_H_
