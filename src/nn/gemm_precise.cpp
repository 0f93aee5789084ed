// Strict-FP GEMM build modeling in-enclave execution; see kernels.hpp.
// This translation unit is compiled with -O3 -ffp-contract=off (set in
// CMakeLists.txt) and never with fast-math.
//
// Strict IEEE means: every output element sees exactly the operations
// of the reference loops in gemm_body.inc, in the same order, each
// rounded separately:
//   AXPY forms (Gemm, TransA, conv forward, conv dX):
//     c = seed;  for p ascending: c = c + a*b;  c = activate(c)
//   dot form (TransB, conv dW):
//     c = seed;  s = 0;  for p ascending: s = s + a*b;  c = c + s;
//     c = activate(c)
// No reassociation, no contraction into FMA, and SIMD lanes only ever
// hold *independent* output elements.  The kernels below are register
// blocked in the BLIS manner (Van Zee & van de Geijn, ACM TOMS 2015)
// purely to cut memory traffic: the naive AXPY streams C through
// memory once per p, while here a kRows x kLanes block of C lives in
// registers for the whole k loop.  Results are bit-identical to the
// reference loops (tests/gemm_test.cpp, GemmPreciseTest.*).
#include <cstddef>
#include <vector>

#include "nn/kernels.hpp"

namespace caltrain::nn {
namespace {

/// One native SIMD register of floats at the TU's baseline ISA (SSE2
/// by default, AVX under -march=native); GCC vector extensions, no
/// intrinsics.
#if defined(__AVX__)
constexpr std::size_t kVecLanes = 8;
#else
constexpr std::size_t kVecLanes = 4;
#endif
typedef float Vec __attribute__((vector_size(kVecLanes * sizeof(float))));
typedef int VecMask __attribute__((vector_size(kVecLanes * sizeof(float))));

/// Block width, two registers: C columns per AXPY block, A rows per dot
/// block.
constexpr std::size_t kLanes = 2 * kVecLanes;
/// Block depth: C rows per AXPY block, B rows per dot block.  kRows x 2
/// accumulator registers keep 8 independent add chains in flight.
constexpr std::size_t kRows = 4;
static_assert(kRows == 4, "the row-tail switches cover remainders 1..3");

// Loads/stores through memcpy (unaligned, alias-safe) and out-params
// (no vector-by-value ABI dependence on the ISA level).
inline void LoadVec(const float* p, Vec& v) noexcept {
  __builtin_memcpy(&v, p, sizeof v);
}
inline void StoreVec(float* p, const Vec& v) noexcept {
  __builtin_memcpy(p, &v, sizeof v);
}

// The reference seed of element (i, j): base (old value or zero), then
// row bias, then col bias — gemm_body.inc's SeedRow, one element.
inline float SeedValue(float old, std::size_t i, std::size_t j,
                       const GemmEpilogue& epi) noexcept {
  float v;
  if (!epi.accumulate) {
    v = epi.row_bias != nullptr ? epi.row_bias[i] : 0.0F;
  } else {
    v = old;
    if (epi.row_bias != nullptr) v += epi.row_bias[i];
  }
  if (epi.col_bias != nullptr) v += epi.col_bias[j];
  return v;
}

inline float Activate(float v, const GemmEpilogue& epi) noexcept {
  if (epi.negative_slope != 1.0F && v < 0.0F) v *= epi.negative_slope;
  return v;
}

// Activate on a whole register, branch-free: lanes below zero take
// v * slope, the rest keep v (NaN and -0 included, as in Activate).
inline void ActivateVec(Vec& v, const GemmEpilogue& epi) noexcept {
  if (epi.negative_slope == 1.0F) return;
  const VecMask neg = v < Vec{};
  const Vec scaled = v * epi.negative_slope;
  v = (Vec)((neg & (VecMask)scaled) | (~neg & (VecMask)v));
}

// ------------------------------------------------------------- AXPY form
// C[m x n] (+)= A * B with a(i, p) at a[i*a_rs + p*a_cs] (plain A:
// a_rs = k, a_cs = 1; TransA: a_rs = 1, a_cs = m), B rows `ldb` apart
// and C rows `ldc` apart.
struct AxpyArgs {
  std::size_t m, n, k;
  const float* a;
  std::size_t a_rs, a_cs;
  const float* b;
  std::size_t ldb;
  float* c;
  std::size_t ldc;
};

// Vector seed of C[i][j0 .. j0+kVecLanes): the same element operations
// as SeedValue.
inline void SeedVec(const AxpyArgs& g, std::size_t i, std::size_t j0,
                    const GemmEpilogue& epi, Vec& v) noexcept {
  if (!epi.accumulate) {
    // rb - (+0) is rb for every rb, -0 included (rb + 0 would not be).
    v = (epi.row_bias != nullptr ? epi.row_bias[i] : 0.0F) - Vec{};
  } else {
    LoadVec(g.c + i * g.ldc + j0, v);
    if (epi.row_bias != nullptr) v += epi.row_bias[i];
  }
  if (epi.col_bias != nullptr) {
    Vec cb;
    LoadVec(epi.col_bias + j0, cb);
    v += cb;
  }
}

// One MR x kLanes block of C held in registers across the whole k loop;
// each B slice is loaded once per p and reused by all MR rows.
template <std::size_t MR>
inline void AxpyBlock(const AxpyArgs& g, std::size_t i0, std::size_t j0,
                      const GemmEpilogue& epi) noexcept {
  Vec lo[MR], hi[MR];
  for (std::size_t r = 0; r < MR; ++r) {
    SeedVec(g, i0 + r, j0, epi, lo[r]);
    SeedVec(g, i0 + r, j0 + kVecLanes, epi, hi[r]);
  }
  const float* a0 = g.a + i0 * g.a_rs;
  const float* b0 = g.b + j0;
  for (std::size_t p = 0; p < g.k; ++p) {
    Vec b_lo, b_hi;
    LoadVec(b0 + p * g.ldb, b_lo);
    LoadVec(b0 + p * g.ldb + kVecLanes, b_hi);
    const float* ap = a0 + p * g.a_cs;
    for (std::size_t r = 0; r < MR; ++r) {
      const float av = ap[r * g.a_rs];
      lo[r] += av * b_lo;
      hi[r] += av * b_hi;
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    ActivateVec(lo[r], epi);
    ActivateVec(hi[r], epi);
    float* c_row = g.c + (i0 + r) * g.ldc + j0;
    StoreVec(c_row, lo[r]);
    StoreVec(c_row + kVecLanes, hi[r]);
  }
}

// Column tail (n % kLanes): the scalar reference loop per element.
inline void AxpyTail(const AxpyArgs& g, std::size_t j0,
                     const GemmEpilogue& epi) noexcept {
  for (std::size_t i = 0; i < g.m; ++i) {
    const float* a_row = g.a + i * g.a_rs;
    float* c_row = g.c + i * g.ldc;
    for (std::size_t j = j0; j < g.n; ++j) {
      float v = SeedValue(c_row[j], i, j, epi);
      for (std::size_t p = 0; p < g.k; ++p) {
        v += a_row[p * g.a_cs] * g.b[p * g.ldb + j];
      }
      c_row[j] = Activate(v, epi);
    }
  }
}

void Axpy(const AxpyArgs& g, const GemmEpilogue& epi) noexcept {
  const std::size_t n_full = g.n - g.n % kLanes;
  // Column blocks outer: the k x kLanes B slice stays in L1 while every
  // row block of C runs against it.
  for (std::size_t j0 = 0; j0 < n_full; j0 += kLanes) {
    std::size_t i0 = 0;
    for (; i0 + kRows <= g.m; i0 += kRows) AxpyBlock<kRows>(g, i0, j0, epi);
    switch (g.m - i0) {
      case 3: AxpyBlock<3>(g, i0, j0, epi); break;
      case 2: AxpyBlock<2>(g, i0, j0, epi); break;
      case 1: AxpyBlock<1>(g, i0, j0, epi); break;
      default: break;
    }
  }
  if (n_full < g.n) AxpyTail(g, n_full, epi);
}

// -------------------------------------------------------------- dot form
// C[m x n] (+)= A[m x k] * B^T with B stored [n x k]: A rows `lda`
// apart, B rows `ldb` apart, C rows `ldc` apart.  The SIMD lanes are
// kLanes consecutive rows of A — kLanes independent outputs of one C
// column, each lane one output's serial sum.
struct DotArgs {
  std::size_t m, n, k;
  const float* a;
  std::size_t lda;
  const float* b;
  std::size_t ldb;
  float* c;
  std::size_t ldc;
};

// NB columns of C (B rows j0 .. j0+NB) against the packed lanes.
template <std::size_t NB>
inline void DotBlock(const DotArgs& g, const float* pack, std::size_t i0,
                     std::size_t rows, std::size_t j0,
                     const GemmEpilogue& epi) noexcept {
  Vec lo[NB], hi[NB];
  for (std::size_t q = 0; q < NB; ++q) lo[q] = hi[q] = Vec{};
  const float* b0 = g.b + j0 * g.ldb;
  for (std::size_t p = 0; p < g.k; ++p) {
    Vec a_lo, a_hi;
    LoadVec(pack + p * kLanes, a_lo);
    LoadVec(pack + p * kLanes + kVecLanes, a_hi);
    for (std::size_t q = 0; q < NB; ++q) {
      const float bv = b0[q * g.ldb + p];
      lo[q] += a_lo * bv;
      hi[q] += a_hi * bv;
    }
  }
  float sums[NB][kLanes];
  for (std::size_t q = 0; q < NB; ++q) {
    StoreVec(sums[q], lo[q]);
    StoreVec(sums[q] + kVecLanes, hi[q]);
  }
  for (std::size_t l = 0; l < rows; ++l) {
    float* c_row = g.c + (i0 + l) * g.ldc;
    for (std::size_t q = 0; q < NB; ++q) {
      const std::size_t j = j0 + q;
      float v = SeedValue(c_row[j], i0 + l, j, epi);
      v += sums[q][l];
      c_row[j] = Activate(v, epi);
    }
  }
}

void Dot(const DotArgs& g, const GemmEpilogue& epi) {
  // Per-thread A^T slice [k x kLanes], zero-padded past the last row.
  thread_local std::vector<float> pack;
  if (pack.size() < g.k * kLanes) pack.resize(g.k * kLanes);
  for (std::size_t i0 = 0; i0 < g.m; i0 += kLanes) {
    const std::size_t rows = g.m - i0 < kLanes ? g.m - i0 : kLanes;
    // Pack once per row block; padded lanes compute zeros that are
    // never stored.
    for (std::size_t p = 0; p < g.k; ++p) {
      float* dst = pack.data() + p * kLanes;
      for (std::size_t l = 0; l < rows; ++l) {
        dst[l] = g.a[(i0 + l) * g.lda + p];
      }
      for (std::size_t l = rows; l < kLanes; ++l) dst[l] = 0.0F;
    }
    std::size_t j0 = 0;
    for (; j0 + kRows <= g.n; j0 += kRows) {
      DotBlock<kRows>(g, pack.data(), i0, rows, j0, epi);
    }
    switch (g.n - j0) {
      case 3: DotBlock<3>(g, pack.data(), i0, rows, j0, epi); break;
      case 2: DotBlock<2>(g, pack.data(), i0, rows, j0, epi); break;
      case 1: DotBlock<1>(g, pack.data(), i0, rows, j0, epi); break;
      default: break;
    }
  }
}

}  // namespace

void GemmExPrecise(std::size_t m, std::size_t n, std::size_t k,
                   const float* a, const float* b, float* c,
                   const GemmEpilogue& epi) noexcept {
  Axpy(AxpyArgs{m, n, k, a, k, 1, b, n, c, n}, epi);
}

void GemmTransAExPrecise(std::size_t m, std::size_t n, std::size_t k,
                         const float* a, const float* b, float* c,
                         const GemmEpilogue& epi) noexcept {
  // A stored [k x m]: element (i, p) at a[p*m + i].
  Axpy(AxpyArgs{m, n, k, a, 1, m, b, n, c, n}, epi);
}

void GemmTransBExPrecise(std::size_t m, std::size_t n, std::size_t k,
                         const float* a, const float* b, float* c,
                         const GemmEpilogue& epi) noexcept {
  Dot(DotArgs{m, n, k, a, k, b, k, c, n}, epi);
}

void GemmPrecise(std::size_t m, std::size_t n, std::size_t k, const float* a,
                 const float* b, float* c) noexcept {
  GemmExPrecise(m, n, k, a, b, c, GemmEpilogue{});
}

void GemmTransAPrecise(std::size_t m, std::size_t n, std::size_t k,
                       const float* a, const float* b, float* c) noexcept {
  GemmTransAExPrecise(m, n, k, a, b, c, GemmEpilogue{});
}

void GemmTransBPrecise(std::size_t m, std::size_t n, std::size_t k,
                       const float* a, const float* b, float* c) noexcept {
  GemmTransBExPrecise(m, n, k, a, b, c, GemmEpilogue{});
}

void ConvGemmBatchedPrecise(std::size_t m, std::size_t n, std::size_t k,
                            int batch, const float* weights,
                            const float* col_wide, const float* bias,
                            float negative_slope, float* out) noexcept {
  GemmEpilogue epi;
  epi.accumulate = false;
  epi.row_bias = bias;
  epi.negative_slope = negative_slope;
  const std::size_t ldb = static_cast<std::size_t>(batch) * n;
  for (int s = 0; s < batch; ++s) {
    const std::size_t off = static_cast<std::size_t>(s);
    Axpy(AxpyArgs{m, n, k, weights, k, 1, col_wide + off * n, ldb,
                  out + off * m * n, n},
         epi);
  }
}

void ConvGemmBackwardPrecise(std::size_t m, std::size_t n, std::size_t k,
                             int batch, const float* weights,
                             const float* delta_wide, const float* col_wide,
                             float* weight_grads, float* col_delta) noexcept {
  const std::size_t wn = static_cast<std::size_t>(batch) * n;
  GemmEpilogue overwrite;
  overwrite.accumulate = false;
  // Sample by sample, as the reference: dW first, then the sample's
  // column-space input gradient.
  for (int s = 0; s < batch; ++s) {
    const std::size_t off = static_cast<std::size_t>(s) * n;
    // dW[m x k] += delta_s[m x n] * col_s^T (rows `wn` apart).
    Dot(DotArgs{m, k, n, delta_wide + off, wn, col_wide + off, wn,
                weight_grads, k},
        GemmEpilogue{});
    if (col_delta != nullptr) {
      // col_delta_s[k x n] = W^T[k x m] * delta_s: W stored [m x k].
      Axpy(AxpyArgs{k, n, m, weights, 1, k, delta_wide + off, wn,
                    col_delta + off, wn},
           overwrite);
    }
  }
}

}  // namespace caltrain::nn
