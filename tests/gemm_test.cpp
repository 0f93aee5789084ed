// GEMM substrate parity suite.
//
// The Fast profile routes non-trivial shapes through the cache-blocked
// register-tiled core (gemm_tile.inc); the Precise profile runs
// register-blocked strict-FP kernels (gemm_precise.cpp).  These tests
// pin the contracts both must preserve:
//  * parity — tiled Fast results match the Precise reference within a
//    k-scaled tolerance across odd/tail shapes (every m, n, k
//    combination of {1, 3, 5, 17, 33, 63} plus block-boundary shapes
//    that cross the KC/MC/NC plan), for all three storage orders and
//    the epilogue variants;
//  * strict FP — every Precise entry point is memcmp-equal to the
//    naive reference loops of gemm_body.inc, compiled into this file
//    under the suffix Ref (this TU, like gemm_precise.cpp, is built
//    with -ffp-contract=off);
//  * determinism — Fast results (tiled or fallback, epilogue or not,
//    batched conv included) are bit-identical at threads 1/2/3/8.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "nn/kernels.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

// The reference loops: GemmRef, GemmExRef, ..., ConvGemmBackwardRef.
#define CALTRAIN_GEMM_SUFFIX Ref
#include "nn/gemm_body.inc"
#undef CALTRAIN_GEMM_SUFFIX

namespace caltrain::nn {
namespace {

struct GemmShape {
  std::size_t m, n, k;
};

std::vector<GemmShape> OddTailShapes() {
  const std::size_t dims[] = {1, 3, 5, 17, 33, 63};
  std::vector<GemmShape> shapes;
  for (std::size_t m : dims) {
    for (std::size_t n : dims) {
      for (std::size_t k : dims) shapes.push_back({m, n, k});
    }
  }
  return shapes;
}

/// Shapes that cross the tiled block plan: multiple KC slabs (k > 256),
/// multiple MC blocks (m > 72), multiple NC panels (n > 2048), and the
/// paper's 10-layer conv lowerings.
std::vector<GemmShape> BlockCrossingShapes() {
  return {
      {100, 260, 300},  // crosses MC and KC with tails everywhere
      {73, 2070, 17},   // crosses NC with a one-row MC tail
      {6, 33, 513},     // three KC slabs on a single tile row
      {128, 784, 27},   // Table-1 layer-1 conv GEMM
      {10, 49, 128},    // Table-1 1x1 head conv GEMM
      {256, 256, 256},  // bench shape: many panel-grid items per slab
      {80, 2100, 260},  // two NC panels x two KC slabs x two MC blocks
  };
}

float ParityTolerance(std::size_t k) {
  // Random Gaussian operands: |sum of k products| ~ sqrt(k), and the
  // tiled/naive orders differ by O(eps) per step.
  return 1e-4F * (1.0F + std::sqrt(static_cast<float>(k)));
}

void FillGaussian(std::vector<float>& v, Rng& rng) {
  for (float& x : v) x = rng.Gaussian();
}

TEST(GemmParityTest, FastMatchesPreciseAcrossOddTailShapes) {
  for (const GemmShape& s : OddTailShapes()) {
    Rng rng(100 + s.m * 37 + s.n * 11 + s.k);
    std::vector<float> a(s.m * s.k), b(s.k * s.n), a_t(s.k * s.m),
        b_t(s.n * s.k);
    FillGaussian(a, rng);
    FillGaussian(b, rng);
    FillGaussian(a_t, rng);
    FillGaussian(b_t, rng);
    const float tol = ParityTolerance(s.k);

    std::vector<float> fast(s.m * s.n, 0.5F), precise(s.m * s.n, 0.5F);
    GemmFast(s.m, s.n, s.k, a.data(), b.data(), fast.data());
    GemmPrecise(s.m, s.n, s.k, a.data(), b.data(), precise.data());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_NEAR(fast[i], precise[i], tol)
          << "Gemm m=" << s.m << " n=" << s.n << " k=" << s.k << " i=" << i;
    }

    std::fill(fast.begin(), fast.end(), 0.5F);
    std::fill(precise.begin(), precise.end(), 0.5F);
    GemmTransAFast(s.m, s.n, s.k, a_t.data(), b.data(), fast.data());
    GemmTransAPrecise(s.m, s.n, s.k, a_t.data(), b.data(), precise.data());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_NEAR(fast[i], precise[i], tol)
          << "GemmTransA m=" << s.m << " n=" << s.n << " k=" << s.k;
    }

    std::fill(fast.begin(), fast.end(), 0.5F);
    std::fill(precise.begin(), precise.end(), 0.5F);
    GemmTransBFast(s.m, s.n, s.k, a.data(), b_t.data(), fast.data());
    GemmTransBPrecise(s.m, s.n, s.k, a.data(), b_t.data(), precise.data());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_NEAR(fast[i], precise[i], tol)
          << "GemmTransB m=" << s.m << " n=" << s.n << " k=" << s.k;
    }
  }
}

TEST(GemmParityTest, EpilogueMatchesReferenceOnBothProfiles) {
  // Overwrite mode with row/col bias and leaky activation, checked
  // against an explicitly computed reference on shapes that use both
  // the tiled core and the naive fallback.
  for (const GemmShape& s : std::vector<GemmShape>{
           {5, 7, 3}, {33, 63, 17}, {100, 260, 300}}) {
    Rng rng(7 + s.m + s.n + s.k);
    std::vector<float> a(s.m * s.k), b(s.k * s.n), row_bias(s.m),
        col_bias(s.n);
    FillGaussian(a, rng);
    FillGaussian(b, rng);
    FillGaussian(row_bias, rng);
    FillGaussian(col_bias, rng);

    std::vector<float> expected(s.m * s.n);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        double acc = 0.0;
        for (std::size_t p = 0; p < s.k; ++p) {
          acc += static_cast<double>(a[i * s.k + p]) * b[p * s.n + j];
        }
        double v = acc + row_bias[i] + col_bias[j];
        if (v < 0.0) v *= 0.1;
        expected[i * s.n + j] = static_cast<float>(v);
      }
    }

    GemmEpilogue epi;
    epi.accumulate = false;
    epi.row_bias = row_bias.data();
    epi.col_bias = col_bias.data();
    epi.negative_slope = 0.1F;
    const float tol = ParityTolerance(s.k);
    std::vector<float> got(s.m * s.n, -123.0F);  // garbage: must be ignored
    GemmExFast(s.m, s.n, s.k, a.data(), b.data(), got.data(), epi);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], expected[i], tol) << "fast epilogue i=" << i;
    }
    std::fill(got.begin(), got.end(), -123.0F);
    GemmExPrecise(s.m, s.n, s.k, a.data(), b.data(), got.data(), epi);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], expected[i], tol) << "precise epilogue i=" << i;
    }
  }
}

TEST(GemmParityTest, ConvGemmBatchedMatchesPerSampleLowering) {
  // One wide batched GEMM must agree with per-sample epilogue GEMMs on
  // both profiles (the Precise build *is* the per-sample loop; the
  // Fast build scatters a single wide GEMM across sample planes).
  constexpr std::size_t m = 9, n = 21, k = 30;
  constexpr int batch = 5;
  Rng rng(321);
  std::vector<float> w(m * k), col(k * batch * n), bias(m);
  FillGaussian(w, rng);
  FillGaussian(col, rng);
  FillGaussian(bias, rng);

  std::vector<float> expected(static_cast<std::size_t>(batch) * m * n);
  for (int s = 0; s < batch; ++s) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = bias[i];
        for (std::size_t p = 0; p < k; ++p) {
          acc += static_cast<double>(w[i * k + p]) *
                 col[p * batch * n + static_cast<std::size_t>(s) * n + j];
        }
        if (acc < 0.0) acc *= 0.1;
        expected[static_cast<std::size_t>(s) * m * n + i * n + j] =
            static_cast<float>(acc);
      }
    }
  }

  const float tol = ParityTolerance(k);
  for (KernelProfile profile :
       {KernelProfile::kFast, KernelProfile::kPrecise}) {
    std::vector<float> out(expected.size(), -7.0F);
    ConvGemmBatched(profile, m, n, k, batch, w.data(), col.data(),
                    bias.data(), 0.1F, out.data());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_NEAR(out[i], expected[i], tol)
          << (profile == KernelProfile::kFast ? "fast" : "precise")
          << " batched conv i=" << i;
    }
  }
}

TEST(GemmDeterminismTest, FastResultsBitIdenticalAcrossThreadCounts) {
  // The tiled block plan is fixed and parallel dispatch only splits
  // disjoint output tiles, so every Fast entry point must produce
  // byte-identical results at threads 1/2/3/8 — including shapes that
  // cross KC/MC/NC block boundaries and the epilogue variants.
  std::vector<GemmShape> shapes = OddTailShapes();
  const std::vector<GemmShape> crossing = BlockCrossingShapes();
  shapes.insert(shapes.end(), crossing.begin(), crossing.end());

  for (const GemmShape& s : shapes) {
    Rng rng(5000 + s.m * 13 + s.n * 7 + s.k);
    std::vector<float> a(s.m * s.k), b(s.k * s.n), a_t(s.k * s.m),
        b_t(s.n * s.k), row_bias(s.m);
    FillGaussian(a, rng);
    FillGaussian(b, rng);
    FillGaussian(a_t, rng);
    FillGaussian(b_t, rng);
    FillGaussian(row_bias, rng);

    GemmEpilogue epi;
    epi.accumulate = false;
    epi.row_bias = row_bias.data();
    epi.negative_slope = 0.1F;

    using Runner = void (*)(const GemmShape&, const float*, const float*,
                            const float*, const GemmEpilogue&, float*);
    static constexpr Runner runners[] = {
        [](const GemmShape& s2, const float* pa, const float*,
           const float* pb, const GemmEpilogue&, float* c) {
          GemmFast(s2.m, s2.n, s2.k, pa, pb, c);
        },
        [](const GemmShape& s2, const float*, const float* pat,
           const float* pb, const GemmEpilogue&, float* c) {
          GemmTransAFast(s2.m, s2.n, s2.k, pat, pb, c);
        },
        [](const GemmShape& s2, const float* pa, const float* pbt,
           const float*, const GemmEpilogue&, float* c) {
          GemmTransBFast(s2.m, s2.n, s2.k, pa, pbt, c);
        },
        [](const GemmShape& s2, const float* pa, const float*,
           const float* pb, const GemmEpilogue& e, float* c) {
          GemmExFast(s2.m, s2.n, s2.k, pa, pb, c, e);
        },
    };
    const float* operands[][3] = {
        {a.data(), nullptr, b.data()},
        {nullptr, a_t.data(), b.data()},
        {a.data(), b_t.data(), nullptr},
        {a.data(), nullptr, b.data()},
    };

    std::vector<float> serial(s.m * s.n), parallel(s.m * s.n);
    for (std::size_t r = 0; r < 4; ++r) {
      {
        util::ScopedThreads one(1);
        std::fill(serial.begin(), serial.end(), 0.25F);
        runners[r](s, operands[r][0], operands[r][1], operands[r][2], epi,
                   serial.data());
      }
      for (unsigned threads : {2U, 3U, 8U}) {
        util::ScopedThreads many(threads);
        std::fill(parallel.begin(), parallel.end(), 0.25F);
        runners[r](s, operands[r][0], operands[r][1], operands[r][2], epi,
                   parallel.data());
        ASSERT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                                 serial.size() * sizeof(float)))
            << "runner=" << r << " m=" << s.m << " n=" << s.n
            << " k=" << s.k << " threads=" << threads;
      }
    }
  }
}

TEST(GemmDeterminismTest, ConvGemmBatchedBitIdenticalAcrossThreadCounts) {
  constexpr std::size_t m = 13, n = 37, k = 45;
  constexpr int batch = 7;
  Rng rng(99);
  std::vector<float> w(m * k), col(k * batch * n), bias(m);
  FillGaussian(w, rng);
  FillGaussian(col, rng);
  FillGaussian(bias, rng);

  std::vector<float> serial(static_cast<std::size_t>(batch) * m * n);
  {
    util::ScopedThreads one(1);
    ConvGemmBatchedFast(m, n, k, batch, w.data(), col.data(), bias.data(),
                        0.1F, serial.data());
  }
  std::vector<float> parallel(serial.size());
  for (unsigned threads : {2U, 3U, 8U}) {
    util::ScopedThreads many(threads);
    ConvGemmBatchedFast(m, n, k, batch, w.data(), col.data(), bias.data(),
                        0.1F, parallel.data());
    ASSERT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                             serial.size() * sizeof(float)))
        << "threads=" << threads;
  }
}

TEST(GemmDeterminismTest, DirectBMatchesPackedPath) {
  // With a single MC row block (m <= 72) the tiled core reads full B
  // panels in place and packs only a ragged last panel; 72 more rows of
  // A make it pack B.  Rows [0, m) must be bit-identical either way:
  // n is never a multiple of 16, k crosses KC slabs, and the batched
  // conv form scatters its columns across sample planes.
  constexpr std::size_t kExtraRows = 72;
  const GemmShape shapes[] = {{4, 37, 300},  {6, 100, 260}, {29, 530, 27},
                              {72, 250, 513}, {13, 17, 1030}};
  for (const GemmShape& s : shapes) {
    const std::size_t big = s.m + kExtraRows;
    Rng rng(7000 + s.m * 13 + s.n * 7 + s.k);
    std::vector<float> a_big(big * s.k), b(s.k * s.n), row_bias(big);
    FillGaussian(a_big, rng);
    FillGaussian(b, rng);
    FillGaussian(row_bias, rng);
    // The same A rows stored [k x m] and [k x big] for the TransA form.
    std::vector<float> at(s.k * s.m), at_big(s.k * big);
    for (std::size_t p = 0; p < s.k; ++p) {
      for (std::size_t i = 0; i < big; ++i) {
        at_big[p * big + i] = a_big[i * s.k + p];
        if (i < s.m) at[p * s.m + i] = a_big[i * s.k + p];
      }
    }
    GemmEpilogue epi;
    epi.accumulate = false;
    epi.row_bias = row_bias.data();
    epi.negative_slope = 0.1F;

    for (unsigned threads : {1U, 2U, 3U, 8U}) {
      util::ScopedThreads guard(threads);
      const auto same_rows = [&](const std::vector<float>& small_c,
                                 const std::vector<float>& big_c,
                                 const char* form) {
        ASSERT_EQ(0, std::memcmp(small_c.data(), big_c.data(),
                                 small_c.size() * sizeof(float)))
            << form << " m=" << s.m << " n=" << s.n << " k=" << s.k
            << " threads=" << threads;
      };
      for (const bool fused : {false, true}) {
        const GemmEpilogue e = fused ? epi : GemmEpilogue{};
        std::vector<float> c(s.m * s.n, 0.25F), c_big(big * s.n, 0.25F);
        GemmExFast(s.m, s.n, s.k, a_big.data(), b.data(), c.data(), e);
        GemmExFast(big, s.n, s.k, a_big.data(), b.data(), c_big.data(), e);
        c_big.resize(c.size());
        same_rows(c, c_big, fused ? "GemmExFast(epilogue)" : "GemmExFast");

        std::fill(c.begin(), c.end(), 0.25F);
        c_big.assign(big * s.n, 0.25F);
        GemmTransAExFast(s.m, s.n, s.k, at.data(), b.data(), c.data(), e);
        GemmTransAExFast(big, s.n, s.k, at_big.data(), b.data(),
                         c_big.data(), e);
        c_big.resize(c.size());
        same_rows(c, c_big, "GemmTransAExFast");
      }

      // Batched conv forward: B is the wide [k x batch*n_per] lowering,
      // outputs are batch planes of [m x n_per].
      constexpr int batch = 3;
      const std::size_t n_per = s.n;
      std::vector<float> col(s.k * batch * n_per);
      Rng col_rng(7100 + s.n);
      FillGaussian(col, col_rng);
      std::vector<float> out(batch * s.m * n_per),
          out_big(batch * big * n_per);
      ConvGemmBatchedFast(s.m, n_per, s.k, batch, a_big.data(), col.data(),
                          row_bias.data(), 0.1F, out.data());
      ConvGemmBatchedFast(big, n_per, s.k, batch, a_big.data(), col.data(),
                          row_bias.data(), 0.1F, out_big.data());
      for (int si = 0; si < batch; ++si) {
        ASSERT_EQ(0, std::memcmp(out.data() + si * s.m * n_per,
                                 out_big.data() + si * big * n_per,
                                 s.m * n_per * sizeof(float)))
            << "ConvGemmBatchedFast m=" << s.m << " n=" << s.n
            << " k=" << s.k << " sample=" << si << " threads=" << threads;
      }
    }
  }
}

TEST(GemmDeterminismTest, BatchedIm2ColMatchesPerSample) {
  // The wide batched im2col must be a pure re-layout of the per-sample
  // im2col (exact equality), at every thread count.
  constexpr int channels = 3, height = 9, width = 7, ksize = 3, stride = 1,
                pad = 1, batch = 4;
  const int out_h = height, out_w = width;
  const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t rows = static_cast<std::size_t>(channels) * ksize * ksize;
  const std::size_t sample = static_cast<std::size_t>(channels) * height *
                             width;

  Rng rng(17);
  std::vector<float> in(sample * batch);
  FillGaussian(in, rng);

  std::vector<float> per_sample(rows * out_hw);
  std::vector<float> wide(rows * out_hw * batch);
  for (unsigned threads : {1U, 3U}) {
    util::ScopedThreads guard(threads);
    Im2ColBatch(in.data(), sample, batch, channels, height, width, ksize,
                stride, pad, wide.data());
    for (int s = 0; s < batch; ++s) {
      Im2Col(in.data() + static_cast<std::size_t>(s) * sample, channels,
             height, width, ksize, stride, pad, per_sample.data());
      for (std::size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(0,
                  std::memcmp(per_sample.data() + r * out_hw,
                              wide.data() + r * out_hw * batch +
                                  static_cast<std::size_t>(s) * out_hw,
                              out_hw * sizeof(float)))
            << "threads=" << threads << " s=" << s << " row=" << r;
      }
    }
  }
}

TEST(GemmDeterminismTest, BatchedCol2ImMatchesPerSample) {
  constexpr int channels = 5, height = 8, width = 6, ksize = 3, stride = 1,
                pad = 1, batch = 3;
  const int out_h = height, out_w = width;
  const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t rows = static_cast<std::size_t>(channels) * ksize * ksize;
  const std::size_t sample = static_cast<std::size_t>(channels) * height *
                             width;

  Rng rng(23);
  std::vector<float> wide(rows * out_hw * batch);
  FillGaussian(wide, rng);

  // Per-sample reference: copy each sample's columns out of the wide
  // buffer and run the serial Col2Im.
  std::vector<float> expected(sample * batch, 0.0F);
  std::vector<float> col(rows * out_hw);
  for (int s = 0; s < batch; ++s) {
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(col.data() + r * out_hw,
                  wide.data() + r * out_hw * batch +
                      static_cast<std::size_t>(s) * out_hw,
                  out_hw * sizeof(float));
    }
    Col2Im(col.data(), channels, height, width, ksize, stride, pad,
           expected.data() + static_cast<std::size_t>(s) * sample);
  }

  std::vector<float> got(sample * batch);
  for (unsigned threads : {1U, 2U, 8U}) {
    util::ScopedThreads guard(threads);
    std::fill(got.begin(), got.end(), 0.0F);
    Col2ImBatch(wide.data(), batch, channels, height, width, ksize, stride,
                pad, got.data(), sample);
    ASSERT_EQ(0, std::memcmp(expected.data(), got.data(),
                             got.size() * sizeof(float)))
        << "threads=" << threads;
  }
}

// ------------------------------------------------- Precise vs reference
// The Precise kernels reorder loops and hold C in registers, but every
// output element must see the reference loop's exact operation
// sequence — so the results are compared with memcmp, not a tolerance.

/// Gaussian entries with about one in eight replaced by a signed zero,
/// so the seed and sum sign rules are pinned as well.
void FillWithSignedZeros(std::vector<float>& v, Rng& rng) {
  for (float& x : v) {
    const std::uint64_t r = rng.UniformU64(16);
    x = r == 0 ? 0.0F : (r == 1 ? -0.0F : rng.Gaussian());
  }
}

::testing::AssertionResult SameBits(const std::vector<float>& got,
                                    const std::vector<float>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size " << got.size()
                                         << " vs " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "first differing element " << i << ": " << got[i]
             << " vs reference " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<GemmShape> PreciseTailShapes() {
  const std::size_t dims[] = {1, 3, 4, 5, 7, 8, 9, 17, 33};
  std::vector<GemmShape> shapes;
  for (std::size_t m : dims) {
    for (std::size_t n : dims) {
      for (std::size_t k : dims) shapes.push_back({m, n, k});
    }
  }
  return shapes;
}

/// Conv GEMM lowerings (m filters, n output pixels, k = c*ksize^2): the
/// Table II(16) front convs, FaceNet(width/2)'s first two convs, and odd
/// shapes whose tails hit every kernel edge.
std::vector<GemmShape> PreciseConvShapes() {
  return {{8, 784, 27}, {8, 784, 72}, {32, 1024, 27}, {64, 256, 288},
          {1, 1, 1},    {3, 17, 5},   {9, 33, 7},     {5, 9, 33}};
}

/// Epilogue variant `mask`: bit 0 accumulate, bit 1 row bias, bit 2
/// col bias, bit 3 leaky slope 0.1 (else identity).
GemmEpilogue EpilogueVariant(unsigned mask, const float* row_bias,
                             const float* col_bias) {
  GemmEpilogue epi;
  epi.accumulate = (mask & 1U) != 0;
  epi.row_bias = (mask & 2U) != 0 ? row_bias : nullptr;
  epi.col_bias = (mask & 4U) != 0 ? col_bias : nullptr;
  epi.negative_slope = (mask & 8U) != 0 ? 0.1F : 1.0F;
  return epi;
}

using PlainFn = void (*)(std::size_t, std::size_t, std::size_t,
                         const float*, const float*, float*);
using ExFn = void (*)(std::size_t, std::size_t, std::size_t, const float*,
                      const float*, float*, const GemmEpilogue&);

TEST(GemmPreciseTest, GemmFormsMatchReferenceBitForBit) {
  // A holds m*k and B k*n floats in every storage order, so one pair
  // of operands serves all three forms.  The plain entry points run
  // once per shape; the *Ex ones under all 16 epilogue variants.
  struct Form {
    const char* name;
    PlainFn precise, ref;
    ExFn precise_ex, ref_ex;
  };
  const Form forms[] = {
      {"Gemm", GemmPrecise, GemmRef, GemmExPrecise, GemmExRef},
      {"GemmTransA", GemmTransAPrecise, GemmTransARef, GemmTransAExPrecise,
       GemmTransAExRef},
      {"GemmTransB", GemmTransBPrecise, GemmTransBRef, GemmTransBExPrecise,
       GemmTransBExRef}};
  for (const GemmShape& s : PreciseTailShapes()) {
    Rng rng(900 + s.m * 101 + s.n * 13 + s.k);
    std::vector<float> a(s.m * s.k), b(s.k * s.n), c0(s.m * s.n),
        row_bias(s.m), col_bias(s.n);
    FillWithSignedZeros(a, rng);
    FillWithSignedZeros(b, rng);
    FillWithSignedZeros(c0, rng);
    FillWithSignedZeros(row_bias, rng);
    FillWithSignedZeros(col_bias, rng);
    for (const Form& f : forms) {
      std::vector<float> got = c0, want = c0;
      f.precise(s.m, s.n, s.k, a.data(), b.data(), got.data());
      f.ref(s.m, s.n, s.k, a.data(), b.data(), want.data());
      ASSERT_TRUE(SameBits(got, want)) << f.name << " m=" << s.m
                                       << " n=" << s.n << " k=" << s.k;
      for (unsigned mask = 0; mask < 16; ++mask) {
        const GemmEpilogue epi =
            EpilogueVariant(mask, row_bias.data(), col_bias.data());
        got = c0;
        want = c0;
        f.precise_ex(s.m, s.n, s.k, a.data(), b.data(), got.data(), epi);
        f.ref_ex(s.m, s.n, s.k, a.data(), b.data(), want.data(), epi);
        ASSERT_TRUE(SameBits(got, want))
            << f.name << "Ex m=" << s.m << " n=" << s.n << " k=" << s.k
            << " epilogue=" << mask;
      }
    }
  }
}

TEST(GemmPreciseTest, ConvForwardMatchesReferenceBitForBit) {
  // Batches 1..5 read each sample's columns out of a wide buffer
  // (ldb = batch*n > n).
  for (const GemmShape& s : PreciseConvShapes()) {
    for (int batch = 1; batch <= 5; ++batch) {
      const std::size_t wn = static_cast<std::size_t>(batch) * s.n;
      Rng rng(1100 + s.m * 7 + s.n + s.k * 3 + batch);
      std::vector<float> w(s.m * s.k), col(s.k * wn), bias(s.m);
      FillWithSignedZeros(w, rng);
      FillWithSignedZeros(col, rng);
      FillWithSignedZeros(bias, rng);
      for (float slope : {1.0F, 0.1F}) {
        std::vector<float> got(s.m * wn, -3.0F), want(s.m * wn, -3.0F);
        ConvGemmBatchedPrecise(s.m, s.n, s.k, batch, w.data(), col.data(),
                               bias.data(), slope, got.data());
        ConvGemmBatchedRef(s.m, s.n, s.k, batch, w.data(), col.data(),
                           bias.data(), slope, want.data());
        ASSERT_TRUE(SameBits(got, want))
            << "m=" << s.m << " n=" << s.n << " k=" << s.k
            << " batch=" << batch << " slope=" << slope;
      }
    }
  }
}

TEST(GemmPreciseTest, ConvBackwardMatchesReferenceBitForBit) {
  // dW accumulates into non-zero gradients sample by sample; the input
  // gradient is overwritten, or skipped when col_delta is null.
  for (const GemmShape& s : PreciseConvShapes()) {
    for (int batch = 1; batch <= 5; ++batch) {
      const std::size_t wn = static_cast<std::size_t>(batch) * s.n;
      Rng rng(1300 + s.m * 7 + s.n + s.k * 3 + batch);
      std::vector<float> w(s.m * s.k), delta(s.m * wn), col(s.k * wn),
          dw0(s.m * s.k);
      FillWithSignedZeros(w, rng);
      FillWithSignedZeros(delta, rng);
      FillWithSignedZeros(col, rng);
      FillWithSignedZeros(dw0, rng);
      for (bool want_input_grad : {true, false}) {
        std::vector<float> dw_got = dw0, dw_want = dw0;
        std::vector<float> cd_got(s.k * wn, 5.0F), cd_want(s.k * wn, 5.0F);
        ConvGemmBackwardPrecise(s.m, s.n, s.k, batch, w.data(), delta.data(),
                                col.data(), dw_got.data(),
                                want_input_grad ? cd_got.data() : nullptr);
        ConvGemmBackwardRef(s.m, s.n, s.k, batch, w.data(), delta.data(),
                            col.data(), dw_want.data(),
                            want_input_grad ? cd_want.data() : nullptr);
        ASSERT_TRUE(SameBits(dw_got, dw_want))
            << "dW m=" << s.m << " n=" << s.n << " k=" << s.k
            << " batch=" << batch;
        ASSERT_TRUE(SameBits(cd_got, cd_want))
            << "col_delta m=" << s.m << " n=" << s.n << " k=" << s.k
            << " batch=" << batch << " input_grad=" << want_input_grad;
      }
    }
  }
}

}  // namespace
}  // namespace caltrain::nn
