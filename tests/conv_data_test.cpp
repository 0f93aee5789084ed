// Conv data-movement oracle suite.
//
// im2col / col2im and the conv backward's activation-gradient copy and
// bias sums are pure data movement: the rewritten span-based kernels
// must reproduce the original per-element loops bit for bit.  The
// originals are copied here as the reference:
//  * RefIm2ColRow / RefCol2ImChannel bounds-check every element;
//  * RefDeltaAndBias lays out the wide delta through the leaky-ReLU
//    gradient, then sums each filter row serially (acc = 0; acc +=
//    row[j] for ascending j), per sample, in sample order.
// Every comparison is memcmp, over inputs sprinkled with signed zeros,
// NaN and denormals, with output buffers pre-filled with a sentinel so
// an unwritten (or wrongly written) edge shows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/conv.hpp"
#include "nn/kernels.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace caltrain::nn {
namespace {

// ------------------------------------------------------------ references

constexpr bool InBounds(int v, int limit) noexcept {
  return v >= 0 && v < limit;
}

void RefIm2ColRow(const float* in_c, int height, int width, int ky, int kx,
                  int stride, int pad, int out_h, int out_w, float* col_row) {
  std::size_t idx = 0;
  for (int oy = 0; oy < out_h; ++oy) {
    const int iy = oy * stride - pad + ky;
    if (!InBounds(iy, height)) {
      for (int ox = 0; ox < out_w; ++ox) col_row[idx++] = 0.0F;
      continue;
    }
    const float* in_row = in_c + static_cast<std::size_t>(iy) * width;
    for (int ox = 0; ox < out_w; ++ox) {
      const int ix = ox * stride - pad + kx;
      col_row[idx++] = InBounds(ix, width) ? in_row[ix] : 0.0F;
    }
  }
}

void RefCol2ImChannel(const float* col_c, std::size_t ld, int height,
                      int width, int ksize, int stride, int pad, int out_h,
                      int out_w, float* in_c) {
  const int channel_cols = ksize * ksize;
  for (int kidx = 0; kidx < channel_cols; ++kidx) {
    const int ky = kidx / ksize;
    const int kx = kidx % ksize;
    const float* col_row = col_c + static_cast<std::size_t>(kidx) * ld;
    std::size_t idx = 0;
    for (int oy = 0; oy < out_h; ++oy) {
      const int iy = oy * stride - pad + ky;
      if (!InBounds(iy, height)) {
        idx += static_cast<std::size_t>(out_w);
        continue;
      }
      float* in_row = in_c + static_cast<std::size_t>(iy) * width;
      for (int ox = 0; ox < out_w; ++ox) {
        const int ix = ox * stride - pad + kx;
        if (InBounds(ix, width)) in_row[ix] += col_row[idx];
        ++idx;
      }
    }
  }
}

struct ConvGeom {
  int channels, height, width, ksize, stride, pad;

  [[nodiscard]] int OutH() const {
    return (height + 2 * pad - ksize) / stride + 1;
  }
  [[nodiscard]] int OutW() const {
    return (width + 2 * pad - ksize) / stride + 1;
  }
  [[nodiscard]] std::size_t OutHw() const {
    return static_cast<std::size_t>(OutH()) * OutW();
  }
  [[nodiscard]] std::size_t Rows() const {
    return static_cast<std::size_t>(channels) * ksize * ksize;
  }
  [[nodiscard]] std::size_t Plane() const {
    return static_cast<std::size_t>(height) * width;
  }
  [[nodiscard]] std::size_t Sample() const { return channels * Plane(); }
};

std::ostream& operator<<(std::ostream& os, const ConvGeom& g) {
  return os << "c=" << g.channels << " h=" << g.height << " w=" << g.width
            << " k=" << g.ksize << " s=" << g.stride << " p=" << g.pad;
}

/// Wide reference lowering: sample s's rows at column offset s*out_hw
/// of rows ld = batch*out_hw apart.
void RefIm2ColBatch(const ConvGeom& g, const float* in,
                    std::size_t sample_stride, int batch, float* col_wide) {
  const std::size_t ld = static_cast<std::size_t>(batch) * g.OutHw();
  for (int s = 0; s < batch; ++s) {
    for (std::size_t row = 0; row < g.Rows(); ++row) {
      const int c = static_cast<int>(row) / (g.ksize * g.ksize);
      const int kidx = static_cast<int>(row) % (g.ksize * g.ksize);
      RefIm2ColRow(in + s * sample_stride + c * g.Plane(), g.height, g.width,
                   kidx / g.ksize, kidx % g.ksize, g.stride, g.pad, g.OutH(),
                   g.OutW(), col_wide + row * ld + s * g.OutHw());
    }
  }
}

void RefCol2ImBatch(const ConvGeom& g, const float* col_wide, int batch,
                    float* in, std::size_t sample_stride) {
  const std::size_t ld = static_cast<std::size_t>(batch) * g.OutHw();
  const std::size_t channel_cols =
      static_cast<std::size_t>(g.ksize) * g.ksize;
  for (int s = 0; s < batch; ++s) {
    for (int c = 0; c < g.channels; ++c) {
      RefCol2ImChannel(col_wide + s * g.OutHw() + c * channel_cols * ld, ld,
                       g.height, g.width, g.ksize, g.stride, g.pad, g.OutH(),
                       g.OutW(), in + s * sample_stride + c * g.Plane());
    }
  }
}

// ---------------------------------------------------------------- inputs

/// Gaussian values with about one in six replaced by +0, -0, a quiet
/// NaN, a positive or a negative denormal.
void FillSpecial(std::vector<float>& v, Rng& rng, bool with_nan = true) {
  for (float& x : v) {
    switch (rng.UniformU64(30)) {
      case 0: x = 0.0F; break;
      case 1: x = -0.0F; break;
      case 2:
        x = with_nan ? std::numeric_limits<float>::quiet_NaN()
                     : std::numeric_limits<float>::denorm_min();
        break;
      case 3: x = std::numeric_limits<float>::denorm_min() * 37.0F; break;
      case 4: x = -std::numeric_limits<float>::denorm_min() * 5.0F; break;
      default: x = rng.Gaussian();
    }
  }
}

constexpr float kSentinel = 7.5F;

::testing::AssertionResult SameBits(const std::vector<float>& got,
                                    const std::vector<float>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
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

/// ksize 1/2/3 x stride 1/2 x pad 0/1 over odd and even extents,
/// including extents smaller than the kernel (with stride 2 some of
/// them keep one output whose window never fits); geometries without
/// an output are skipped.
std::vector<ConvGeom> OracleGrid() {
  std::vector<ConvGeom> grid;
  const int extents[][2] = {{1, 1}, {2, 1}, {1, 3}, {2, 2}, {4, 5},
                            {5, 4}, {6, 6}, {7, 9}, {9, 8}};
  int channels = 1;
  for (int ksize : {1, 2, 3}) {
    for (int stride : {1, 2}) {
      for (int pad : {0, 1}) {
        for (const auto& e : extents) {
          const ConvGeom g{channels, e[0], e[1], ksize, stride, pad};
          channels = channels % 3 + 1;
          if (g.OutH() < 1 || g.OutW() < 1) continue;
          grid.push_back(g);
        }
      }
    }
  }
  return grid;
}

// ---------------------------------------------------------------- tests

TEST(ConvDataOracleTest, Im2ColMatchesReference) {
  for (const ConvGeom& g : OracleGrid()) {
    Rng rng(300 + g.height * 31 + g.width * 7 + g.ksize * 3 + g.stride +
            g.pad);
    std::vector<float> in(g.Sample());
    FillSpecial(in, rng);
    std::vector<float> got(g.Rows() * g.OutHw(), kSentinel),
        want(got.size(), -kSentinel);
    Im2Col(in.data(), g.channels, g.height, g.width, g.ksize, g.stride,
           g.pad, got.data());
    RefIm2ColBatch(g, in.data(), g.Sample(), 1, want.data());
    ASSERT_TRUE(SameBits(got, want)) << g;
  }
}

TEST(ConvDataOracleTest, Im2ColBatchMatchesReference) {
  for (const ConvGeom& g : OracleGrid()) {
    for (int batch = 1; batch <= 5; ++batch) {
      Rng rng(500 + g.height * 31 + g.width * 7 + g.ksize * 3 + batch);
      // Samples a few floats further apart than their size, as in a
      // strided view.
      const std::size_t sample_stride = g.Sample() + 3;
      std::vector<float> in(sample_stride * batch);
      FillSpecial(in, rng);
      std::vector<float> got(g.Rows() * g.OutHw() * batch, kSentinel),
          want(got.size(), -kSentinel);
      Im2ColBatch(in.data(), sample_stride, batch, g.channels, g.height,
                  g.width, g.ksize, g.stride, g.pad, got.data());
      RefIm2ColBatch(g, in.data(), sample_stride, batch, want.data());
      ASSERT_TRUE(SameBits(got, want)) << g << " batch=" << batch;
    }
  }
}

TEST(ConvDataOracleTest, Col2ImMatchesReference) {
  for (const ConvGeom& g : OracleGrid()) {
    Rng rng(700 + g.height * 31 + g.width * 7 + g.ksize * 3 + g.stride +
            g.pad);
    std::vector<float> col(g.Rows() * g.OutHw()), base(g.Sample());
    FillSpecial(col, rng);
    FillSpecial(base, rng);
    std::vector<float> got = base, want = base;
    Col2Im(col.data(), g.channels, g.height, g.width, g.ksize, g.stride,
           g.pad, got.data());
    RefCol2ImBatch(g, col.data(), 1, want.data(), g.Sample());
    ASSERT_TRUE(SameBits(got, want)) << g;
  }
}

TEST(ConvDataOracleTest, Col2ImBatchMatchesReference) {
  for (const ConvGeom& g : OracleGrid()) {
    for (int batch = 1; batch <= 5; ++batch) {
      Rng rng(900 + g.height * 31 + g.width * 7 + g.ksize * 3 + batch);
      const std::size_t sample_stride = g.Sample() + 2;
      std::vector<float> col(g.Rows() * g.OutHw() * batch),
          base(sample_stride * batch);
      FillSpecial(col, rng);
      FillSpecial(base, rng);
      std::vector<float> got = base, want = base;
      Col2ImBatch(col.data(), batch, g.channels, g.height, g.width, g.ksize,
                  g.stride, g.pad, got.data(), sample_stride);
      RefCol2ImBatch(g, col.data(), batch, want.data(), sample_stride);
      ASSERT_TRUE(SameBits(got, want)) << g << " batch=" << batch;
    }
  }
}

TEST(ConvDataOracleTest, SerialAndParallelSweepsAgree) {
  // Small lowerings run serially whatever the thread count; large ones
  // split across the pool.  Both must equal the reference at threads
  // 1/2/3/8.  The geometries are FaceNet(width/2)'s first conv at
  // batch 1 (below the dispatch volume) and its second conv on an
  // 8-sample block (above it), plus a strided one above it.
  const struct {
    ConvGeom g;
    int batch;
  } cases[] = {{{3, 32, 32, 3, 1, 1}, 1},
               {{32, 16, 16, 3, 1, 1}, 8},
               {{32, 30, 34, 3, 2, 1}, 8}};
  for (const auto& tc : cases) {
    const ConvGeom& g = tc.g;
    Rng rng(1100 + g.channels + tc.batch);
    std::vector<float> in(g.Sample() * tc.batch),
        col(g.Rows() * g.OutHw() * tc.batch);
    FillSpecial(in, rng);
    FillSpecial(col, rng);
    std::vector<float> want_col(col.size()), want_in = in;
    RefIm2ColBatch(g, in.data(), g.Sample(), tc.batch, want_col.data());
    RefCol2ImBatch(g, col.data(), tc.batch, want_in.data(), g.Sample());
    for (unsigned threads : {1U, 2U, 3U, 8U}) {
      util::ScopedThreads guard(threads);
      std::vector<float> got_col(col.size(), kSentinel), got_in = in;
      Im2ColBatch(in.data(), g.Sample(), tc.batch, g.channels, g.height,
                  g.width, g.ksize, g.stride, g.pad, got_col.data());
      Col2ImBatch(col.data(), tc.batch, g.channels, g.height, g.width,
                  g.ksize, g.stride, g.pad, got_in.data(), g.Sample());
      ASSERT_TRUE(SameBits(got_col, want_col))
          << g << " batch=" << tc.batch << " threads=" << threads;
      ASSERT_TRUE(SameBits(got_in, want_in))
          << g << " batch=" << tc.batch << " threads=" << threads;
    }
  }
}

// ------------------------------------------------ conv backward gradients

/// The original two-pass layout of one lowered block: the wide delta
/// through the leaky-ReLU gradient, then per-sample serial row sums
/// into the bias gradients.
void RefDeltaAndBias(const Batch& out, const Batch& delta_out, int s0,
                     int cur, std::size_t m, std::size_t n, bool leaky,
                     std::vector<float>& delta_wide,
                     std::vector<float>& bias_grads) {
  const std::size_t wn = static_cast<std::size_t>(cur) * n;
  for (int si = 0; si < cur; ++si) {
    const float* d_out = delta_out.Sample(s0 + si);
    const float* o = out.Sample(s0 + si);
    for (std::size_t f = 0; f < m; ++f) {
      const float* src = d_out + f * n;
      const float* out_row = o + f * n;
      float* dst = delta_wide.data() + f * wn + si * n;
      for (std::size_t j = 0; j < n; ++j) {
        dst[j] = leaky && out_row[j] < 0.0F ? src[j] * 0.1F : src[j];
      }
    }
  }
  for (int si = 0; si < cur; ++si) {
    for (std::size_t f = 0; f < m; ++f) {
      float acc = 0.0F;
      const float* row = delta_wide.data() + f * wn + si * n;
      for (std::size_t j = 0; j < n; ++j) acc += row[j];
      bias_grads[f] += acc;
    }
  }
}

TEST(ConvDataOracleTest, ConvGradientsMatchSerialReference) {
  // Filter counts 1/4/9/13 cover the 8-, 4- and 1-row groups of the
  // fused pass; batch 11 spans two lowering blocks.
  const struct {
    Shape in;
    int filters, ksize, stride;
  } layers[] = {{{6, 5, 3}, 4, 3, 1},
                {{7, 7, 2}, 9, 3, 1},
                {{5, 6, 4}, 13, 1, 1},
                {{9, 8, 2}, 1, 3, 2},
                {{4, 4, 3}, 8, 2, 1}};
  for (const auto& l : layers) {
    for (Activation act : {Activation::kLeakyRelu, Activation::kLinear}) {
      for (KernelProfile profile :
           {KernelProfile::kFast, KernelProfile::kPrecise}) {
        for (int batch : {1, 3, 11}) {
          Rng rng(1300 + l.filters * 17 + l.ksize + batch);
          ConvLayer conv(l.in, l.filters, l.ksize, l.stride, act);
          conv.InitWeights(rng);
          const Shape os = conv.out_shape();
          const std::size_t m = static_cast<std::size_t>(l.filters);
          const std::size_t n = static_cast<std::size_t>(os.w) * os.h;
          const ConvGeom g{l.in.c, l.in.h, l.in.w, l.ksize, l.stride,
                           l.ksize == 1 ? 0 : l.ksize / 2};
          const std::size_t k = g.Rows();

          Batch in(batch, l.in), out(batch, os), delta_out(batch, os);
          FillSpecial(in.data, rng, /*with_nan=*/false);
          FillSpecial(out.data, rng, /*with_nan=*/false);
          FillSpecial(delta_out.data, rng, /*with_nan=*/false);
          std::vector<float> bias0(m), weight0(conv.weights().size());
          FillSpecial(bias0, rng, /*with_nan=*/false);
          FillSpecial(weight0, rng, /*with_nan=*/false);

          LayerScratch scratch;
          LayerGrads grads;
          grads.weight_grads = weight0;
          grads.bias_grads = bias0;
          LayerContext ctx;
          ctx.profile = profile;
          ctx.scratch = &scratch;
          ctx.grads = &grads;
          // Forward leaves the lowering Backward may reuse; its output
          // is replaced by `out`, whose signs (and signed zeros) drive
          // the activation gradient.
          Batch fwd(batch, os);
          conv.Forward(in, fwd, ctx);
          Batch delta_in(batch, l.in);
          conv.Backward(in, out, delta_out, delta_in, ctx);

          std::vector<float> wgrad = weight0, bgrad = bias0;
          Batch want_in(batch, l.in);
          for (int s0 = 0; s0 < batch; s0 += kConvBatchBlock) {
            const int cur = std::min(kConvBatchBlock, batch - s0);
            const std::size_t wn = static_cast<std::size_t>(cur) * n;
            std::vector<float> delta_wide(m * wn), col(k * wn),
                col_delta(k * wn);
            RefDeltaAndBias(out, delta_out, s0, cur, m, n,
                            act == Activation::kLeakyRelu, delta_wide, bgrad);
            RefIm2ColBatch(g, in.Sample(s0), in.SampleSize(), cur,
                           col.data());
            ConvGemmBackward(profile, m, n, k, cur, conv.weights().data(),
                             delta_wide.data(), col.data(), wgrad.data(),
                             col_delta.data());
            RefCol2ImBatch(g, col_delta.data(), cur, want_in.Sample(s0),
                           want_in.SampleSize());
          }
          const auto where = [&] {
            return ::testing::Message()
                   << g << " filters=" << l.filters << " batch=" << batch
                   << " leaky=" << (act == Activation::kLeakyRelu)
                   << " precise=" << (profile == KernelProfile::kPrecise);
          };
          ASSERT_TRUE(SameBits(grads.bias_grads, bgrad)) << "bias " << where();
          ASSERT_TRUE(SameBits(grads.weight_grads, wgrad))
              << "weights " << where();
          ASSERT_TRUE(SameBits(delta_in.data, want_in.data))
              << "input " << where();
        }
      }
    }
  }
}

}  // namespace
}  // namespace caltrain::nn
