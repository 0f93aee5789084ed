// Profile-independent kernels: im2col / col2im, single-sample and
// batched-wide variants.
//
// Nothing is bounds-checked per element: for each kernel offset the
// valid output span along each axis is computed once, im2col copies
// each span as one run (one run per channel row for same-padded
// stride-1 convs) and zero-fills the rest, and stride-1 col2im gathers
// every input element's contributions in a register, in kernel-offset
// order.  Results are bit-identical to the per-element loops.
//
// The batched variants lower a block of samples side by side into one
// wide column buffer (see kernels.hpp) and, above a fixed copy volume,
// dispatch (sample, channel) units through the thread pool.  Every
// unit writes a disjoint region with the same inner order as the
// serial loop, so results are identical at any thread count; inside an
// existing parallel region (the data-parallel training shards)
// everything runs inline.
#include "nn/kernels.hpp"

#include <algorithm>

#include "util/threadpool.hpp"

namespace caltrain::nn {

namespace {
/// Outputs [lo, hi) of one kernel offset along one axis: those o whose
/// input coordinate o*stride + off lands inside [0, extent).  Computed
/// once per (ky, kx) so the copy loops never bounds-check an element.
struct Span {
  int lo;
  int hi;
};

inline Span ValidSpan(int off, int extent, int stride, int out) noexcept {
  const int end = extent - off;  // in bounds: -off <= o*stride < end
  int lo = std::max(0, -off);
  int hi = std::clamp(end, 0, out);
  if (stride != 1) {
    lo = (lo + stride - 1) / stride;
    hi = end <= 0 ? 0 : std::min((end - 1) / stride + 1, out);
  }
  return {std::min(lo, hi), hi};
}

/// Writes one im2col row (channel plane `in_c`, kernel offset ky/kx)
/// of out_h*out_w values into `col_row`.  Each valid output row's span
/// is one contiguous (stride 1) or strided run of an input row; the
/// rows and columns where the window hangs over the padding are then
/// zero-filled, nothing is checked per element.
inline void Im2ColRow(const float* in_c, int height, int width, int ky,
                      int kx, int stride, int pad, int out_h, int out_w,
                      float* col_row) noexcept {
  const Span ys = ValidSpan(ky - pad, height, stride, out_h);
  const Span xs = ValidSpan(kx - pad, width, stride, out_w);
  const std::size_t w = static_cast<std::size_t>(out_w);
  const std::size_t run = static_cast<std::size_t>(xs.hi - xs.lo);
  float* const first = col_row + static_cast<std::size_t>(ys.lo) * w;
  float* const last = col_row + static_cast<std::size_t>(ys.hi) * w;
  std::fill(col_row, first, 0.0F);
  if (run > 0 && ys.lo < ys.hi) {
    const float* src =
        in_c + static_cast<std::size_t>(ys.lo * stride - pad + ky) * width +
        (xs.lo * stride - pad + kx);
    if (stride == 1 && out_w == width) {
      // Same-padded stride 1: input and output rows share a pitch, so
      // the window is one run.  It also fills the edge columns between
      // rows, which are zeroed below.
      std::copy_n(src, static_cast<std::size_t>(last - first) - w + run,
                  first + xs.lo);
    } else {
      for (int oy = ys.lo; oy < ys.hi; ++oy) {
        const float* row =
            src + static_cast<std::size_t>((oy - ys.lo) * stride) * width;
        float* dst = col_row + static_cast<std::size_t>(oy) * w + xs.lo;
        if (stride == 1) {
          std::copy_n(row, run, dst);
        } else {
          for (std::size_t t = 0; t < run; ++t) dst[t] = row[t * stride];
        }
      }
    }
  }
  // Edge columns of the valid rows (strided stores, never a memset
  // call per gap).
  const auto zero_column = [&](int x) {
    for (float* dst = first + x; dst < last; dst += w) *dst = 0.0F;
  };
  for (int x = 0; x < xs.lo; ++x) zero_column(x);
  for (int x = xs.hi; x < out_w; ++x) zero_column(x);
  std::fill(last, col_row + static_cast<std::size_t>(out_h) * w, 0.0F);
}

/// Lowers one channel plane into its ksize*ksize column rows, `ld`
/// floats apart.
inline void Im2ColChannel(const float* in_c, int height, int width,
                          int ksize, int stride, int pad, int out_h,
                          int out_w, float* col_c, std::size_t ld) noexcept {
  for (int ky = 0; ky < ksize; ++ky) {
    for (int kx = 0; kx < ksize; ++kx) {
      Im2ColRow(in_c, height, width, ky, kx, stride, pad, out_h, out_w,
                col_c + static_cast<std::size_t>(ky * ksize + kx) * ld);
    }
  }
}

/// Four input columns accumulated in a register.  aligned(4) keeps the
/// unaligned row loads/stores legal.
typedef float Vec4 __attribute__((vector_size(4 * sizeof(float)),
                                  aligned(alignof(float))));

/// Stride-1 col2im of one channel plane, one input row at a time: each
/// input element gathers, in a register, the column entries of every
/// kernel offset that reaches it and is stored once.  It receives the
/// same adds, in the same kernel-offset order, as the scatter form
/// `in[iy][ix] += col[kidx][oy][ox]` swept kidx by kidx, without
/// re-loading partly stored rows.  kKsize > 0 fixes ksize at compile
/// time (3x3 convs), so the per-offset loop unrolls.
template <int kKsize>
void Col2ImChannelUnitStride(const float* col_c, std::size_t ld, int height,
                             int width, int ksize_arg, int pad, int out_h,
                             int out_w, float* in_c) noexcept {
  const int ksize = kKsize > 0 ? kKsize : ksize_arg;
  // Columns [x0, x1) are reached by every kx (ox = ix + pad - kx stays
  // inside [0, out_w)); the edge columns outside take a kx sub-range.
  const int x0 = std::clamp(ksize - 1 - pad, 0, width);
  const int x1 = std::clamp(out_w - pad, x0, width);
  // Entry (ky, kx) reaching input column ix sits at
  // tap(ky)[ix + kx * kx_step]: next column row, one output left.
  const std::size_t kx_step = ld - 1;
  for (int iy = 0; iy < height; ++iy) {
    // Kernel rows whose output row oy = iy + pad - ky exists.
    const int ky0 = std::max(0, iy + pad - out_h + 1);
    const int ky1 = std::min(ksize, iy + pad + 1);
    const auto tap = [&](int ky) {
      return col_c + static_cast<std::size_t>(ky) * ksize * ld +
             static_cast<std::size_t>(iy + pad - ky) * out_w + pad;
    };
    float* in_row = in_c + static_cast<std::size_t>(iy) * width;
    const auto gather = [&](int ix, int kx0, int kx1) {
      float v = in_row[ix];
      for (int ky = ky0; ky < ky1; ++ky) {
        const float* t = tap(ky) + ix;
        for (int kx = kx0; kx < kx1; ++kx) v += t[kx * kx_step];
      }
      in_row[ix] = v;
    };
    // Four columns starting at ix, from the row as it is.
    const auto gather4 = [&](int ix, Vec4& v) {
      __builtin_memcpy(&v, in_row + ix, sizeof v);
      for (int ky = ky0; ky < ky1; ++ky) {
        const float* t = tap(ky) + ix;
        for (int kx = 0; kx < ksize; ++kx) {
          Vec4 c;
          __builtin_memcpy(&c, t + kx * kx_step, sizeof c);
          v += c;
        }
      }
    };
    for (int ix = 0; ix < x0; ++ix) {
      gather(ix, std::max(0, ix + pad - out_w + 1), ix + pad + 1);
    }
    if (x1 - x0 >= 4) {
      // A ragged interior ends with one overlapping block computed from
      // the unmodified row first: its overlap holds the same values the
      // main blocks store.
      Vec4 v, tail;
      gather4(x1 - 4, tail);
      for (int ix = x0; ix + 4 < x1; ix += 4) {
        gather4(ix, v);
        __builtin_memcpy(in_row + ix, &v, sizeof v);
      }
      __builtin_memcpy(in_row + x1 - 4, &tail, sizeof tail);
    } else {
      for (int ix = x0; ix < x1; ++ix) gather(ix, 0, ksize);
    }
    for (int ix = x1; ix < width; ++ix) {
      gather(ix, ix + pad - out_w + 1, std::min(ksize, ix + pad + 1));
    }
  }
}

/// Scatter-adds one channel's ksize*ksize column rows back into the
/// channel plane `in_c`.  Rows of the column block are `ld` floats
/// apart.  Every input element receives its adds in kernel-offset
/// order; strided convs sweep offset by offset over the valid spans
/// (within one offset the targets are distinct).
inline void Col2ImChannel(const float* col_c, std::size_t ld, int height,
                          int width, int ksize, int stride, int pad,
                          int out_h, int out_w, float* in_c) noexcept {
  if (stride == 1) {
    (ksize == 3 ? Col2ImChannelUnitStride<3> : Col2ImChannelUnitStride<0>)(
        col_c, ld, height, width, ksize, pad, out_h, out_w, in_c);
    return;
  }
  const int channel_cols = ksize * ksize;
  for (int kidx = 0; kidx < channel_cols; ++kidx) {
    const int ky = kidx / ksize;
    const int kx = kidx % ksize;
    const Span ys = ValidSpan(ky - pad, height, stride, out_h);
    const Span xs = ValidSpan(kx - pad, width, stride, out_w);
    const float* col_row = col_c + static_cast<std::size_t>(kidx) * ld;
    for (int oy = ys.lo; oy < ys.hi; ++oy) {
      const float* src = col_row + static_cast<std::size_t>(oy) * out_w;
      float* dst = in_c + static_cast<std::size_t>(oy * stride - pad + ky) *
                              width;
      for (int ox = xs.lo; ox < xs.hi; ++ox) {
        dst[ox * stride - pad + kx] += src[ox];
      }
    }
  }
}

/// Copy volume (floats moved) below which a pool dispatch costs more
/// than the copy it splits, e.g. a batch-1 forward on a caller thread:
/// on a 4-vCPU x86 host a 4-way split of a 1.8 MB lowering was no
/// faster than the serial span copy.  Depends only on the shape, like
/// the tiled GEMM's UseTiled gate.
constexpr std::size_t kMinParallelFloats = std::size_t{1} << 19;

// The guard deliberately short-circuits *before* the std::function
// type erasure inside ParallelFor (same pattern as the GEMM bodies'
// ForEachRowBlock): the nested/serial case is the per-shard training
// hot path and must cost exactly the plain loop.
template <typename Fn>
inline void ForEachUnit(std::size_t count, std::size_t floats, Fn&& fn) {
  if (count < 2 || floats < kMinParallelFloats ||
      util::Parallelism::threads() <= 1 || util::InParallelRegion()) {
    for (std::size_t u = 0; u < count; ++u) fn(u);
    return;
  }
  util::ParallelFor(0, count, std::forward<Fn>(fn));
}
}  // namespace

void Im2Col(const float* in, int channels, int height, int width, int ksize,
            int stride, int pad, float* col) noexcept {
  const int out_h = (height + 2 * pad - ksize) / stride + 1;
  const int out_w = (width + 2 * pad - ksize) / stride + 1;
  const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t channel_cols = static_cast<std::size_t>(ksize) * ksize;
  for (int c = 0; c < channels; ++c) {
    Im2ColChannel(in + static_cast<std::size_t>(c) * height * width, height,
                  width, ksize, stride, pad, out_h, out_w,
                  col + static_cast<std::size_t>(c) * channel_cols * out_hw,
                  out_hw);
  }
}

void Col2Im(const float* col, int channels, int height, int width, int ksize,
            int stride, int pad, float* in) noexcept {
  const int out_h = (height + 2 * pad - ksize) / stride + 1;
  const int out_w = (width + 2 * pad - ksize) / stride + 1;
  const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t channel_cols = static_cast<std::size_t>(ksize) * ksize;
  for (int c = 0; c < channels; ++c) {
    Col2ImChannel(col + static_cast<std::size_t>(c) * channel_cols * out_hw,
                  out_hw, height, width, ksize, stride, pad, out_h, out_w,
                  in + static_cast<std::size_t>(c) * height * width);
  }
}

void Im2ColBatch(const float* in, std::size_t sample_stride, int batch,
                 int channels, int height, int width, int ksize, int stride,
                 int pad, float* col_wide) {
  const int out_h = (height + 2 * pad - ksize) / stride + 1;
  const int out_w = (width + 2 * pad - ksize) / stride + 1;
  const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t ld = static_cast<std::size_t>(batch) * out_hw;
  const std::size_t channel_cols = static_cast<std::size_t>(ksize) * ksize;
  // One unit per (sample, channel): disjoint destination rows, so the
  // parallel sweep is a pure deterministic copy.
  ForEachUnit(static_cast<std::size_t>(batch) * channels,
              static_cast<std::size_t>(channels) * channel_cols * ld,
              [=](std::size_t u) {
    const std::size_t s = u / static_cast<std::size_t>(channels);
    const int c = static_cast<int>(u % static_cast<std::size_t>(channels));
    Im2ColChannel(in + s * sample_stride +
                      static_cast<std::size_t>(c) * height * width,
                  height, width, ksize, stride, pad, out_h, out_w,
                  col_wide + s * out_hw +
                      static_cast<std::size_t>(c) * channel_cols * ld,
                  ld);
  });
}

void Col2ImBatch(const float* col_wide, int batch, int channels, int height,
                 int width, int ksize, int stride, int pad, float* in,
                 std::size_t sample_stride) {
  const int out_h = (height + 2 * pad - ksize) / stride + 1;
  const int out_w = (width + 2 * pad - ksize) / stride + 1;
  const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t ld = static_cast<std::size_t>(batch) * out_hw;
  const std::size_t channel_cols = static_cast<std::size_t>(ksize) * ksize;
  // One unit per (sample, channel): each scatter region is disjoint
  // and keeps the serial within-channel accumulation order.
  ForEachUnit(static_cast<std::size_t>(batch) * channels,
              static_cast<std::size_t>(channels) * channel_cols * ld,
              [=](std::size_t u) {
    const std::size_t s = u / static_cast<std::size_t>(channels);
    const int c = static_cast<int>(u % static_cast<std::size_t>(channels));
    Col2ImChannel(col_wide + s * out_hw +
                      static_cast<std::size_t>(c) * channel_cols * ld,
                  ld, height, width, ksize, stride, pad, out_h, out_w,
                  in + s * sample_stride +
                      static_cast<std::size_t>(c) * height * width);
  });
}

}  // namespace caltrain::nn
