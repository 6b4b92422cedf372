#include "nn/conv2d.hpp"

#include <algorithm>
#include <cstring>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/scratch.hpp"
#include "util/parallel.hpp"

namespace hdczsc::nn {

void im2col(const float* input, std::size_t channels, std::size_t height, std::size_t width,
            std::size_t kh, std::size_t kw, std::size_t stride, std::size_t pad, float* columns,
            std::size_t col_stride) {
  const std::size_t out_h = (height + 2 * pad - kh) / stride + 1;
  const std::size_t out_w = (width + 2 * pad - kw) / stride + 1;
  const std::size_t ncols = out_h * out_w;
  const std::size_t rstride = col_stride == 0 ? ncols : col_stride;
  const long lpad = static_cast<long>(pad), lstride = static_cast<long>(stride);
  const long lwidth = static_cast<long>(width), lout_w = static_cast<long>(out_w);
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ki = 0; ki < kh; ++ki) {
      for (std::size_t kj = 0; kj < kw; ++kj, ++row) {
        // Output columns ox in [lo, hi) read input column
        // ix = ox*stride + kj - pad inside [0, width); the rest are padding.
        const long off = static_cast<long>(kj) - lpad;
        const long lo = off >= 0 ? 0 : std::min(lout_w, (-off + lstride - 1) / lstride);
        const long end = lwidth - off;  // in bounds while ox*stride < end
        const long hi = std::clamp(end <= 0 ? 0 : (end + lstride - 1) / lstride, lo, lout_w);
        const std::size_t ulo = static_cast<std::size_t>(lo), uhi = static_cast<std::size_t>(hi);
        float* dst = columns + row * rstride;
        for (std::size_t oy = 0; oy < out_h; ++oy, dst += out_w) {
          const long iy = static_cast<long>(oy * stride + ki) - lpad;
          if (iy < 0 || iy >= static_cast<long>(height)) {
            std::memset(dst, 0, out_w * sizeof(float));
            continue;
          }
          const float* src_row = input + (c * height + static_cast<std::size_t>(iy)) * width;
          std::memset(dst, 0, ulo * sizeof(float));
          if (uhi > ulo) {
            const float* src = src_row + (lo * lstride + off);
            if (stride == 1) {
              std::memcpy(dst + ulo, src, (uhi - ulo) * sizeof(float));
            } else {
              for (std::size_t ox = ulo; ox < uhi; ++ox, src += stride) dst[ox] = *src;
            }
          }
          std::memset(dst + uhi, 0, (out_w - uhi) * sizeof(float));
        }
      }
    }
  }
}

void col2im(const float* columns, std::size_t channels, std::size_t height, std::size_t width,
            std::size_t kh, std::size_t kw, std::size_t stride, std::size_t pad, float* input,
            std::size_t col_stride) {
  const std::size_t out_h = (height + 2 * pad - kh) / stride + 1;
  const std::size_t out_w = (width + 2 * pad - kw) / stride + 1;
  const std::size_t ncols = out_h * out_w;
  const std::size_t rstride = col_stride == 0 ? ncols : col_stride;
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ki = 0; ki < kh; ++ki) {
      for (std::size_t kj = 0; kj < kw; ++kj, ++row) {
        const float* src = columns + row * rstride;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          const long iy = static_cast<long>(oy * stride + ki) - static_cast<long>(pad);
          if (iy < 0 || iy >= static_cast<long>(height)) continue;
          float* dst_row = input + (c * height + static_cast<std::size_t>(iy)) * width;
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            const long ix = static_cast<long>(ox * stride + kj) - static_cast<long>(pad);
            if (ix < 0 || ix >= static_cast<long>(width)) continue;
            dst_row[static_cast<std::size_t>(ix)] += src[oy * out_w + ox];
          }
        }
      }
    }
  }
}

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t pad, util::Rng& rng, bool bias)
    : in_c_(in_channels), out_c_(out_channels), k_(kernel), stride_(stride), pad_(pad),
      has_bias_(bias) {
  Tensor w({out_c_, in_c_, k_, k_});
  kaiming_normal(w, in_c_ * k_ * k_, rng);
  w_ = Parameter(std::move(w), "conv.weight");
  b_ = Parameter(Tensor({out_c_}), "conv.bias");
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  if (x.dim() != 4 || x.size(1) != in_c_)
    throw std::invalid_argument("Conv2d::forward: input " + tensor::shape_str(x.shape()) +
                                " incompatible with in_channels=" + std::to_string(in_c_));
  const std::size_t batch = x.size(0), h = x.size(2), w = x.size(3);
  const std::size_t oh = out_size(h), ow = out_size(w);
  if (train) cached_input_ = x;

  Tensor y({batch, out_c_, oh, ow});
  const std::size_t krows = in_c_ * k_ * k_;
  const std::size_t ncols = oh * ow;
  const float* W = w_.value.data();
  const float* X = x.data();
  float* Y = y.data();

  // One image at a time: its [krows, oh*ow] column matrix stays cache-sized
  // whatever the batch, and the GEMM writes that image's NCHW output slice
  // [out_c, oh*ow] directly. Images fan out across workers; each fetches
  // its own thread-local column scratch.
  util::parallel_for(0, batch, [&](std::size_t b) {
    float* cols = tensor::scratch_f32(tensor::kScratchConvCols, krows * ncols);
    im2col(X + b * in_c_ * h * w, in_c_, h, w, k_, k_, stride_, pad_, cols);
    float* yb = Y + b * out_c_ * ncols;  // y starts zeroed
    tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::N, out_c_, ncols, krows, W, krows,
                            cols, ncols, yb, ncols);
    if (has_bias_) {
      for (std::size_t oc = 0; oc < out_c_; ++oc) {
        const float bv = b_.value[oc];
        float* yrow = yb + oc * ncols;
        for (std::size_t c = 0; c < ncols; ++c) yrow[c] += bv;
      }
    }
  }, 1);
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  if (cached_input_.empty())
    throw std::logic_error("Conv2d::backward called before forward(train=true)");
  const Tensor& x = cached_input_;
  const std::size_t batch = x.size(0), h = x.size(2), w = x.size(3);
  const std::size_t oh = out_size(h), ow = out_size(w);
  if (grad_out.dim() != 4 || grad_out.size(0) != batch || grad_out.size(1) != out_c_ ||
      grad_out.size(2) != oh || grad_out.size(3) != ow)
    throw std::invalid_argument("Conv2d::backward: grad shape " +
                                tensor::shape_str(grad_out.shape()));

  const std::size_t krows = in_c_ * k_ * k_;
  const std::size_t ncols = oh * ow;
  const std::size_t total = batch * ncols;
  Tensor dx({batch, in_c_, h, w});
  const float* W = w_.value.data();
  const float* X = x.data();
  const float* G = grad_out.data();
  float* DX = dx.data();
  float* DW = w_.grad_buffer().data();
  float* DB = b_.grad_buffer().data();

  // Rebuild the whole-batch column matrix (same layout as forward).
  float* cols = tensor::scratch_f32(tensor::kScratchConvCols, krows * total);
  util::parallel_for(0, batch, [&](std::size_t b) {
    im2col(X + b * in_c_ * h * w, in_c_, h, w, k_, k_, stride_, pad_, cols + b * ncols, total);
  }, 1);

  // Gather NCHW output grads into channel-major gbig[out_c, batch*ncols] so
  // both parameter-grad GEMMs see one contiguous matrix.
  float* gbig = tensor::scratch_f32(tensor::kScratchConvOut, out_c_ * total);
  util::parallel_for(0, batch, [&](std::size_t b) {
    const float* gb = G + b * out_c_ * ncols;
    for (std::size_t oc = 0; oc < out_c_; ++oc)
      std::memcpy(gbig + oc * total + b * ncols, gb + oc * ncols, ncols * sizeof(float));
  }, 1);

  // dW[out_c, krows] += gbig * cols^T — one GEMM-NT for the whole batch,
  // accumulating straight into the parameter gradient.
  tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::T, out_c_, krows, total, gbig, total,
                          cols, total, DW, krows);
  if (has_bias_) {
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      const float* grow = gbig + oc * total;
      double acc = 0.0;
      for (std::size_t c = 0; c < total; ++c) acc += grow[c];
      DB[oc] += static_cast<float>(acc);
    }
  }

  // dcols[krows, batch*ncols] = W^T * gbig — one GEMM-TN — then fold each
  // image's column slice back to input space.
  float* dcols = tensor::scratch_f32(tensor::kScratchConvDCols, krows * total);
  std::memset(dcols, 0, krows * total * sizeof(float));
  tensor::gemm_accumulate(tensor::Trans::T, tensor::Trans::N, krows, total, out_c_, W, krows,
                          gbig, total, dcols, total);
  util::parallel_for(0, batch, [&](std::size_t b) {
    col2im(dcols + b * ncols, in_c_, h, w, k_, k_, stride_, pad_, DX + b * in_c_ * h * w, total);
  }, 1);
  return dx;
}

std::vector<Parameter*> Conv2d::parameters() {
  if (has_bias_) return {&w_, &b_};
  return {&w_};
}

}  // namespace hdczsc::nn
