#include "nn/conv2d.hpp"

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
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ki = 0; ki < kh; ++ki) {
      for (std::size_t kj = 0; kj < kw; ++kj, ++row) {
        float* dst = columns + row * rstride;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          const long iy = static_cast<long>(oy * stride + ki) - static_cast<long>(pad);
          if (iy < 0 || iy >= static_cast<long>(height)) {
            std::memset(dst + oy * out_w, 0, out_w * sizeof(float));
            continue;
          }
          const float* src_row = input + (c * height + static_cast<std::size_t>(iy)) * width;
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            const long ix = static_cast<long>(ox * stride + kj) - static_cast<long>(pad);
            dst[oy * out_w + ox] =
                (ix < 0 || ix >= static_cast<long>(width)) ? 0.0f
                                                           : src_row[static_cast<std::size_t>(ix)];
          }
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
  const std::size_t total = batch * ncols;
  const float* W = w_.value.data();
  const float* X = x.data();
  float* Y = y.data();

  // Whole-batch column matrix [krows, batch*ncols]: image b owns the
  // contiguous column slice [b*ncols, (b+1)*ncols).
  float* cols = tensor::scratch_f32(tensor::kScratchConvCols, krows * total);
  util::parallel_for(0, batch, [&](std::size_t b) {
    im2col(X + b * in_c_ * h * w, in_c_, h, w, k_, k_, stride_, pad_, cols + b * ncols, total);
  }, 1);

  // One GEMM for the whole batch: out[out_c, batch*ncols] = W_flat * cols.
  float* out = tensor::scratch_f32(tensor::kScratchConvOut, out_c_ * total);
  std::memset(out, 0, out_c_ * total * sizeof(float));
  tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::N, out_c_, total, krows, W, krows,
                          cols, total, out, total);

  // Scatter channel-major GEMM rows back to NCHW, folding in the bias.
  util::parallel_for(0, batch, [&](std::size_t b) {
    float* yb = Y + b * out_c_ * ncols;
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      const float* src = out + oc * total + b * ncols;
      float* yrow = yb + oc * ncols;
      if (has_bias_) {
        const float bv = b_.value[oc];
        for (std::size_t c = 0; c < ncols; ++c) yrow[c] = src[c] + bv;
      } else {
        std::memcpy(yrow, src, ncols * sizeof(float));
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
