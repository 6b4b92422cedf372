#include "core/similarity.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace hdczsc::core {

SimilarityKernel::SimilarityKernel(float init_scale) {
  if (init_scale <= 0.0f)
    throw std::invalid_argument("SimilarityKernel: init_scale must be positive");
  Tensor v({1});
  v[0] = std::log(init_scale);
  log_scale_ = Parameter(std::move(v), "similarity.log_scale");
}

float SimilarityKernel::scale() const { return std::exp(log_scale_.value[0]); }

Tensor SimilarityKernel::forward(const Tensor& e, const Tensor& c, bool train) {
  if (e.dim() != 2 || c.dim() != 2 || e.size(1) != c.size(1))
    throw std::invalid_argument("SimilarityKernel::forward: need [B,d] x [C,d], got " +
                                tensor::shape_str(e.shape()) + " and " +
                                tensor::shape_str(c.shape()));
  Tensor e_norms, c_norms;
  Tensor e_hat = tensor::l2_normalize_rows(e, &e_norms);
  Tensor c_hat = tensor::l2_normalize_rows(c, &c_norms);
  Tensor cos = tensor::matmul_nt(e_hat, c_hat);
  if (train) {
    e_hat_ = e_hat;
    c_hat_ = c_hat;
    e_norms_ = e_norms;
    c_norms_ = c_norms;
    cos_ = cos;
  }
  return tensor::mul_scalar(cos, scale());
}

SimilarityKernel::Grads SimilarityKernel::backward(const Tensor& grad_logits) {
  if (cos_.empty())
    throw std::logic_error("SimilarityKernel::backward called before forward(train=true)");
  if (grad_logits.shape() != cos_.shape())
    throw std::invalid_argument("SimilarityKernel::backward: grad shape mismatch");

  const float s = scale();
  const std::size_t batch = e_hat_.size(0), classes = c_hat_.size(0), d = e_hat_.size(1);

  // dL/dλ = s * sum(dP ∘ cos).
  {
    const float* G = grad_logits.data();
    const float* C = cos_.data();
    double acc = 0.0;
    for (std::size_t i = 0; i < grad_logits.numel(); ++i) acc += static_cast<double>(G[i]) * C[i];
    log_scale_.grad_buffer()[0] += static_cast<float>(s * acc);
  }

  // dL/dÊ = s * dP * Ĉ ; dL/dĈ = s * dPᵀ * Ê.
  Tensor d_ehat = tensor::mul_scalar(tensor::matmul(grad_logits, c_hat_), s);      // [B, d]
  Tensor d_chat = tensor::mul_scalar(tensor::matmul_tn(grad_logits, e_hat_), s);   // [C, d]

  // Undo the row normalizations.
  auto denormalize = [d](const Tensor& d_hat, const Tensor& hat, const Tensor& norms) {
    Tensor out(d_hat.shape());
    const std::size_t rows = d_hat.size(0);
    const float* DH = d_hat.data();
    const float* H = hat.data();
    float* O = out.data();
    for (std::size_t i = 0; i < rows; ++i) {
      const float* dh = DH + i * d;
      const float* h = H + i * d;
      float* o = O + i * d;
      double dot = 0.0;
      for (std::size_t j = 0; j < d; ++j) dot += static_cast<double>(dh[j]) * h[j];
      const float n = norms[i] > 1e-12f ? norms[i] : 1.0f;
      const float inv = 1.0f / n;
      for (std::size_t j = 0; j < d; ++j)
        o[j] = (dh[j] - static_cast<float>(dot) * h[j]) * inv;
    }
    return out;
  };

  Grads g;
  g.grad_e = denormalize(d_ehat, e_hat_, e_norms_);
  g.grad_c = denormalize(d_chat, c_hat_, c_norms_);
  (void)batch;
  (void)classes;
  return g;
}

}  // namespace hdczsc::core
