#include "optim/optimizer.hpp"

#include <cmath>

namespace hdczsc::optim {

float Optimizer::clip_grad_norm(float max_norm) {
  double total = 0.0;
  for (Parameter* p : params_) {
    if (!p->requires_grad) continue;
    const tensor::Tensor& grad = p->grad_buffer();
    const float* g = grad.data();
    for (std::size_t i = 0; i < grad.numel(); ++i) total += static_cast<double>(g[i]) * g[i];
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (Parameter* p : params_) {
      if (!p->requires_grad) continue;
      p->grad.scale(scale);
    }
  }
  return norm;
}

Sgd::Sgd(std::vector<Parameter*> params, float lr, float momentum, float weight_decay)
    : Optimizer(std::move(params), lr), momentum_(momentum), weight_decay_(weight_decay) {
  velocity_.reserve(params_.size());
  for (Parameter* p : params_) velocity_.emplace_back(p->value.shape());
}

void Sgd::step() {
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Parameter* p = params_[k];
    if (!p->requires_grad) continue;
    float* w = p->value.data();
    const float* g = p->grad_buffer().data();
    float* v = velocity_[k].data();
    for (std::size_t i = 0; i < p->value.numel(); ++i) {
      float grad = g[i] + weight_decay_ * w[i];
      if (momentum_ != 0.0f) {
        v[i] = momentum_ * v[i] + grad;
        grad = v[i];
      }
      w[i] -= lr_ * grad;
    }
  }
}

Adam::Adam(std::vector<Parameter*> params, float lr, float beta1, float beta2, float eps,
           float weight_decay)
    : Optimizer(std::move(params), lr), beta1_(beta1), beta2_(beta2), eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Parameter* p = params_[k];
    if (!p->requires_grad) continue;
    float* w = p->value.data();
    const float* g = p->grad_buffer().data();
    float* m = m_[k].data();
    float* v = v_[k].data();
    for (std::size_t i = 0; i < p->value.numel(); ++i) {
      float grad = g[i];
      if (!decoupled_decay_ && weight_decay_ != 0.0f) grad += weight_decay_ * w[i];
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * grad;
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * grad * grad;
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      w[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
      if (decoupled_decay_ && weight_decay_ != 0.0f) w[i] -= lr_ * weight_decay_ * w[i];
    }
  }
}

AdamW::AdamW(std::vector<Parameter*> params, float lr, float weight_decay, float beta1,
             float beta2, float eps)
    : Adam(std::move(params), lr, beta1, beta2, eps, weight_decay) {
  decoupled_decay_ = true;
}

}  // namespace hdczsc::optim
