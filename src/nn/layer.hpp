// Layer abstraction with explicit forward/backward (define-by-layer
// backpropagation, the style of classic C++ DNN frameworks).
//
// Each layer caches what it needs during forward(train=true) and consumes
// the cache in backward(). Parameters accumulate gradients; optimizers
// consume Parameter::grad and the trainer zeroes them between steps.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace hdczsc::nn {

using tensor::Shape;
using tensor::Tensor;

/// A named reference to a non-trainable state tensor (BatchNorm running
/// statistics). Buffers are invisible to optimizers but must be persisted
/// alongside the parameters for eval-mode forwards to be reproducible.
struct BufferRef {
  std::string name;
  Tensor* tensor = nullptr;
};

/// A learnable tensor with its gradient accumulator.
struct Parameter {
  Tensor value;
  /// Empty until first use, so a model built only to serve (snapshot
  /// loading) keeps no zero-filled copy of its weights' size resident;
  /// backward passes and optimizers go through grad_buffer().
  Tensor grad;
  std::string name;
  bool requires_grad = true;

  explicit Parameter(Tensor v = {}, std::string n = "")
      : value(std::move(v)), name(std::move(n)) {}

  /// The gradient accumulator, created zeroed if this parameter has none.
  Tensor& grad_buffer() {
    if (grad.shape() != value.shape()) grad = Tensor(value.shape());
    return grad;
  }
  void zero_grad() { grad_buffer().zero(); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass. When `train` is true the layer caches activations for
  /// backward() and uses batch statistics (BatchNorm) / active dropout.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Backward pass: takes dL/d(output), accumulates parameter grads,
  /// returns dL/d(input). Must be preceded by forward(train=true).
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// All learnable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// All non-trainable state tensors (empty for layers whose eval forward
  /// depends only on parameters).
  virtual std::vector<BufferRef> buffers() { return {}; }

  virtual std::string name() const = 0;

  /// Freeze/unfreeze: frozen layers still backprop input grads but their
  /// parameters are marked requires_grad=false so optimizers skip them.
  void set_frozen(bool frozen) {
    for (Parameter* p : parameters()) p->requires_grad = !frozen;
  }

  /// Total parameter element count.
  std::size_t parameter_count() {
    std::size_t n = 0;
    for (Parameter* p : parameters()) n += p->value.numel();
    return n;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace hdczsc::nn
