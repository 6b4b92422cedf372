#include <gtest/gtest.h>

#include <cmath>

#include "nn/linear.hpp"
#include "optim/optimizer.hpp"
#include "optim/scheduler.hpp"

namespace hdczsc {
namespace {

using nn::Parameter;
using nn::Tensor;

/// Quadratic bowl f(w) = 0.5 ||w - target||²; grad = w - target.
void quadratic_grad(Parameter& p, const Tensor& target) {
  p.zero_grad();
  for (std::size_t i = 0; i < p.value.numel(); ++i)
    p.grad_buffer()[i] = p.value[i] - target[i];
}

TEST(Sgd, ConvergesOnQuadratic) {
  Parameter p(Tensor({4}, 5.0f));
  Tensor target = Tensor::from_vector({1.0f, -2.0f, 0.5f, 3.0f});
  optim::Sgd opt({&p}, 0.2f);
  for (int i = 0; i < 100; ++i) {
    quadratic_grad(p, target);
    opt.step();
  }
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(p.value[i], target[i], 1e-3);
}

TEST(Sgd, MomentumAcceleratesDescent) {
  Parameter plain(Tensor({1}, 10.0f));
  Parameter mom(Tensor({1}, 10.0f));
  Tensor target({1});
  optim::Sgd opt_plain({&plain}, 0.02f);
  optim::Sgd opt_mom({&mom}, 0.02f, 0.9f);
  for (int i = 0; i < 25; ++i) {
    quadratic_grad(plain, target);
    opt_plain.step();
    quadratic_grad(mom, target);
    opt_mom.step();
  }
  EXPECT_LT(std::abs(mom.value[0]), std::abs(plain.value[0]));
}

TEST(Adam, ConvergesOnQuadratic) {
  Parameter p(Tensor({3}, -4.0f));
  Tensor target = Tensor::from_vector({2.0f, 0.0f, -1.0f});
  optim::Adam opt({&p}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    quadratic_grad(p, target);
    opt.step();
  }
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(p.value[i], target[i], 1e-2);
}

TEST(AdamW, DecayIsDecoupledFromAdaptiveScaling) {
  // With zero gradient, AdamW still shrinks weights by lr*wd*w per step,
  // while coupled-decay Adam would divide by sqrt(v)+eps and blow up the
  // effective decay. Verify the exact decoupled trajectory.
  Parameter p(Tensor({1}, 1.0f));
  optim::AdamW opt({&p}, 0.1f, 0.5f);
  p.zero_grad();
  opt.step();
  EXPECT_NEAR(p.value[0], 1.0f - 0.1f * 0.5f * 1.0f, 1e-6);
}

TEST(AdamW, SkipsFrozenParameters) {
  Parameter p(Tensor({2}, 1.0f));
  p.requires_grad = false;
  optim::AdamW opt({&p}, 0.5f, 0.5f);
  p.grad_buffer().fill(1.0f);
  opt.step();
  EXPECT_FLOAT_EQ(p.value[0], 1.0f);
}

TEST(Optimizer, ZeroGradClears) {
  Parameter p(Tensor({2}, 1.0f));
  p.grad_buffer().fill(3.0f);
  optim::Sgd opt({&p}, 0.1f);
  opt.zero_grad();
  EXPECT_FLOAT_EQ(p.grad[0], 0.0f);
}

TEST(Optimizer, ClipGradNormScalesDown) {
  Parameter p(Tensor({2}));
  p.grad = Tensor::from_vector({3.0f, 4.0f});  // norm 5
  optim::Sgd opt({&p}, 0.1f);
  const float pre = opt.clip_grad_norm(1.0f);
  EXPECT_NEAR(pre, 5.0f, 1e-5);
  EXPECT_NEAR(p.grad.norm(), 1.0f, 1e-5);
}

TEST(Optimizer, ClipGradNormNoopBelowThreshold) {
  Parameter p(Tensor({2}));
  p.grad = Tensor::from_vector({0.3f, 0.4f});
  optim::Sgd opt({&p}, 0.1f);
  opt.clip_grad_norm(10.0f);
  EXPECT_NEAR(p.grad.norm(), 0.5f, 1e-6);
}

TEST(Cosine, StartsAtBaseEndsAtMin) {
  Parameter p(Tensor({1}));
  optim::Sgd opt({&p}, 1.0f);
  optim::CosineAnnealingLR sched(opt, 10, 0.1f);
  EXPECT_NEAR(sched.lr_at(0), 1.0f, 1e-6);
  EXPECT_NEAR(sched.lr_at(10), 0.1f, 1e-6);
  EXPECT_NEAR(sched.lr_at(5), 0.55f, 1e-6);  // midpoint of cosine
}

TEST(Cosine, MonotoneNonIncreasing) {
  Parameter p(Tensor({1}));
  optim::Sgd opt({&p}, 1.0f);
  optim::CosineAnnealingLR sched(opt, 20);
  float prev = sched.lr_at(0);
  for (long t = 1; t <= 20; ++t) {
    const float cur = sched.lr_at(t);
    EXPECT_LE(cur, prev + 1e-7f);
    prev = cur;
  }
}

TEST(Cosine, StepUpdatesOptimizer) {
  Parameter p(Tensor({1}));
  optim::Sgd opt({&p}, 1.0f);
  optim::CosineAnnealingLR sched(opt, 2);
  sched.step();
  EXPECT_NEAR(opt.lr(), 0.5f, 1e-6);
  sched.step();
  EXPECT_NEAR(opt.lr(), 0.0f, 1e-6);
}

TEST(StepLr, DecaysEveryStepSize) {
  Parameter p(Tensor({1}));
  optim::Sgd opt({&p}, 1.0f);
  optim::StepLR sched(opt, 3, 0.1f);
  EXPECT_NEAR(sched.lr_at(2), 1.0f, 1e-6);
  EXPECT_NEAR(sched.lr_at(3), 0.1f, 1e-6);
  EXPECT_NEAR(sched.lr_at(6), 0.01f, 1e-6);
}

TEST(EndToEnd, LinearRegressionConvergesWithAdamW) {
  // y = x * Wᵀ + b recovery from noisy data: full optimizer + layer loop.
  util::Rng rng(9);
  nn::Linear model(3, 1, rng);
  Tensor w_true = Tensor::from_vector({1.5f, -2.0f, 0.5f});
  optim::AdamW opt(model.parameters(), 0.05f, 0.0f);
  for (int step = 0; step < 400; ++step) {
    Tensor x = Tensor::randn({16, 3}, rng);
    Tensor y_true({16, 1});
    for (std::size_t i = 0; i < 16; ++i) {
      float acc = 0.3f;  // true bias
      for (std::size_t j = 0; j < 3; ++j) acc += x.at(i, j) * w_true[j];
      y_true[i] = acc;
    }
    Tensor y = model.forward(x, true);
    Tensor grad({16, 1});
    for (std::size_t i = 0; i < 16; ++i) grad[i] = (y[i] - y_true[i]) / 16.0f;
    opt.zero_grad();
    model.backward(grad);
    opt.step();
  }
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_NEAR(model.weight().value[j], w_true[j], 0.05f);
  EXPECT_NEAR(model.bias().value[0], 0.3f, 0.05f);
}

}  // namespace
}  // namespace hdczsc
