#include <gtest/gtest.h>

#include <cmath>

#include "nn/layers.h"
#include "nn/model.h"

namespace cea::nn {
namespace {

Tensor ones(std::size_t n) {
  Tensor t({1, n});
  t.fill(1.0f);
  return t;
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout dropout(0.5, 1);
  dropout.set_training(false);
  const Tensor in = ones(100);
  const Tensor out = dropout.forward(in);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 1.0f);
}

TEST(Dropout, ZeroRateIsIdentity) {
  Dropout dropout(0.0, 2);
  const Tensor in = ones(50);
  const Tensor out = dropout.forward(in);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 1.0f);
}

TEST(Dropout, DropsApproximatelyRateFraction) {
  Dropout dropout(0.3, 3);
  const Tensor in = ones(20000);
  const Tensor out = dropout.forward(in);
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < out.size(); ++i) dropped += (out[i] == 0.0f);
  EXPECT_NEAR(static_cast<double>(dropped) / 20000.0, 0.3, 0.02);
}

TEST(Dropout, SurvivorsScaledToPreserveExpectation) {
  Dropout dropout(0.25, 4);
  const Tensor in = ones(20000);
  const Tensor out = dropout.forward(in);
  double total = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] != 0.0f) {
      EXPECT_NEAR(out[i], 1.0f / 0.75f, 1e-5f);
    }
    total += out[i];
  }
  EXPECT_NEAR(total / 20000.0, 1.0, 0.03);  // inverted-dropout invariance
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout dropout(0.5, 5);
  const Tensor in = ones(1000);
  const Tensor out = dropout.forward(in);
  Tensor grad({1, 1000});
  grad.fill(2.0f);
  const Tensor gin = dropout.backward(grad);
  for (std::size_t i = 0; i < 1000; ++i) {
    if (out[i] == 0.0f) {
      EXPECT_EQ(gin[i], 0.0f);
    } else {
      EXPECT_NEAR(gin[i], 2.0f * out[i], 1e-5f);  // same scale as forward
    }
  }
}

TEST(Dropout, SequentialSetTrainingToggles) {
  Rng rng(6);
  Sequential model("d");
  model.emplace<Dense>(10, 10, rng);
  model.emplace<Dropout>(0.9, 7);
  Tensor in({1, 10});
  in.fill(1.0f);
  model.set_training(false);
  const Tensor eval_a = model.forward(in);
  const Tensor eval_b = model.forward(in);
  for (std::size_t i = 0; i < eval_a.size(); ++i)
    EXPECT_EQ(eval_a[i], eval_b[i]);  // eval mode deterministic
  model.set_training(true);
  const Tensor train_a = model.forward(in);
  int diff = 0;
  for (std::size_t i = 0; i < train_a.size(); ++i)
    diff += (train_a[i] != eval_a[i]);
  EXPECT_GT(diff, 0);  // training mode stochastic
}

}  // namespace
}  // namespace cea::nn
