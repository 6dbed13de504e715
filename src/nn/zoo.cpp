#include "nn/zoo.h"

#include <algorithm>
#include <cmath>

namespace cea::nn {
namespace {

std::size_t scaled(std::size_t base, double factor) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(
                                      std::lround(base * factor)));
}

}  // namespace

InputSpec mnist_spec() noexcept { return {1, 28, 28, 10}; }
InputSpec cifar_spec() noexcept { return {3, 32, 32, 10}; }

Sequential make_simple_cnn(const std::string& name, const InputSpec& spec,
                           std::size_t c1, std::size_t c2, Rng& rng) {
  Sequential model(name);
  model.emplace<Conv2D>(spec.channels, c1, 3, 1, 1, rng);
  model.emplace<ReLU>();
  model.emplace<MaxPool2D>(2);
  model.emplace<Conv2D>(c1, c2, 3, 1, 1, rng);
  model.emplace<ReLU>();
  model.emplace<MaxPool2D>(2);
  model.emplace<Flatten>();
  const std::size_t flat = c2 * (spec.height / 4) * (spec.width / 4);
  model.emplace<Dense>(flat, spec.classes, rng);
  return model;
}

Sequential make_lenet5(const std::string& name, const InputSpec& spec,
                       double scale, Rng& rng) {
  Sequential model(name);
  const std::size_t c1 = scaled(6, scale);
  const std::size_t c2 = scaled(16, scale);
  const std::size_t f1 = scaled(120, scale);
  const std::size_t f2 = scaled(84, scale);
  // Classic LeNet expects 32x32; pad 28x28 inputs by 2 in the first conv.
  const std::size_t pad = spec.height == 28 ? 2 : 0;
  model.emplace<Conv2D>(spec.channels, c1, 5, 1, pad, rng);
  model.emplace<ReLU>();
  model.emplace<MaxPool2D>(2);
  model.emplace<Conv2D>(c1, c2, 5, 1, 0, rng);
  model.emplace<ReLU>();
  model.emplace<MaxPool2D>(2);
  model.emplace<Flatten>();
  model.emplace<Dense>(c2 * 5 * 5, f1, rng);
  model.emplace<ReLU>();
  model.emplace<Dense>(f1, f2, rng);
  model.emplace<ReLU>();
  model.emplace<Dense>(f2, spec.classes, rng);
  return model;
}

Sequential make_mlp(const std::string& name, const InputSpec& spec,
                    std::size_t hidden, Rng& rng) {
  Sequential model(name);
  const std::size_t flat = spec.channels * spec.height * spec.width;
  model.emplace<Flatten>();
  model.emplace<Dense>(flat, hidden, rng);
  model.emplace<ReLU>();
  model.emplace<Dense>(hidden, spec.classes, rng);
  return model;
}

Sequential make_mobilenet_lite(const std::string& name, const InputSpec& spec,
                               double width, Rng& rng) {
  Sequential model(name);
  const std::size_t stem = scaled(8, width);
  const std::size_t mid = scaled(16, width);
  const std::size_t head = scaled(32, width);
  // Stem: strided standard conv.
  model.emplace<Conv2D>(spec.channels, stem, 3, 2, 1, rng);
  model.emplace<ReLU>();
  // Block 1: depthwise separable, stride 1.
  model.emplace<DepthwiseConv2D>(stem, 3, 1, 1, rng);
  model.emplace<Conv2D>(stem, mid, 1, 1, 0, rng);
  model.emplace<ReLU>();
  // Block 2: depthwise separable, stride 2.
  model.emplace<DepthwiseConv2D>(mid, 3, 2, 1, rng);
  model.emplace<Conv2D>(mid, head, 1, 1, 0, rng);
  model.emplace<ReLU>();
  model.emplace<GlobalAvgPool>();
  model.emplace<Dense>(head, spec.classes, rng);
  return model;
}

std::vector<Sequential> make_mnist_zoo(Rng& rng) {
  const InputSpec spec = mnist_spec();
  std::vector<Sequential> zoo;
  zoo.push_back(make_simple_cnn("mnist-cnn-32x64", spec, 32, 64, rng));
  zoo.push_back(make_simple_cnn("mnist-cnn-16x32", spec, 16, 32, rng));
  zoo.push_back(make_lenet5("mnist-lenet5", spec, 1.0, rng));
  zoo.push_back(make_lenet5("mnist-lenet5-half", spec, 0.5, rng));
  zoo.push_back(make_mlp("mnist-mlp-256", spec, 256, rng));
  zoo.push_back(make_mlp("mnist-mlp-64", spec, 64, rng));
  return zoo;
}

std::vector<Sequential> make_cifar_zoo(Rng& rng) {
  const InputSpec spec = cifar_spec();
  std::vector<Sequential> zoo;
  zoo.push_back(make_simple_cnn("cifar-cnn-64x128", spec, 64, 128, rng));
  zoo.push_back(make_simple_cnn("cifar-cnn-32x64", spec, 32, 64, rng));
  zoo.push_back(make_lenet5("cifar-lenet5", spec, 1.0, rng));
  zoo.push_back(make_lenet5("cifar-lenet5-half", spec, 0.5, rng));
  zoo.push_back(make_mobilenet_lite("cifar-mobilenet", spec, 1.0, rng));
  zoo.push_back(make_mobilenet_lite("cifar-mobilenet-half", spec, 0.5, rng));
  return zoo;
}

}  // namespace cea::nn
