#pragma once

#include <string>
#include <vector>

#include "nn/model.h"
#include "util/rng.h"

namespace cea::nn {

/// Shape of the classifier input and output.
struct InputSpec {
  std::size_t channels = 1;
  std::size_t height = 28;
  std::size_t width = 28;
  std::size_t classes = 10;
};

/// MNIST-like spec (28x28x1, 10 classes).
InputSpec mnist_spec() noexcept;
/// CIFAR-10-like spec (32x32x3, 10 classes).
InputSpec cifar_spec() noexcept;

/// The paper's CNN: two 3x3 conv layers (c1, c2 channels) with ReLU, each
/// followed by 2x2 max pooling, then a fully-connected softmax head.
Sequential make_simple_cnn(const std::string& name, const InputSpec& spec,
                           std::size_t c1, std::size_t c2, Rng& rng);

/// LeNet-5 (LeCun et al. 1998) with a channel scale factor; scale=1 is the
/// classic 6/16/120/84 configuration.
Sequential make_lenet5(const std::string& name, const InputSpec& spec,
                       double scale, Rng& rng);

/// MLP with two fully-connected layers (hidden -> classes).
Sequential make_mlp(const std::string& name, const InputSpec& spec,
                    std::size_t hidden, Rng& rng);

/// A reduced MobileNet V1 (Howard et al. 2017): strided stem conv followed
/// by depthwise-separable blocks and a global-average-pool head. `width`
/// scales all channel counts (the MobileNet width multiplier).
Sequential make_mobilenet_lite(const std::string& name, const InputSpec& spec,
                               double width, Rng& rng);

/// Six MNIST models, as in the paper's Section V-A: two CNNs, two LeNet-5
/// variants, two MLPs.
std::vector<Sequential> make_mnist_zoo(Rng& rng);

/// Six CIFAR-10 models: two CNNs, two LeNet-5 variants, two MobileNets.
std::vector<Sequential> make_cifar_zoo(Rng& rng);

}  // namespace cea::nn
