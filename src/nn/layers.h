#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "nn/gemm.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace cea::nn {

/// Callback receiving each mutable parameter block of a layer (weights,
/// then biases). Used by serialization and quantization.
using ParameterVisitor = std::function<void(std::span<float>)>;

/// Callback receiving a parameter block together with its accumulated
/// gradient block. Used by the optimizers in nn/optimizer.h; the callee is
/// expected to update the parameters and zero the gradients.
using GradientVisitor =
    std::function<void(std::span<float> params, std::span<float> grads)>;

/// Base class for differentiable layers.
///
/// forward() caches whatever backward() needs; backward() accumulates
/// parameter gradients internally and returns the gradient with respect to
/// the layer input. apply_gradients() performs one SGD step and clears the
/// accumulated gradients.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor forward(const Tensor& input) = 0;
  virtual Tensor backward(const Tensor& grad_output) = 0;
  virtual void apply_gradients(float learning_rate) { (void)learning_rate; }
  virtual std::size_t parameter_count() const noexcept { return 0; }
  virtual std::string name() const = 0;

  /// Visit every mutable parameter block (weights first, biases second).
  /// Parameter-free layers do not call the visitor.
  virtual void visit_parameters(const ParameterVisitor& visit) {
    (void)visit;
  }

  /// Visit (parameters, accumulated gradients) block pairs. The visitor
  /// owns the update; implementations must not modify either themselves.
  virtual void visit_gradients(const GradientVisitor& visit) { (void)visit; }

  /// Switch train/eval behaviour (Dropout). No-op for most layers.
  virtual void set_training(bool training) { (void)training; }

  /// Output-channel count of this layer's weight matrix, or 0 when the
  /// layer has none. Nonzero means parameter block 0 is a (channels x
  /// size/channels) row-major weight matrix whose rows quantize on
  /// per-channel grids (quantize_model's contract).
  virtual std::size_t output_channels() const noexcept { return 0; }
};

/// Fully connected layer: y = W x + b. Weights use He initialization.
///
/// Dense, Conv2D and DepthwiseConv2D run their forward AND backward
/// matrix products through the tiled SIMD GEMM layer (nn/gemm.h) by
/// default; the original seed loops are preserved behind
/// set_compute_backend(ComputeBackend::kReference) as a numeric oracle
/// and bench baseline.
class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void apply_gradients(float learning_rate) override;
  std::size_t parameter_count() const noexcept override;
  std::string name() const override { return "dense"; }
  void visit_parameters(const ParameterVisitor& visit) override;
  void visit_gradients(const GradientVisitor& visit) override;

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }
  std::size_t output_channels() const noexcept override { return out_; }

 private:
  Tensor forward_reference(const Tensor& input);
  Tensor backward_reference(const Tensor& grad_output);

  std::size_t in_, out_;
  std::vector<float> weights_;  // out x in, row-major
  std::vector<float> bias_;
  std::vector<float> grad_weights_;
  std::vector<float> grad_bias_;
  Tensor cached_input_;
};

/// 2-D convolution (NCHW), square kernel, configurable stride and padding.
class Conv2D final : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t padding,
         Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void apply_gradients(float learning_rate) override;
  std::size_t parameter_count() const noexcept override;
  std::string name() const override { return "conv2d"; }
  void visit_parameters(const ParameterVisitor& visit) override;
  void visit_gradients(const GradientVisitor& visit) override;
  std::size_t output_channels() const noexcept override { return out_c_; }

 private:
  Tensor forward_reference(const Tensor& input);
  Tensor backward_reference(const Tensor& grad_output);

  std::size_t in_c_, out_c_, kernel_, stride_, padding_;
  std::vector<float> weights_;  // out_c x in_c x k x k
  std::vector<float> bias_;
  std::vector<float> grad_weights_;
  std::vector<float> grad_bias_;
  Tensor cached_input_;
  // Per-sample (grad_weights, grad_bias) partials of the GEMM backward
  // path, reduced serially in sample order so pooled and serial runs stay
  // bit-identical. Kept as members so the workspace is reused across
  // minibatches instead of reallocated per call.
  std::vector<float> grad_w_scratch_;  // batch x out_c x depth
  std::vector<float> grad_b_scratch_;  // batch x out_c
};

/// Depthwise 3x3-style convolution: one filter per input channel
/// (the MobileNet V1 building block).
class DepthwiseConv2D final : public Layer {
 public:
  DepthwiseConv2D(std::size_t channels, std::size_t kernel, std::size_t stride,
                  std::size_t padding, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void apply_gradients(float learning_rate) override;
  std::size_t parameter_count() const noexcept override;
  std::string name() const override { return "depthwise_conv2d"; }
  void visit_parameters(const ParameterVisitor& visit) override;
  void visit_gradients(const GradientVisitor& visit) override;
  std::size_t output_channels() const noexcept override { return channels_; }

 private:
  Tensor forward_reference(const Tensor& input);
  Tensor backward_reference(const Tensor& grad_output);

  std::size_t channels_, kernel_, stride_, padding_;
  std::vector<float> weights_;  // channels x k x k
  std::vector<float> bias_;
  std::vector<float> grad_weights_;
  std::vector<float> grad_bias_;
  Tensor cached_input_;
  // Per-sample gradient partials of the GEMM backward path (see Conv2D).
  std::vector<float> grad_w_scratch_;  // batch x channels x k x k
  std::vector<float> grad_b_scratch_;  // batch x channels
};

/// Elementwise rectified linear unit.
class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "relu"; }

 private:
  Tensor forward_reference(const Tensor& input);

  // backward() only needs the activation signs, so the default path
  // caches a byte mask rather than a copy of the input tensor. The
  // reference path keeps the seed's deep copy (cached_input_) so the
  // kReference baseline stays faithful; used_reference_ records which
  // cache the last forward() filled.
  std::vector<unsigned char> mask_;
  std::vector<std::size_t> cached_shape_;
  Tensor cached_input_;
  bool used_reference_ = false;
};

/// Max pooling with a square window; window == stride (non-overlapping).
class MaxPool2D final : public Layer {
 public:
  explicit MaxPool2D(std::size_t window) : window_(window) {}

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "maxpool2d"; }

 private:
  std::size_t window_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
  std::vector<std::size_t> input_shape_;
};

/// Global average pooling: (B, C, H, W) -> (B, C).
class GlobalAvgPool final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "global_avg_pool"; }

 private:
  std::vector<std::size_t> input_shape_;
};

/// Inverted dropout: during training each activation is zeroed with
/// probability `rate` and survivors are scaled by 1/(1-rate), so inference
/// (eval mode) needs no rescaling. Toggle with set_training(); constructed
/// in training mode.
class Dropout final : public Layer {
 public:
  Dropout(double rate, std::uint64_t seed);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "dropout"; }

  void set_training(bool training) override { training_ = training; }
  bool training() const noexcept { return training_; }
  double rate() const noexcept { return rate_; }

 private:
  double rate_;
  Rng rng_;
  bool training_ = true;
  std::vector<float> mask_;  // keep-scale per element (0 or 1/(1-rate))
};

/// Flatten (B, C, H, W) -> (B, C*H*W).
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "flatten"; }

 private:
  std::vector<std::size_t> input_shape_;
};

}  // namespace cea::nn
