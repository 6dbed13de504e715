#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/tensor.h"
#include "obs/telemetry.h"

namespace cea::nn {

/// A feed-forward stack of layers with a name and bookkeeping used by the
/// simulator (parameter count doubles as the model "size" W_n in the paper).
class Sequential {
 public:
  explicit Sequential(std::string name) : name_(std::move(name)) {}

  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;

  /// Append a layer; returns *this for chaining.
  Sequential& add(std::unique_ptr<Layer> layer);

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  /// Forward pass producing logits (no softmax).
  Tensor forward(const Tensor& input);

  /// Backward pass from the loss gradient wrt logits.
  void backward(const Tensor& grad_logits);

  /// One SGD step on all layers; clears accumulated gradients.
  void apply_gradients(float learning_rate);

  /// Class probabilities: softmax over forward logits.
  Tensor predict_proba(const Tensor& input);

  /// Argmax class per batch row.
  std::vector<std::size_t> predict(const Tensor& input);

  const std::string& name() const noexcept { return name_; }
  std::size_t parameter_count() const noexcept;

  /// Visit every parameter block of every layer in order (see
  /// Layer::visit_parameters). Serialization and quantization build on this.
  void visit_parameters(const ParameterVisitor& visit);

  /// Visit (parameter, gradient) block pairs of every layer in order (see
  /// Layer::visit_gradients). The optimizers build on this.
  void visit_gradients(const GradientVisitor& visit);

  /// Switch every layer between training and evaluation behaviour
  /// (affects Dropout; a no-op for the other layers).
  void set_training(bool training);

  /// Model size in MB assuming 4-byte parameters — the W_n of the paper.
  double size_mb() const noexcept;

  std::size_t layer_count() const noexcept { return layers_.size(); }

  /// Direct access to layer i (0 <= i < layer_count()). Quantization uses
  /// this to pair each parameter block with its layer's channel layout.
  Layer& layer(std::size_t i) noexcept { return *layers_[i]; }
  const Layer& layer(std::size_t i) const noexcept { return *layers_[i]; }

 private:
  /// Per-layer duration histograms "nn.{fwd,bwd}.<model>.<i>.<layer>",
  /// built lazily on the first forward/backward after the layer list
  /// changes. Labels are interned so trace events can hold them by
  /// pointer beyond the model's lifetime.
  struct LayerMetric {
    obs::MetricId id = obs::kInvalidMetric;
    const char* label = nullptr;
  };
  void ensure_layer_metrics();
  std::vector<LayerMetric> fwd_metrics_, bwd_metrics_;

  std::string name_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Row-wise softmax of a (batch, classes) logits tensor.
Tensor softmax(const Tensor& logits);

}  // namespace cea::nn
