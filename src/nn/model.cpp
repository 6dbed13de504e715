#include "nn/model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cea::nn {

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

void Sequential::ensure_layer_metrics() {
  if (fwd_metrics_.size() == layers_.size()) return;
  fwd_metrics_.clear();
  bwd_metrics_.clear();
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const std::string suffix =
        name_ + "." + std::to_string(i) + "." + layers_[i]->name();
    const char* fwd_label = obs::intern("nn.fwd." + suffix);
    const char* bwd_label = obs::intern("nn.bwd." + suffix);
    fwd_metrics_.push_back({obs::duration_histogram(fwd_label), fwd_label});
    bwd_metrics_.push_back({obs::duration_histogram(bwd_label), bwd_label});
  }
}

Tensor Sequential::forward(const Tensor& input) {
  ensure_layer_metrics();
  Tensor activation = input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const obs::ScopedSpan span(fwd_metrics_[i].id, fwd_metrics_[i].label);
    activation = layers_[i]->forward(activation);
  }
  return activation;
}

void Sequential::backward(const Tensor& grad_logits) {
  ensure_layer_metrics();
  Tensor grad = grad_logits;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    const obs::ScopedSpan span(bwd_metrics_[i].id, bwd_metrics_[i].label);
    grad = layers_[i]->backward(grad);
  }
}

void Sequential::apply_gradients(float learning_rate) {
  for (auto& layer : layers_) layer->apply_gradients(learning_rate);
}

Tensor softmax(const Tensor& logits) {
  assert(logits.rank() == 2);
  const std::size_t batch = logits.dim(0), classes = logits.dim(1);
  Tensor probs({batch, classes});
  for (std::size_t b = 0; b < batch; ++b) {
    float max_logit = logits.at(b, 0);
    for (std::size_t c = 1; c < classes; ++c)
      max_logit = std::max(max_logit, logits.at(b, c));
    float total = 0.0f;
    for (std::size_t c = 0; c < classes; ++c) {
      const float e = std::exp(logits.at(b, c) - max_logit);
      probs.at(b, c) = e;
      total += e;
    }
    for (std::size_t c = 0; c < classes; ++c) probs.at(b, c) /= total;
  }
  return probs;
}

Tensor Sequential::predict_proba(const Tensor& input) {
  return softmax(forward(input));
}

std::vector<std::size_t> Sequential::predict(const Tensor& input) {
  const Tensor logits = forward(input);
  const std::size_t batch = logits.dim(0), classes = logits.dim(1);
  std::vector<std::size_t> labels(batch, 0);
  for (std::size_t b = 0; b < batch; ++b) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < classes; ++c)
      if (logits.at(b, c) > logits.at(b, best)) best = c;
    labels[b] = best;
  }
  return labels;
}

void Sequential::visit_parameters(const ParameterVisitor& visit) {
  for (auto& layer : layers_) layer->visit_parameters(visit);
}

void Sequential::visit_gradients(const GradientVisitor& visit) {
  for (auto& layer : layers_) layer->visit_gradients(visit);
}

void Sequential::set_training(bool training) {
  for (auto& layer : layers_) layer->set_training(training);
}

std::size_t Sequential::parameter_count() const noexcept {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer->parameter_count();
  return total;
}

double Sequential::size_mb() const noexcept {
  return static_cast<double>(parameter_count()) * 4.0 / (1024.0 * 1024.0);
}

}  // namespace cea::nn
