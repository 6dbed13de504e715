#include "nn/quantize.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace cea::nn {
namespace {

float finite_max_abs(std::span<const float> values) noexcept {
  // Scale from finite values only: one stray inf would zero the whole
  // block, one NaN would poison it.
  float max_abs = 0.0f;
  for (float v : values)
    if (std::isfinite(v)) max_abs = std::max(max_abs, std::abs(v));
  return max_abs;
}

/// Round one block (or channel) onto the symmetric grid of `scale`,
/// accumulating error stats. scale == 0 means the values had no finite
/// nonzero range — nothing to round, only non-finite entries to count.
void fake_quantize_span(std::span<float> values, float scale,
                        QuantizationReport& report, double& error_sum) {
  if (scale == 0.0f) {
    for (float v : values)
      if (!std::isfinite(v)) ++report.skipped_non_finite;
    return;
  }
  for (auto& v : values) {
    if (!std::isfinite(v)) {
      ++report.skipped_non_finite;
      continue;
    }
    const float q = std::round(v / scale) * scale;
    const double err = std::abs(static_cast<double>(q) - v);
    report.max_abs_error = std::max(report.max_abs_error, err);
    error_sum += err;
    v = q;
  }
}

/// Symmetric quantization step for a value range of the given max
/// magnitude: max_abs / (2^(bits-1) - 1), the scale of every grid.
float symmetric_scale(float max_abs, std::size_t bits) noexcept {
  const float levels = static_cast<float>((1u << (bits - 1)) - 1u);
  return max_abs == 0.0f ? 0.0f : max_abs / levels;
}

}  // namespace

std::vector<float> per_channel_scales(const float* weights,
                                      std::size_t channels,
                                      std::size_t per_channel,
                                      std::size_t bits) {
  std::vector<float> scales(channels);
  for (std::size_t c = 0; c < channels; ++c)
    scales[c] = symmetric_scale(
        finite_max_abs({weights + c * per_channel, per_channel}), bits);
  return scales;
}

QuantizationReport quantize_model(Sequential& model, std::size_t bits) {
  if (bits < 2 || bits > 16)
    throw std::invalid_argument(
        "quantize_model: bits must be in [2, 16], got " +
        std::to_string(bits));
  QuantizationReport report;
  report.bits = bits;
  double error_sum = 0.0;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    Layer& layer = model.layer(i);
    const std::size_t channels = layer.output_channels();
    std::size_t block_index = 0;
    layer.visit_parameters([&](std::span<float> block) {
      report.parameter_count += block.size();
      // Block 0 of a channeled layer is its weight matrix (the
      // visit_parameters weights-then-biases contract): quantize it on
      // per-output-channel grids. Everything else (biases) keeps the
      // original per-block grid.
      const bool weight_matrix =
          block_index++ == 0 && channels > 0 && block.size() > channels &&
          block.size() % channels == 0;
      if (weight_matrix) {
        const std::size_t per_channel = block.size() / channels;
        const std::vector<float> scales =
            per_channel_scales(block.data(), channels, per_channel, bits);
        for (std::size_t c = 0; c < channels; ++c)
          fake_quantize_span(block.subspan(c * per_channel, per_channel),
                             scales[c], report, error_sum);
      } else {
        fake_quantize_span(block, symmetric_scale(finite_max_abs(block), bits),
                           report, error_sum);
      }
    });
  }
  const std::size_t quantized =
      report.parameter_count - report.skipped_non_finite;
  report.mean_abs_error =
      quantized > 0 ? error_sum / static_cast<double>(quantized) : 0.0;
  report.size_mb_before = quantized_size_mb(model, 32);
  report.size_mb = quantized_size_mb(model, bits);
  return report;
}

double quantized_size_mb(const Sequential& model, std::size_t bits) {
  return static_cast<double>(model.parameter_count()) *
         (static_cast<double>(bits) / 8.0) / (1024.0 * 1024.0);
}

}  // namespace cea::nn
