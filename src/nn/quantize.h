#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/model.h"

namespace cea::nn {

/// Result of quantizing a model's parameters.
struct QuantizationReport {
  std::size_t bits = 8;          ///< target bit width
  std::size_t parameter_count = 0;
  double size_mb_before = 0.0;   ///< size at float32 width, pre-quantization
  double size_mb = 0.0;          ///< size at the target width
  double max_abs_error = 0.0;    ///< worst per-parameter rounding error
  double mean_abs_error = 0.0;
  /// Parameters left untouched because they were NaN/Inf. Non-finite
  /// values would otherwise poison the per-block scale (max|v| = inf ->
  /// every other weight rounds to 0) or propagate NaN into the grid.
  std::size_t skipped_non_finite = 0;
};

/// Per-output-channel symmetric scales of a (channels x per_channel)
/// row-major weight matrix: scales[c] = max finite |row c| /
/// (2^(bits-1) - 1). Non-finite entries are excluded from the max (they
/// would zero or poison the whole channel); an all-zero or all-non-finite
/// channel gets scale 0.
std::vector<float> per_channel_scales(const float* weights,
                                      std::size_t channels,
                                      std::size_t per_channel,
                                      std::size_t bits);

/// Simulated post-training quantization: weight matrices are rounded to
/// symmetric per-output-channel int grids of the given bit width (biases
/// and other blocks use one per-block grid); values stay float so the
/// unmodified inference path exercises the quantized values — "fake
/// quantization", the standard QAT evaluation trick (see
/// per_channel_scales for the weight-matrix grids).
///
/// This implements the paper's future-work direction of supporting large
/// models at the edge "via quantization-aware carbon or energy control":
/// a quantized variant is a new arm with ~bits/32 of the size (less
/// transfer energy F_{i,n}) and a slightly worse loss distribution; the
/// controller can then trade accuracy against carbon. See
/// bench/ext_quantization.
///
/// `bits` must be in [2, 16]; throws std::invalid_argument otherwise.
QuantizationReport quantize_model(Sequential& model, std::size_t bits);

/// Model size in MB at a given bit width (4-byte floats -> bits/32 scale).
double quantized_size_mb(const Sequential& model, std::size_t bits);

}  // namespace cea::nn
