#include "core/block_schedule.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/telemetry.h"

namespace cea::core {

BlockSchedule::BlockSchedule(double switching_cost, std::size_t num_models)
    : switching_cost_(std::max(switching_cost, 1e-6)),
      num_models_(num_models) {
  assert(num_models > 0);
}

double BlockSchedule::block_real_length(std::size_t k) const noexcept {
  assert(k >= 1);
  return 1.5 * switching_cost_ *
         std::sqrt(static_cast<double>(k) /
                   static_cast<double>(num_models_));
}

std::size_t BlockSchedule::block_length(std::size_t k) const noexcept {
  const double d = block_real_length(k);
  return static_cast<std::size_t>(std::max(std::ceil(d), 1.0));
}

double BlockSchedule::learning_rate(std::size_t k) const noexcept {
  assert(k >= 1);
  const double d = block_real_length(k);
  return (2.0 / (d + 1.0)) * std::sqrt(2.0 / static_cast<double>(k));
}

std::size_t BlockSchedule::blocks_for_horizon(
    std::size_t horizon) const noexcept {
  std::size_t covered = 0;
  std::size_t k = 0;
  while (covered < horizon) {
    ++k;
    covered += block_length(k);
  }
  return k;
}

void record_block_start(std::size_t block_length) {
  if (!obs::detail_enabled()) return;
  // |B_{i,k}| grows like sqrt(k), so the length distribution shows how far
  // into the schedule a run got.
  static const double kLengthEdges[] = {1,  2,  4,  8,   16,  32,
                                        64, 128, 256, 512, 1024};
  static const obs::MetricId obs_length =
      obs::histogram("bandit.block_length", kLengthEdges);
  obs::observe(obs_length, static_cast<double>(block_length));
  static const obs::MetricId obs_blocks = obs::counter("bandit.blocks");
  obs::add(obs_blocks);
}

double BlockSchedule::block_count_bound(std::size_t horizon) const noexcept {
  return std::cbrt(static_cast<double>(num_models_)) *
             std::pow(static_cast<double>(horizon) / switching_cost_,
                      2.0 / 3.0) +
         1.0;
}

}  // namespace cea::core
