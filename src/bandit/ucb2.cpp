#include "bandit/ucb2.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <numbers>

#include "util/state_io.h"

namespace cea::bandit {

Ucb2Policy::Ucb2Policy(const PolicyContext& context, double alpha,
                       double loss_scale)
    : stats_(context.num_models),
      epochs_(context.num_models, 0),
      alpha_(alpha),
      loss_scale_(loss_scale) {
  assert(context.num_models > 0);
  assert(alpha > 0.0 && alpha < 1.0);
  assert(loss_scale > 0.0);
}

double Ucb2Policy::tau(std::size_t r) const noexcept {
  return std::ceil(std::pow(1.0 + alpha_, static_cast<double>(r)));
}

std::size_t Ucb2Policy::select(std::size_t /*t*/) {
  if (remaining_plays_ > 0) {
    --remaining_plays_;
    return current_arm_;
  }
  // Initialization: play every arm once.
  for (std::size_t arm = 0; arm < stats_.num_arms(); ++arm) {
    if (stats_.count(arm) == 0) {
      current_arm_ = arm;
      return arm;
    }
  }
  // Pick the arm with the smallest lower confidence bound (losses).
  const double total =
      static_cast<double>(std::max<std::size_t>(stats_.total_count(), 1));
  std::size_t best = 0;
  double best_bound = 0.0;
  for (std::size_t arm = 0; arm < stats_.num_arms(); ++arm) {
    const double t_r = tau(epochs_[arm]);
    const double bonus = std::sqrt(
        (1.0 + alpha_) *
        std::log(std::max(std::numbers::e * total / t_r, 1.0001)) /
        (2.0 * t_r));
    const double bound = stats_.mean(arm) / loss_scale_ - bonus;
    if (arm == 0 || bound < best_bound) {
      best = arm;
      best_bound = bound;
    }
  }
  current_arm_ = best;
  const double length = tau(epochs_[best] + 1) - tau(epochs_[best]);
  remaining_plays_ =
      static_cast<std::size_t>(std::max(1.0, length)) - 1;
  ++epochs_[best];
  return best;
}

void Ucb2Policy::feedback(std::size_t /*t*/, std::size_t arm, double loss) {
  stats_.observe(arm, loss);
}

PolicyFactory Ucb2Policy::factory(double alpha, double loss_scale) {
  return [alpha, loss_scale](const PolicyContext& context) {
    return std::make_unique<Ucb2Policy>(context, alpha, loss_scale);
  };
}

bool Ucb2Policy::save_state(util::StateWriter& writer) const {
  stats_.save_state(writer);
  std::vector<std::uint64_t> epochs(epochs_.begin(), epochs_.end());
  writer.write_u64s("ucb2.epochs", epochs);
  writer.write_u64("ucb2.current_arm", current_arm_);
  writer.write_u64("ucb2.remaining_plays", remaining_plays_);
  return true;
}

bool Ucb2Policy::load_state(util::StateReader& reader) {
  stats_.load_state(reader);
  const auto epochs = reader.read_u64s("ucb2.epochs", epochs_.size());
  for (std::size_t arm = 0; arm < epochs_.size(); ++arm) {
    // select() converts the next epoch's length tau(r+1) - tau(r) to an
    // integer; a forged count whose length does not fit would make that
    // conversion undefined.
    const double next_tau = std::ceil(
        std::pow(1.0 + alpha_, static_cast<double>(epochs[arm]) + 1.0));
    if (!(next_tau < 0x1p63)) {
      throw util::StateError("UCB2: checkpointed epoch count out of range");
    }
    epochs_[arm] = static_cast<std::size_t>(epochs[arm]);
  }
  const std::uint64_t arm = reader.read_u64("ucb2.current_arm");
  if (arm >= epochs_.size()) {
    // select() would hand the arm to the engine, which indexes its
    // per-model tables with it.
    throw util::StateError("UCB2: checkpointed arm out of range");
  }
  current_arm_ = static_cast<std::size_t>(arm);
  remaining_plays_ = reader.read_u64("ucb2.remaining_plays");
  return true;
}

}  // namespace cea::bandit
