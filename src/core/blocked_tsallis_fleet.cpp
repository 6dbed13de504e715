#include "core/blocked_tsallis_fleet.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "opt/tsallis_step.h"
#include "util/check.h"
#include "util/state_io.h"

namespace cea::core {

BlockedTsallisFleetPolicy::BlockedTsallisFleetPolicy(
    const bandit::FleetPolicyContext& context, double discount)
    : num_edges_(context.num_edges),
      num_models_(context.num_models),
      discount_(discount) {
  assert(context.num_models > 0);
  assert(discount > 0.0 && discount <= 1.0);
  assert(context.switching_cost.size() == context.num_edges);
  schedule_.reserve(num_edges_);
  rng_.reserve(num_edges_);
  for (std::size_t edge = 0; edge < num_edges_; ++edge) {
    schedule_.emplace_back(context.switching_cost[edge], num_models_);
    rng_.emplace_back(bandit::policy_stream_seed(context.run_seed, edge));
  }
  cumulative_losses_.assign(num_edges_ * num_models_, 0.0);
  probabilities_.assign(num_edges_ * num_models_,
                        1.0 / static_cast<double>(num_models_));
  solver_warm_.assign(num_edges_, 0.0);
  block_loss_.assign(num_edges_, 0.0);
  block_index_.assign(num_edges_, 0);
  current_arm_.assign(num_edges_, 0);
  slots_left_.assign(num_edges_, 0);
  block_open_.assign(num_edges_, 0);
  presolved_.assign(num_edges_, 0);
}

void BlockedTsallisFleetPolicy::start_block(std::size_t edge) {
  const std::size_t k = block_index_[edge] + 1;  // 1-based block index
  const std::span<double> p(probabilities_.data() + edge * num_models_,
                            num_models_);
  if (presolved_[edge]) {
    // The simulator's cross-edge batch pass already solved this block's
    // OMD step (bit-identical to the call below) into the p slab.
    presolved_[edge] = 0;
  } else {
    // The solve writes the edge's row of the p slab in place. Thread-
    // confined theta scratch: solves for different edges may run on
    // different shards concurrently, and the scratch never influences the
    // result values (workspace only).
    thread_local std::vector<double> theta_scratch;
    tsallis_probabilities_into(cumulative_losses(edge),
                               schedule_[edge].learning_rate(k), p,
                               theta_scratch, &solver_warm_[edge]);
  }
  current_arm_[edge] = static_cast<std::uint32_t>(rng_[edge].categorical(p));
  CEA_CHECK(current_arm_[edge] < num_models_, "blocked_tsallis.arm_index",
            edge, audit::kNoIndex, static_cast<double>(current_arm_[edge]),
            "sampled arm " << current_arm_[edge] << " out of range for "
                           << num_models_ << " models");
  slots_left_[edge] =
      static_cast<std::uint32_t>(schedule_[edge].block_length(k));
  block_loss_[edge] = 0.0;
  block_open_[edge] = 1;
  record_block_start(slots_left_[edge]);
}

void BlockedTsallisFleetPolicy::finish_block(std::size_t edge) {
  // Block accounting: a block is only folded in once all of its scheduled
  // slots were served (the truncated final block never reaches here), and
  // the accumulated block loss must be a finite, nonnegative sum of
  // per-slot losses (sampled loss + computation cost are both >= 0).
  CEA_CHECK(slots_left_[edge] == 0, "blocked_tsallis.block_truncated", edge,
            audit::kNoIndex, static_cast<double>(slots_left_[edge]),
            "finish_block with " << slots_left_[edge]
                                 << " slots left in block "
                                 << (block_index_[edge] + 1));
  CEA_CHECK(std::isfinite(block_loss_[edge]) && block_loss_[edge] >= 0.0,
            "blocked_tsallis.block_loss", edge, audit::kNoIndex,
            block_loss_[edge],
            "block loss " << block_loss_[edge] << " not finite/nonnegative");
  double* losses = cumulative_losses_.data() + edge * num_models_;
  if (discount_ < 1.0) {
    for (std::size_t n = 0; n < num_models_; ++n) losses[n] *= discount_;
  }
  // Importance-weighted estimator: chat_{k,n} = 1{J=n} c_{k,n} / p_{k,n}.
  // The sampled arm always has the solver's strictly positive probability;
  // a degenerate weight means the simplex solve above went wrong.
  const double* p = probabilities_.data() + edge * num_models_;
  const std::size_t arm = current_arm_[edge];
  CEA_CHECK(p[arm] > 1e-12, "blocked_tsallis.importance_weight", edge,
            audit::kNoIndex, p[arm],
            "importance weight 1/p with p = " << p[arm] << " for arm "
                                              << arm);
  losses[arm] += block_loss_[edge] / std::max(p[arm], 1e-12);
  CEA_CHECK(std::isfinite(losses[arm]), "blocked_tsallis.estimate_finite",
            edge, audit::kNoIndex, losses[arm],
            "cumulative loss estimate diverged for arm " << arm);
  ++block_index_[edge];
  block_open_[edge] = 0;
}

std::size_t BlockedTsallisFleetPolicy::select(std::size_t edge,
                                              std::size_t /*t*/) {
  if (slots_left_[edge] == 0) {
    if (block_open_[edge]) finish_block(edge);
    start_block(edge);
  }
  --slots_left_[edge];
  return current_arm_[edge];
}

void BlockedTsallisFleetPolicy::feedback(std::size_t edge, std::size_t /*t*/,
                                         std::size_t arm, double loss) {
  assert(arm == current_arm_[edge]);
  (void)arm;
  block_loss_[edge] += loss;
  // Truncated final block: fold the estimate in as soon as the block ends.
  if (slots_left_[edge] == 0 && block_open_[edge]) finish_block(edge);
}

bool BlockedTsallisFleetPolicy::next_solve(std::size_t edge,
                                           bandit::TsallisSolveRequest& out) {
  // A solve is due iff the next select() will call start_block(): the
  // open block was closed by this edge's own feedback (or none started
  // yet) and has no slots left. All solve inputs are frozen until then.
  if (slots_left_[edge] != 0 || block_open_[edge] || presolved_[edge])
    return false;
  out.cumulative_losses = cumulative_losses(edge);
  out.eta = schedule_[edge].learning_rate(block_index_[edge] + 1);
  out.scaled_lambda_warm = solver_warm_[edge];
  return true;
}

void BlockedTsallisFleetPolicy::accept_presolve(
    std::size_t edge, std::span<const double> probabilities,
    double scaled_lambda_warm) {
  assert(probabilities.size() == num_models_);
  std::copy(probabilities.begin(), probabilities.end(),
            probabilities_.data() + edge * num_models_);
  solver_warm_[edge] = scaled_lambda_warm;
  presolved_[edge] = 1;
}

bandit::FleetPolicyFactory BlockedTsallisFleetPolicy::factory() {
  return [](const bandit::FleetPolicyContext& context) {
    return std::make_unique<BlockedTsallisFleetPolicy>(context);
  };
}

bandit::FleetPolicyFactory BlockedTsallisFleetPolicy::discounted_factory(
    double discount) {
  return [discount](const bandit::FleetPolicyContext& context) {
    return std::make_unique<BlockedTsallisFleetPolicy>(context, discount);
  };
}

bool BlockedTsallisFleetPolicy::save_state(util::StateWriter& writer) const {
  writer.write_u64("btfleet.edges", num_edges_);
  for (std::size_t i = 0; i < num_edges_; ++i)
    writer.write_rng("btfleet.rng", rng_[i]);
  writer.write_doubles("btfleet.cumulative_losses", cumulative_losses_);
  writer.write_doubles("btfleet.probabilities", probabilities_);
  writer.write_doubles("btfleet.solver_warm", solver_warm_);
  writer.write_doubles("btfleet.block_loss", block_loss_);
  auto widen = [](const auto& values) {
    return std::vector<std::uint64_t>(values.begin(), values.end());
  };
  writer.write_u64s("btfleet.block_index", widen(block_index_));
  writer.write_u64s("btfleet.current_arm", widen(current_arm_));
  writer.write_u64s("btfleet.slots_left", widen(slots_left_));
  writer.write_u64s("btfleet.block_open", widen(block_open_));
  writer.write_u64s("btfleet.presolved", widen(presolved_));
  return true;
}

bool BlockedTsallisFleetPolicy::load_state(util::StateReader& reader) {
  if (reader.read_u64("btfleet.edges") != num_edges_) {
    throw util::StateError("BlockedTsallisFleet: checkpointed edge count "
                           "does not match this fleet");
  }
  for (std::size_t i = 0; i < num_edges_; ++i)
    reader.read_rng("btfleet.rng", rng_[i]);
  const std::size_t slab = num_edges_ * num_models_;
  cumulative_losses_ = reader.read_doubles("btfleet.cumulative_losses", slab);
  probabilities_ = reader.read_doubles("btfleet.probabilities", slab);
  solver_warm_ = reader.read_doubles("btfleet.solver_warm", num_edges_);
  block_loss_ = reader.read_doubles("btfleet.block_loss", num_edges_);
  // Each field is range-checked in its 64-bit checkpointed form, before it
  // is narrowed: a forged 2^32 + 1 must not pass as arm 1.
  auto narrow = [&](std::string_view key, auto& values, std::uint64_t limit) {
    const auto wide = reader.read_u64s(key, values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (wide[i] >= limit) {
        throw util::StateError("BlockedTsallisFleet: checkpointed " +
                               std::string(key) + " out of range");
      }
      values[i] =
          static_cast<typename std::decay_t<decltype(values)>::value_type>(
              wide[i]);
    }
  };
  constexpr std::uint64_t kU32End = std::uint64_t{1} << 32;
  narrow("btfleet.block_index", block_index_, kU32End);
  narrow("btfleet.current_arm", current_arm_, num_models_);
  narrow("btfleet.slots_left", slots_left_, kU32End);
  narrow("btfleet.block_open", block_open_, 2);  // flags are 0 or 1
  narrow("btfleet.presolved", presolved_, 2);
  return true;
}

}  // namespace cea::core
