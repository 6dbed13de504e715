#include "blocked_tsallis_inf.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "opt/tsallis_step.h"
#include "util/check.h"
#include "util/state_io.h"

namespace cea::core {

BlockedTsallisInfPolicy::BlockedTsallisInfPolicy(
    const bandit::PolicyContext& context)
    : BlockedTsallisInfPolicy(context, 1.0) {}

BlockedTsallisInfPolicy::BlockedTsallisInfPolicy(
    const bandit::PolicyContext& context, double discount)
    : schedule_(context.switching_cost, context.num_models),
      discount_(discount),
      edge_(context.edge),
      rng_(context.seed),
      cumulative_losses_(context.num_models, 0.0),
      probabilities_(context.num_models,
                     1.0 / static_cast<double>(context.num_models)) {
  assert(context.num_models > 0);
  assert(discount > 0.0 && discount <= 1.0);
}

void BlockedTsallisInfPolicy::start_block() {
  const std::size_t k = block_index_ + 1;  // 1-based block index
  if (presolved_) {
    // The simulator's cross-edge batch pass already solved this block's
    // OMD step (bit-identical to the call below) into probabilities_.
    presolved_ = false;
  } else {
    tsallis_probabilities_into(cumulative_losses_, schedule_.learning_rate(k),
                               probabilities_, solver_scratch_, &solver_warm_);
  }
  current_arm_ = rng_.categorical(probabilities_);
  CEA_CHECK(current_arm_ < probabilities_.size(), "blocked_tsallis.arm_index",
            edge_, audit::kNoIndex, static_cast<double>(current_arm_),
            "sampled arm " << current_arm_ << " out of range for "
                           << probabilities_.size() << " models");
  slots_left_ = schedule_.block_length(k);
  block_loss_ = 0.0;
  block_open_ = true;
  record_block_start(slots_left_);
}

void BlockedTsallisInfPolicy::finish_block() {
  // Block accounting: a block is only folded in once all of its scheduled
  // slots were served (the truncated final block never reaches here), and
  // the accumulated block loss must be a finite, nonnegative sum of
  // per-slot losses (sampled loss + computation cost are both >= 0).
  CEA_CHECK(slots_left_ == 0, "blocked_tsallis.block_truncated", edge_,
            audit::kNoIndex, static_cast<double>(slots_left_),
            "finish_block with " << slots_left_ << " slots left in block "
                                 << (block_index_ + 1));
  CEA_CHECK(std::isfinite(block_loss_) && block_loss_ >= 0.0,
            "blocked_tsallis.block_loss", edge_, audit::kNoIndex, block_loss_,
            "block loss " << block_loss_ << " not finite/nonnegative");
  // Optional non-stationarity discount: old evidence fades geometrically.
  if (discount_ < 1.0) {
    for (auto& c : cumulative_losses_) c *= discount_;
  }
  // Importance-weighted estimator: chat_{k,n} = 1{J=n} c_{k,n} / p_{k,n}.
  // The sampled arm always has the solver's strictly positive probability;
  // a degenerate weight means the simplex solve above went wrong.
  CEA_CHECK(probabilities_[current_arm_] > 1e-12,
            "blocked_tsallis.importance_weight", edge_, audit::kNoIndex,
            probabilities_[current_arm_],
            "importance weight 1/p with p = " << probabilities_[current_arm_]
                                              << " for arm " << current_arm_);
  const double p = std::max(probabilities_[current_arm_], 1e-12);
  cumulative_losses_[current_arm_] += block_loss_ / p;
  CEA_CHECK(std::isfinite(cumulative_losses_[current_arm_]),
            "blocked_tsallis.estimate_finite", edge_, audit::kNoIndex,
            cumulative_losses_[current_arm_],
            "cumulative loss estimate diverged for arm " << current_arm_);
  ++block_index_;
  block_open_ = false;
}

std::size_t BlockedTsallisInfPolicy::select(std::size_t /*t*/) {
  if (slots_left_ == 0) {
    if (block_open_) finish_block();
    start_block();
  }
  --slots_left_;
  return current_arm_;
}

void BlockedTsallisInfPolicy::feedback(std::size_t /*t*/, std::size_t arm,
                                       double loss) {
  assert(arm == current_arm_);
  (void)arm;
  block_loss_ += loss;
  // Truncated final block: fold the estimate in as soon as the block ends.
  if (slots_left_ == 0 && block_open_) finish_block();
}

bool BlockedTsallisInfPolicy::next_solve(bandit::TsallisSolveRequest& out) {
  // A solve is due iff the next select() will call start_block(): the
  // open block was closed by this edge's own feedback (or none started
  // yet) and has no slots left. All solve inputs are frozen until then.
  if (slots_left_ != 0 || block_open_ || presolved_) return false;
  out.cumulative_losses = cumulative_losses_;
  out.eta = schedule_.learning_rate(block_index_ + 1);
  out.scaled_lambda_warm = solver_warm_;
  return true;
}

void BlockedTsallisInfPolicy::accept_presolve(
    std::span<const double> probabilities, double scaled_lambda_warm) {
  assert(probabilities.size() == cumulative_losses_.size());
  probabilities_.assign(probabilities.begin(), probabilities.end());
  solver_warm_ = scaled_lambda_warm;
  presolved_ = true;
}

bandit::PolicyFactory BlockedTsallisInfPolicy::factory() {
  return [](const bandit::PolicyContext& context) {
    return std::make_unique<BlockedTsallisInfPolicy>(context);
  };
}

bandit::PolicyFactory BlockedTsallisInfPolicy::discounted_factory(
    double discount) {
  return [discount](const bandit::PolicyContext& context) {
    return std::make_unique<BlockedTsallisInfPolicy>(context, discount);
  };
}

bool BlockedTsallisInfPolicy::save_state(util::StateWriter& writer) const {
  writer.write_rng("btinf.rng", rng_);
  writer.write_doubles("btinf.cumulative_losses", cumulative_losses_);
  writer.write_doubles("btinf.probabilities", probabilities_);
  writer.write_double("btinf.solver_warm", solver_warm_);
  writer.write_bool("btinf.presolved", presolved_);
  writer.write_u64("btinf.block_index", block_index_);
  writer.write_u64("btinf.current_arm", current_arm_);
  writer.write_u64("btinf.slots_left", slots_left_);
  writer.write_double("btinf.block_loss", block_loss_);
  writer.write_bool("btinf.block_open", block_open_);
  return true;
}

bool BlockedTsallisInfPolicy::load_state(util::StateReader& reader) {
  reader.read_rng("btinf.rng", rng_);
  cumulative_losses_ =
      reader.read_doubles("btinf.cumulative_losses", cumulative_losses_.size());
  probabilities_ =
      reader.read_doubles("btinf.probabilities", probabilities_.size());
  solver_warm_ = reader.read_double("btinf.solver_warm");
  presolved_ = reader.read_bool("btinf.presolved");
  block_index_ = reader.read_u64("btinf.block_index");
  current_arm_ = reader.read_u64("btinf.current_arm");
  slots_left_ = reader.read_u64("btinf.slots_left");
  block_loss_ = reader.read_double("btinf.block_loss");
  block_open_ = reader.read_bool("btinf.block_open");
  if (current_arm_ >= probabilities_.size()) {
    throw util::StateError("BlockedTsallisINF: checkpointed arm out of range");
  }
  return true;
}

}  // namespace cea::core
