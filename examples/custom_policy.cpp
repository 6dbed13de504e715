// Extending the library: implement a custom model-selection policy
// (explore-then-commit) against the per-edge bandit::ModelSelectionPolicy
// interface and plug it into the simulator next to the built-in algorithms
// through bandit::adapt_per_edge, which runs one instance per edge.
#include <cstdio>
#include <memory>

#include "bandit/fleet_policy.h"
#include "bandit/policy.h"
#include "core/carbon_trader.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "util/table.h"

namespace {

using namespace cea;

/// Explore-then-commit: round-robin every model `explore_rounds` times,
/// then commit to the best empirical mean for the rest of the horizon.
/// Simple, switch-frugal, but unable to recover from unlucky exploration —
/// a useful contrast to Algorithm 1's anytime guarantees.
class ExploreThenCommit final : public bandit::ModelSelectionPolicy {
 public:
  ExploreThenCommit(const bandit::PolicyContext& context,
                    std::size_t explore_rounds)
      : stats_(context.num_models),
        explore_slots_(explore_rounds * context.num_models) {}

  std::size_t select(std::size_t t) override {
    if (t < explore_slots_) return t % stats_.num_arms();
    if (!committed_) {
      committed_arm_ = stats_.best_arm();
      committed_ = true;
    }
    return committed_arm_;
  }

  void feedback(std::size_t /*t*/, std::size_t arm, double loss) override {
    if (!committed_) stats_.observe(arm, loss);
  }

  std::string name() const override { return "ETC"; }

  static bandit::PolicyFactory factory(std::size_t explore_rounds = 4) {
    return [explore_rounds](const bandit::PolicyContext& context) {
      return std::make_unique<ExploreThenCommit>(context, explore_rounds);
    };
  }

 private:
  bandit::ArmStats stats_;
  std::size_t explore_slots_;
  std::size_t committed_arm_ = 0;
  bool committed_ = false;
};

}  // namespace

int main() {
  sim::SimConfig config;
  config.num_edges = 10;
  config.seed = 21;
  // Few loss observations per slot: slot averages are noisy, so one-round
  // exploration can commit to the wrong model.
  config.loss_draw_cap = 2;
  const auto env = sim::Environment::make_parametric(config);

  // Pair the custom policy with the paper's Algorithm 2 trader and race it
  // against "Ours" and the Offline reference.
  const std::vector<sim::AlgorithmCombo> contenders = {
      sim::ours_combo(),
      {"ETC-PD", bandit::adapt_per_edge(ExploreThenCommit::factory(4)),
       core::OnlineCarbonTrader::factory()},
      {"ETC1-PD", bandit::adapt_per_edge(ExploreThenCommit::factory(1)),
       core::OnlineCarbonTrader::factory()},
  };

  Table table({"algorithm", "total cost", "switches", "accuracy"});
  for (const auto& combo : contenders) {
    const auto result = sim::run_combo_averaged(env, combo, 5, 1);
    table.add_row(combo.name,
                  {result.settled_total_cost(),
                   static_cast<double>(result.total_switches),
                   result.mean_accuracy()},
                  2);
  }
  const auto offline = sim::run_offline_averaged(env, 5, 1);
  table.add_row("Offline",
                {offline.settled_total_cost(),
                 static_cast<double>(offline.total_switches),
                 offline.mean_accuracy()},
                2);
  table.print();

  std::printf(
      "\nOn a short, stationary instance with clear gaps, explore-then-commit\n"
      "is hard to beat — it stops exploring. Algorithm 1 keeps a tail of\n"
      "exploration, which costs here but is what buys its anytime sub-linear\n"
      "regret: ETC has no such guarantee (an unlucky exploration phase or a\n"
      "shifted environment leaves it committed to the wrong model forever).\n"
      "This example is about the extension API; see bench/fig10_regret for\n"
      "the guarantee-backed comparison.\n");
  return 0;
}
