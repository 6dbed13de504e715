// Ablation: the sqrt(k)-growing block schedule of Theorem 1 vs fixed-length
// blocks (including length 1 = plain per-slot Tsallis-INF). The growing
// schedule should be robust across switching-cost weights, while fixed
// schedules pay either excess switching (short blocks, heavy u_i) or excess
// exploration inertia (long blocks, light u_i).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/carbon_trader.h"
#include "opt/tsallis_step.h"
#include "util/table.h"

namespace {

using namespace cea;

/// Tsallis-INF with constant block length (the ablated schedule).
class FixedBlockTsallis final : public bandit::ModelSelectionPolicy {
 public:
  FixedBlockTsallis(const bandit::PolicyContext& context,
                    std::size_t block_length)
      : rng_(context.seed),
        cumulative_losses_(context.num_models, 0.0),
        probabilities_(context.num_models, 0.0),
        block_length_(block_length) {}

  std::size_t select(std::size_t /*t*/) override {
    if (slots_left_ == 0) {
      if (block_index_ > 0) {
        cumulative_losses_[arm_] +=
            block_loss_ / std::max(probabilities_[arm_], 1e-12);
      }
      ++block_index_;
      const double eta =
          2.0 / std::sqrt(static_cast<double>(block_index_));
      probabilities_ = tsallis_probabilities(cumulative_losses_, eta);
      arm_ = rng_.categorical(probabilities_);
      slots_left_ = block_length_;
      block_loss_ = 0.0;
    }
    --slots_left_;
    return arm_;
  }

  void feedback(std::size_t /*t*/, std::size_t /*arm*/, double loss) override {
    block_loss_ += loss;
  }

  std::string name() const override { return "FixedBlock"; }

  static bandit::PolicyFactory factory(std::size_t block_length) {
    return [block_length](const bandit::PolicyContext& context) {
      return std::make_unique<FixedBlockTsallis>(context, block_length);
    };
  }

 private:
  Rng rng_;
  std::vector<double> cumulative_losses_;
  std::vector<double> probabilities_;
  std::size_t block_length_;
  std::size_t block_index_ = 0;
  std::size_t arm_ = 0;
  std::size_t slots_left_ = 0;
  double block_loss_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  auto telemetry = cea::bench::TelemetrySession::from_args(argc, argv);

  const std::size_t runs = bench::num_runs();
  std::printf("Ablation — block schedule (growing sqrt(k) vs fixed), "
              "%zu-run avg\n\n",
              runs);

  const std::vector<sim::AlgorithmCombo> variants = {
      sim::ours_combo(),  // growing blocks (Theorem 1 schedule)
      {"Fixed-1 (plain TINF)",
       bandit::adapt_per_edge(FixedBlockTsallis::factory(1)),
       core::OnlineCarbonTrader::factory()},
      {"Fixed-5", bandit::adapt_per_edge(FixedBlockTsallis::factory(5)),
       core::OnlineCarbonTrader::factory()},
      {"Fixed-20", bandit::adapt_per_edge(FixedBlockTsallis::factory(20)),
       core::OnlineCarbonTrader::factory()},
  };

  auto csv = bench::make_csv("abl_block_schedule");
  csv.write_row({"variant", "weight", "total_cost", "switches"});
  for (const double weight : {0.5, 2.0, 8.0}) {
    sim::SimConfig config;
    config.num_edges = 10;
    config.switching_weight = weight;
    config.seed = 42;
    const auto env = sim::Environment::make_parametric(config);
    std::printf("switching weight %.1f:\n", weight);
    Table table({"variant", "total cost", "switching cost", "switches"});
    for (const auto& variant : variants) {
      const auto result = bench::averaged(env, variant, runs, 7);
      table.add_row(variant.name,
                    {result.settled_total_cost(), result.total_switching_cost(),
                     static_cast<double>(result.total_switches)},
                    1);
      csv.write_row(variant.name,
                    {weight, result.settled_total_cost(),
                     static_cast<double>(result.total_switches)});
    }
    table.print();
    std::printf("\n");
  }
  std::printf(
      "Expected: plain per-slot play (Fixed-1) collapses as switching gets\n"
      "expensive while the growing schedule adapts (its switch count drops\n"
      "with the weight). A hand-picked long fixed block can still win at\n"
      "this short horizon — but choosing it needs u_i and T in advance,\n"
      "whereas the Theorem-1 schedule is anytime and tuning-free.\n");
  return 0;
}
