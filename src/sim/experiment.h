#pragma once

#include <string>
#include <vector>

#include "bandit/fleet_policy.h"
#include "sim/environment.h"
#include "sim/metrics.h"
#include "trading/trader.h"
#include "util/thread_pool.h"

namespace cea::sim {

/// A named (model-selection, carbon-trading) pairing, e.g. "UCB-LY".
/// `policy` builds one fleet-wide model-selection object: Algorithm 1 is
/// the SoA-native core::BlockedTsallisFleetPolicy, and per-edge baselines
/// run behind bandit::adapt_per_edge.
struct AlgorithmCombo {
  std::string name;
  bandit::FleetPolicyFactory policy;
  trading::TraderFactory trader;
};

/// The paper's approach: Algorithm 1 + Algorithm 2.
AlgorithmCombo ours_combo();

/// The twelve baseline pairings of Section V-A: {Ran, Greedy, TINF, UCB} x
/// {Ran, TH, LY}.
std::vector<AlgorithmCombo> baseline_combos();

/// ours_combo() followed by baseline_combos().
std::vector<AlgorithmCombo> all_combos();

/// Run one combo once.
RunResult run_combo(const Environment& env, const AlgorithmCombo& combo,
                    std::uint64_t run_seed);

/// Run one combo `num_runs` times with seeds base_seed+1.. and average
/// (the paper reports the average of 10 runs).
RunResult run_combo_averaged(const Environment& env,
                             const AlgorithmCombo& combo,
                             std::size_t num_runs, std::uint64_t base_seed);

/// Same, with the independent runs dispatched over the persistent
/// util::ThreadPool::global() (threads caps concurrency; 0 = the pool's
/// full width, itself sized by CEA_BENCH_THREADS or hardware concurrency).
/// Seeds are identical to the serial version, so the averaged result is
/// bit-for-bit the same for every thread count.
RunResult run_combo_averaged_parallel(const Environment& env,
                                      const AlgorithmCombo& combo,
                                      std::size_t num_runs,
                                      std::uint64_t base_seed,
                                      std::size_t threads = 0);

/// Run one combo once on the pooled edge-sharded engine: the per-edge work
/// of every slot fans out over `pool` in contiguous shards of
/// `edge_shard_grain` edges (0 = auto). Bit-identical to run_combo() for
/// any pool width and grain — this is how the large-fleet sweeps (fig04 at
/// 1k edges, bench/perf_fleet at 10k) parallelize *within* a run instead
/// of across runs.
RunResult run_combo_pooled(const Environment& env, const AlgorithmCombo& combo,
                           std::uint64_t run_seed, util::ThreadPool* pool,
                           std::size_t edge_shard_grain = 0);

/// run_combo_pooled averaged over num_runs seeds (base_seed+1..), runs
/// executed sequentially so each one owns the full pool width. Seeds match
/// run_combo_averaged, so the averaged result is bit-identical to it.
RunResult run_combo_averaged_pooled(const Environment& env,
                                    const AlgorithmCombo& combo,
                                    std::size_t num_runs,
                                    std::uint64_t base_seed,
                                    util::ThreadPool* pool,
                                    std::size_t edge_shard_grain = 0);

/// The Offline reference: per-edge best model at hindsight (minimum
/// E[l_n] + v_{i,n}) held for the whole horizon, with carbon trading solved
/// exactly by the offline LP over the realized emissions and full price
/// knowledge.
RunResult run_offline(const Environment& env, std::uint64_t run_seed);

/// Offline averaged over seeds (loss draws still vary per run).
RunResult run_offline_averaged(const Environment& env, std::size_t num_runs,
                               std::uint64_t base_seed);

/// The regret comparator of Theorems 1-3 composed: the best fixed model per
/// edge (one initial download) plus the sequence of per-slot optimal trades
/// of Theorem 2 (cover the uncovered emission, sell any surplus share; no
/// cross-slot arbitrage). The Offline LP baseline additionally harvests
/// buy-low/sell-high arbitrage, which grows linearly in T and which no
/// online policy can match — so regret (Fig. 10) is measured against this
/// comparator, while Figs. 3-7 still plot the Offline LP as the paper does.
double comparator_cost(const Environment& env, std::uint64_t run_seed);

/// Regret of one run against comparator_cost: run.total_cost() - comparator.
double p0_regret(const Environment& env, const RunResult& run,
                 std::uint64_t run_seed);

}  // namespace cea::sim
