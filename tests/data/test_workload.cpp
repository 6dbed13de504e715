#include "data/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/thread_pool.h"

namespace cea::data {
namespace {

TEST(DiurnalShape, BoundedAndPositive) {
  for (int i = 0; i < 100; ++i) {
    const double u = i / 100.0;
    const double s = diurnal_shape(u);
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 1.01);
  }
}

TEST(DiurnalShape, HasMorningAndEveningPeaks) {
  const double morning = diurnal_shape(0.35);
  const double midday = diurnal_shape(0.55);
  const double evening = diurnal_shape(0.73);
  const double night = diurnal_shape(0.02);
  EXPECT_GT(morning, midday);
  EXPECT_GT(evening, midday);
  EXPECT_GT(morning, night);
}

TEST(Workload, ShapeAndPositivity) {
  WorkloadConfig config;
  config.num_slots = 160;
  Rng rng(1);
  const auto traces = generate_workload(5, config, rng);
  ASSERT_EQ(traces.size(), 5u);
  for (const auto& trace : traces) {
    ASSERT_EQ(trace.size(), 160u);
    for (int m : trace) EXPECT_GE(m, 1);
  }
}

TEST(Workload, MeanNearConfigured) {
  WorkloadConfig config;
  config.num_slots = 1600;  // long trace for tight statistics
  config.mean_samples = 100.0;
  Rng rng(2);
  const auto traces = generate_workload(20, config, rng);
  double total = 0.0;
  std::size_t count = 0;
  for (const auto& trace : traces) {
    for (int m : trace) {
      total += m;
      ++count;
    }
  }
  const double mean = total / static_cast<double>(count);
  EXPECT_NEAR(mean, 100.0, 25.0);
}

TEST(Workload, StationsSortedBusiestFirst) {
  WorkloadConfig config;
  config.num_slots = 400;
  Rng rng(3);
  const auto traces = generate_workload(10, config, rng);
  auto volume = [](const std::vector<int>& t) {
    long s = 0;
    for (int m : t) s += m;
    return s;
  };
  // Edge 0 is the busiest station by construction.
  const long first = volume(traces[0]);
  for (std::size_t i = 1; i < traces.size(); ++i)
    EXPECT_GE(first, volume(traces[i]) / 2);  // heavy-tailed but ordered
  EXPECT_GE(first, volume(traces[9]));
}

TEST(Workload, PeaksVisibleInAggregate) {
  WorkloadConfig config;
  config.num_slots = 80;  // one day
  config.slots_per_day = 80;
  config.noise = 0.01;
  config.peak_factor = 3.0;
  Rng rng(4);
  const auto traces = generate_workload(30, config, rng);
  std::vector<double> aggregate(80, 0.0);
  for (const auto& trace : traces)
    for (std::size_t t = 0; t < 80; ++t) aggregate[t] += trace[t];
  // Rush-hour slots beat the off-peak trough.
  const double morning = aggregate[static_cast<std::size_t>(0.35 * 80)];
  const double midnight = aggregate[1];
  EXPECT_GT(morning, midnight * 1.3);
}

TEST(Workload, Deterministic) {
  WorkloadConfig config;
  Rng a(5), b(5);
  const auto ta = generate_workload(3, config, a);
  const auto tb = generate_workload(3, config, b);
  EXPECT_EQ(ta, tb);
}

TEST(Workload, TwoDayPeriodicityCorrelates) {
  WorkloadConfig config;
  config.num_slots = 160;
  config.slots_per_day = 80;
  config.noise = 0.05;
  Rng rng(6);
  const auto traces = generate_workload(1, config, rng);
  // Day 1 and day 2 shapes should be positively correlated.
  double corr_num = 0.0, day1_sq = 0.0, day2_sq = 0.0;
  double m1 = 0.0, m2 = 0.0;
  for (std::size_t t = 0; t < 80; ++t) {
    m1 += traces[0][t];
    m2 += traces[0][80 + t];
  }
  m1 /= 80.0;
  m2 /= 80.0;
  for (std::size_t t = 0; t < 80; ++t) {
    const double d1 = traces[0][t] - m1;
    const double d2 = traces[0][80 + t] - m2;
    corr_num += d1 * d2;
    day1_sq += d1 * d1;
    day2_sq += d2 * d2;
  }
  const double corr = corr_num / std::sqrt(day1_sq * day2_sq);
  EXPECT_GT(corr, 0.5);
}

// --- Keyed generators (kHeavyTail / kFlashCrowd) ------------------------

WorkloadConfig keyed_config(WorkloadKind kind) {
  WorkloadConfig config;
  config.num_slots = 160;
  config.kind = kind;
  return config;
}

TEST(KeyedWorkload, DeterministicUnderFixedSeed) {
  for (auto kind : {WorkloadKind::kHeavyTail, WorkloadKind::kFlashCrowd}) {
    const auto config = keyed_config(kind);
    Rng a(12), b(12);
    EXPECT_EQ(generate_workload(40, config, a),
              generate_workload(40, config, b));
  }
}

TEST(KeyedWorkload, PooledBitIdenticalToSerial) {
  util::ThreadPool pool(3);
  for (auto kind : {WorkloadKind::kHeavyTail, WorkloadKind::kFlashCrowd}) {
    const auto config = keyed_config(kind);
    Rng serial_rng(7), pooled_rng(7);
    const auto serial = generate_workload(200, config, serial_rng);
    const auto pooled =
        generate_workload_pooled(200, config, pooled_rng, &pool);
    EXPECT_EQ(serial, pooled);
    // Both paths consumed the same single base-seed draw.
    EXPECT_EQ(serial_rng(), pooled_rng());
  }
}

TEST(KeyedWorkload, ConsumesExactlyOneDraw) {
  // The keyed kinds derive one base seed from the caller's stream and are
  // otherwise pure in (seed, edge, t) — the property pooled generation
  // relies on.
  const auto config = keyed_config(WorkloadKind::kHeavyTail);
  Rng used(9), witness(9);
  generate_workload(10, config, used);
  (void)witness();
  EXPECT_EQ(used(), witness());
}

TEST(KeyedWorkload, CellIsPureFunctionOfKey) {
  const auto config = keyed_config(WorkloadKind::kFlashCrowd);
  const double norm = 1.0;
  EXPECT_EQ(workload_cell(config, 77, norm, 3, 41),
            workload_cell(config, 77, norm, 3, 41));
  // Neighbouring keys decorrelate: not all cells equal.
  bool any_differs = false;
  const int first = workload_cell(config, 77, norm, 0, 0);
  for (std::size_t t = 1; t < 32; ++t)
    any_differs |= workload_cell(config, 77, norm, 0, t) != first;
  EXPECT_TRUE(any_differs);
}

TEST(KeyedWorkload, HeavyTailMeanNearConfigured) {
  // The bounded-Pareto burst is normalized by its analytic mean and the
  // Zipf scales average to 1, so the fleet-wide empirical mean must land
  // on mean_samples.
  auto config = keyed_config(WorkloadKind::kHeavyTail);
  config.num_slots = 400;
  config.mean_samples = 200.0;
  Rng rng(21);
  const auto traces = generate_workload(50, config, rng);
  double total = 0.0;
  std::size_t count = 0;
  for (const auto& trace : traces)
    for (int m : trace) {
      total += m;
      ++count;
    }
  const double mean = total / static_cast<double>(count);
  EXPECT_NEAR(mean, 200.0, 40.0);
}

TEST(KeyedWorkload, ZipfScalesAverageToOneAndDecay) {
  const std::size_t edges = 64;
  double total = 0.0;
  for (std::size_t e = 0; e < edges; ++e) {
    const double s = zipf_scale(e, edges, 1.1);
    total += s;
    if (e > 0) {
      EXPECT_LT(s, zipf_scale(e - 1, edges, 1.1));
    }
  }
  EXPECT_NEAR(total / static_cast<double>(edges), 1.0, 1e-9);
}

TEST(KeyedWorkload, FlashCrowdAddsBurstsOverHeavyTailBase) {
  // With a certain ignition every slot, the flash kind must dwarf the pure
  // heavy-tail kind generated from the same seed; with zero ignition
  // probability they coincide exactly.
  auto flash = keyed_config(WorkloadKind::kFlashCrowd);
  flash.num_slots = 80;
  auto base = flash;
  base.kind = WorkloadKind::kHeavyTail;

  auto never = flash;
  never.flash_probability = 0.0;
  Rng a(5), b(5);
  EXPECT_EQ(generate_workload(10, never, a), generate_workload(10, base, b));

  auto always = flash;
  always.flash_probability = 1.0;
  Rng c(5), d(5);
  const auto crowded = generate_workload(10, always, c);
  const auto calm = generate_workload(10, base, d);
  double crowded_total = 0.0, calm_total = 0.0;
  for (std::size_t e = 0; e < 10; ++e)
    for (std::size_t t = 0; t < 80; ++t) {
      crowded_total += crowded[e][t];
      calm_total += calm[e][t];
    }
  // Every slot carries at least the full flash_magnitude multiplier.
  EXPECT_GT(crowded_total, calm_total * 10.0);
}

// --- Tail-index sanity of the bounded-Pareto sampler --------------------

TEST(BoundedPareto, QuantileMatchesAnalyticMean) {
  // Average of the quantile over a fine uniform grid approximates the
  // analytic mean (midpoint rule on the inverse-CDF integral).
  for (double alpha : {1.2, 1.5, 2.5}) {
    const double lo = 1.0, hi = 64.0;
    const std::size_t grid = 200000;
    double sum = 0.0;
    for (std::size_t i = 0; i < grid; ++i) {
      const double u = (static_cast<double>(i) + 0.5) /
                       static_cast<double>(grid);
      sum += bounded_pareto_quantile(u, alpha, lo, hi);
    }
    EXPECT_NEAR(sum / static_cast<double>(grid),
                bounded_pareto_mean(alpha, lo, hi), 0.02)
        << "alpha " << alpha;
  }
}

TEST(BoundedPareto, HillEstimatorRecoversTailIndex) {
  // Hill estimator over the largest order statistics of quantile samples
  // recovers alpha. The cap is pushed far out so truncation does not bias
  // the estimate in the sampled region.
  for (double alpha : {1.3, 2.0}) {
    const double lo = 1.0, hi = 1e9;
    const std::size_t n = 50000;
    std::vector<double> samples(n);
    Rng rng(31);
    for (auto& s : samples)
      s = bounded_pareto_quantile(rng.uniform(), alpha, lo, hi);
    std::sort(samples.begin(), samples.end(), std::greater<>());
    const std::size_t k = 2000;  // tail fraction
    double hill = 0.0;
    for (std::size_t i = 0; i < k; ++i)
      hill += std::log(samples[i] / samples[k]);
    hill /= static_cast<double>(k);
    EXPECT_NEAR(1.0 / hill, alpha, 0.15 * alpha) << "alpha " << alpha;
  }
}

TEST(BoundedPareto, QuantileBoundedAndMonotone) {
  const double lo = 1.0, hi = 64.0, alpha = 1.5;
  double prev = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double u = i / 100.0;
    const double x = bounded_pareto_quantile(u, alpha, lo, hi);
    EXPECT_GE(x, lo);
    EXPECT_LE(x, hi);
    EXPECT_GE(x, prev);
    prev = x;
  }
}

TEST(KeyedWorkload, DiurnalDefaultUnchangedByNewFields) {
  // WorkloadConfig gained keyed-kind fields; the default (kDiurnal) path
  // must keep consuming the same stream — golden traces pin this
  // transitively, this is the direct check.
  WorkloadConfig legacy;
  WorkloadConfig with_fields;
  with_fields.pareto_alpha = 9.9;  // keyed-kind fields are inert under kDiurnal
  with_fields.flash_probability = 1.0;
  Rng a(13), b(13);
  EXPECT_EQ(generate_workload(4, legacy, a),
            generate_workload(4, with_fields, b));
}

}  // namespace
}  // namespace cea::data
