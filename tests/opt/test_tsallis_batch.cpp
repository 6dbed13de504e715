// Property tests of the batched cross-edge Tsallis-Newton solver: for
// randomized losses, learning rates, warm hints, and batch compositions,
// every kernel variant must reproduce the scalar oracle
// tsallis_probabilities_into bit for bit — probabilities AND refreshed
// warm-start — including forced-divergence (lane delegation / Brent) and
// mixed-convergence lanes via the Newton iteration-cap hook.
//
// The variants are pinned in-process through solve_variant (CEA_FORCE_ISA
// is read once per process, so covering the dispatch path itself needs
// separate processes, e.g. under CEA_FORCE_ISA=scalar and =avx2).
#include "opt/tsallis_batch.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "opt/tsallis_step.h"
#include "util/cpu.h"

namespace cea {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::vector<TsallisBatchVariant> available_variants() {
  std::vector<TsallisBatchVariant> variants{TsallisBatchVariant::kScalar};
  if (util::have_avx2()) variants.push_back(TsallisBatchVariant::kAvx2);
  return variants;
}

const char* name_of(TsallisBatchVariant v) {
  switch (v) {
    case TsallisBatchVariant::kScalar: return "scalar";
    case TsallisBatchVariant::kAvx2: return "avx2";
  }
  return "?";
}

struct Request {
  std::vector<double> losses;
  double eta = 1.0;
  double warm = 0.0;
};

/// Random request mix spanning the regimes the solver sees in the
/// simulator and well beyond: tiny to huge loss spreads, negative
/// losses, extreme etas, cold / fresh / stale warm hints.
std::vector<Request> random_requests(std::mt19937_64& rng, std::size_t count,
                                     std::size_t min_arms = 2,
                                     std::size_t max_arms = 17) {
  std::uniform_int_distribution<std::size_t> arms_dist(min_arms, max_arms);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Request> requests(count);
  for (auto& req : requests) {
    const std::size_t n = arms_dist(rng);
    const double spread = std::pow(10.0, -9.0 + 16.0 * unit(rng));
    const double base = (unit(rng) < 0.3 ? -1.0 : 1.0) * 10.0 * unit(rng);
    req.losses.resize(n);
    for (double& l : req.losses) l = base + spread * unit(rng);
    req.eta = std::pow(10.0, -4.0 + 6.0 * unit(rng));
    const double warm_kind = unit(rng);
    if (warm_kind < 0.4) {
      req.warm = 0.0;  // cold start
    } else if (warm_kind < 0.7) {
      // Fresh hint: the scaled root of this very problem.
      std::vector<double> p(n), scratch;
      double warm = 0.0;
      tsallis_probabilities_into(req.losses, req.eta, p, scratch, &warm);
      req.warm = warm;
    } else {
      // Stale / junk hint; the safeguard bracket must absorb it.
      req.warm = std::pow(10.0, -3.0 + 8.0 * unit(rng));
    }
  }
  return requests;
}

/// Asserts that a batch solve of `requests` matches per-request oracle
/// solves bit for bit on every available variant.
void expect_matches_oracle(const std::vector<Request>& requests) {
  // Oracle answers first (they also set the expected warm-out values).
  std::vector<std::vector<double>> expected_p(requests.size());
  std::vector<double> expected_warm(requests.size());
  std::vector<double> scratch;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    double warm = requests[i].warm;
    expected_p[i].resize(requests[i].losses.size());
    tsallis_probabilities_into(requests[i].losses, requests[i].eta,
                               expected_p[i], scratch, &warm);
    // The oracle leaves a single-arm caller's hint untouched.
    expected_warm[i] = requests[i].losses.size() == 1 ? requests[i].warm : warm;
  }

  TsallisBatchSolver solver;
  for (TsallisBatchVariant variant : available_variants()) {
    solver.clear();
    for (const auto& req : requests)
      solver.push(req.losses, req.eta, req.warm);
    solver.solve_variant(variant);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto p = solver.probabilities(i);
      ASSERT_EQ(p.size(), expected_p[i].size());
      for (std::size_t a = 0; a < p.size(); ++a) {
        ASSERT_TRUE(same_bits(p[a], expected_p[i][a]))
            << name_of(variant) << " request " << i << " arm " << a
            << ": batch " << std::hexfloat << p[a] << " oracle "
            << expected_p[i][a];
      }
      ASSERT_TRUE(same_bits(solver.scaled_lambda_warm(i), expected_warm[i]))
          << name_of(variant) << " request " << i << " warm: batch "
          << std::hexfloat << solver.scaled_lambda_warm(i) << " oracle "
          << expected_warm[i];
    }
  }
}

TEST(TsallisBatch, ActiveVariantRespectsCpuFeatures) {
  const TsallisBatchVariant v = tsallis_batch_active_variant();
  if (util::have_avx2()) {
    EXPECT_EQ(v, TsallisBatchVariant::kAvx2);
  } else {
    EXPECT_EQ(v, TsallisBatchVariant::kScalar);
  }
}

TEST(TsallisBatch, MatchesOracleAcrossBatchSizes) {
  std::mt19937_64 rng(0xbad5eed5u);
  // Sizes straddle every lane-count boundary of the widest kernel.
  for (std::size_t count : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 13u, 64u, 257u}) {
    SCOPED_TRACE("batch size " + std::to_string(count));
    expect_matches_oracle(random_requests(rng, count));
  }
}

TEST(TsallisBatch, MatchesOracleOnTenThousandEdges) {
  std::mt19937_64 rng(17);
  expect_matches_oracle(random_requests(rng, 10000, 2, 6));
}

TEST(TsallisBatch, SingleArmRequestsShortCircuit) {
  TsallisBatchSolver solver;
  const std::vector<double> one{3.25};
  solver.push(one, 0.5, 0.0);
  solver.push(one, 2.0, 7.5);  // warm must come back untouched
  const std::vector<double> two{1.0, 2.0};
  solver.push(two, 0.5, 0.0);
  solver.solve();
  EXPECT_EQ(solver.probabilities(0).size(), 1u);
  EXPECT_EQ(solver.probabilities(0)[0], 1.0);
  EXPECT_EQ(solver.scaled_lambda_warm(1), 7.5);
  EXPECT_EQ(solver.probabilities(2).size(), 2u);
}

TEST(TsallisBatch, MixedArmCountsInOneBatch) {
  std::mt19937_64 rng(99);
  auto requests = random_requests(rng, 23, 2, 5);
  auto more = random_requests(rng, 23, 11, 40);
  requests.insert(requests.end(), more.begin(), more.end());
  Request single;
  single.losses = {0.0};
  single.warm = 1.25;
  requests.push_back(single);
  expect_matches_oracle(requests);
}

TEST(TsallisBatch, ForcedDivergenceAndMixedConvergenceLanes) {
  std::mt19937_64 rng(4242);
  // Cap 1: every lane diverges -> full delegation to the oracle's Brent
  // path. Caps 2-6: easy lanes (tight spreads, fresh warm hints) converge
  // while hard ones (huge spreads, cold starts) do not, so chunks carry
  // mixed exit kinds. The oracle runs under the same per-thread cap, so
  // bit-equality must hold throughout.
  for (int cap : {1, 2, 3, 6}) {
    SCOPED_TRACE("iteration cap " + std::to_string(cap));
    const int previous = set_tsallis_newton_iteration_cap(cap);
    expect_matches_oracle(random_requests(rng, 41));
    set_tsallis_newton_iteration_cap(previous);
  }
}

TEST(TsallisBatch, SolverIsReusableAcrossClearCycles) {
  std::mt19937_64 rng(7);
  TsallisBatchSolver solver;
  for (int round = 0; round < 3; ++round) {
    const auto requests = random_requests(rng, 9);
    std::vector<std::vector<double>> expected(requests.size());
    std::vector<double> scratch;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      double warm = requests[i].warm;
      expected[i].resize(requests[i].losses.size());
      tsallis_probabilities_into(requests[i].losses, requests[i].eta,
                                 expected[i], scratch, &warm);
    }
    solver.clear();
    for (const auto& req : requests)
      solver.push(req.losses, req.eta, req.warm);
    solver.solve();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto p = solver.probabilities(i);
      for (std::size_t a = 0; a < p.size(); ++a)
        ASSERT_TRUE(same_bits(p[a], expected[i][a]))
            << "round " << round << " request " << i << " arm " << a;
    }
  }
}

}  // namespace
}  // namespace cea
