#include "opt/tsallis_batch.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/telemetry.h"
#include "opt/tsallis_batch_simd.h"
#include "opt/tsallis_step.h"
#include "util/check.h"
#include "util/cpu.h"

namespace cea {

namespace tsallis_detail {
namespace {

/// One-lane reference traits: the same kernel body the SIMD TUs
/// instantiate, over plain doubles. Defines the batched semantics and is
/// the portable fallback. Compiled with -ffp-contract=off like the
/// vector TUs.
struct VecScalar {
  using Reg = double;
  using Mask = bool;
  static constexpr std::size_t kWidth = 1;

  static Reg load(const double* p) noexcept { return *p; }
  static void store(double* p, Reg v) noexcept { *p = v; }
  static Reg set1(double x) noexcept { return x; }
  static Reg add(Reg a, Reg b) noexcept { return a + b; }
  static Reg sub(Reg a, Reg b) noexcept { return a - b; }
  static Reg mul(Reg a, Reg b) noexcept { return a * b; }
  static Reg div(Reg a, Reg b) noexcept { return a / b; }
  static Reg sqrt(Reg a) noexcept { return std::sqrt(a); }
  // vmaxpd semantics: a > b ? a : b (second operand on ties).
  static Reg max(Reg a, Reg b) noexcept { return a > b ? a : b; }
  static Reg abs(Reg a) noexcept { return std::abs(a); }
  static Mask cmp_lt(Reg a, Reg b) noexcept { return a < b; }
  static Mask cmp_gt(Reg a, Reg b) noexcept { return a > b; }
  static Reg select(Mask m, Reg a, Reg b) noexcept { return m ? a : b; }
  static Mask mask_all() noexcept { return true; }
  static Mask mask_and(Mask a, Mask b) noexcept { return a && b; }
  static Mask mask_andnot(Mask a, Mask b) noexcept { return !a && b; }
  static bool any(Mask m) noexcept { return m; }
  static unsigned to_bits(Mask m) noexcept { return m ? 1u : 0u; }
};

static_assert(VecScalar::kWidth == kScalarWidth);

}  // namespace

void newton_batch_scalar(const BatchKernelArgs& args) {
  newton_batch_body<VecScalar>(args);
}

}  // namespace tsallis_detail

namespace {

struct KernelInfo {
  std::size_t width;
  tsallis_detail::BatchKernel kernel;
};

KernelInfo kernel_for(TsallisBatchVariant variant) noexcept {
  switch (variant) {
#if defined(__x86_64__)
    case TsallisBatchVariant::kAvx2:
      return {tsallis_detail::kAvx2Width, &tsallis_detail::newton_batch_avx2};
#endif
    default:
      return {tsallis_detail::kScalarWidth,
              &tsallis_detail::newton_batch_scalar};
  }
}

}  // namespace

TsallisBatchVariant tsallis_batch_active_variant() noexcept {
  if (util::have_avx2()) return TsallisBatchVariant::kAvx2;
  return TsallisBatchVariant::kScalar;
}

void TsallisBatchSolver::clear() noexcept {
  losses_.clear();
  offset_.clear();
  arms_.clear();
  eta_.clear();
  warm_.clear();
  min_loss_.clear();
  p_.clear();
  warm_out_.clear();
  solved_ = false;
}

std::size_t TsallisBatchSolver::push(std::span<const double> cumulative_losses,
                                     double eta, double scaled_lambda_warm) {
  assert(eta > 0.0);
  assert(!cumulative_losses.empty());
  const std::size_t index = arms_.size();
  offset_.push_back(losses_.size());
  arms_.push_back(cumulative_losses.size());
  eta_.push_back(eta);
  warm_.push_back(scaled_lambda_warm);
  losses_.insert(losses_.end(), cumulative_losses.begin(),
                 cumulative_losses.end());
  // The losses are hot right here, so fold the oracle's min_element scan
  // into staging instead of re-reading them in the solve pre-pass.
  double min_loss = cumulative_losses[0];
  for (const double loss : cumulative_losses.subspan(1))
    if (loss < min_loss) min_loss = loss;
  min_loss_.push_back(min_loss);
  solved_ = false;
  return index;
}

void TsallisBatchSolver::solve() { solve_variant(tsallis_batch_active_variant()); }

void TsallisBatchSolver::solve_variant(TsallisBatchVariant variant) {
  CEA_SPAN("opt.tsallis.batch_solve");
  const KernelInfo info = kernel_for(variant);
  const std::size_t width = info.width;
  const int max_iters = tsallis_newton_iteration_cap();

  p_.resize(losses_.size());
  warm_out_.assign(warm_.begin(), warm_.end());

  // Group multi-arm requests by arm count so one SoA chunk shares its arm
  // loop; single-arm requests short-circuit exactly like the oracle
  // (p = {1}, warm untouched). Within a group, warm-started requests are
  // packed before cold ones: a chunk runs until its slowest lane exits,
  // and warm solves converge in a few iterations while cold ones take
  // many, so mixing them wastes most of the fast lanes' sweeps. Chunk
  // composition cannot affect results — every lane's trajectory depends
  // only on its own request.
  order_.clear();
  group_arms_.clear();
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    if (arms_[i] == 1) {
      p_[offset_[i]] = 1.0;
    } else if (std::find(group_arms_.begin(), group_arms_.end(), arms_[i]) ==
               group_arms_.end()) {
      group_arms_.push_back(arms_[i]);
    }
  }
  std::sort(group_arms_.begin(), group_arms_.end());
  // Counting sort into (arm count, warm-before-cold) buckets — one pass
  // to count, one to place — instead of rescanning every request per
  // bucket. Stable (indices stay in push order within a bucket), so the
  // chunk layout is deterministic.
  group_offsets_.assign(2 * group_arms_.size() + 1, 0);
  const auto bucket_of = [&](std::size_t i) {
    const std::size_t pos = static_cast<std::size_t>(
        std::find(group_arms_.begin(), group_arms_.end(), arms_[i]) -
        group_arms_.begin());
    return 2 * pos + (warm_[i] > 0.0 ? 0 : 1);
  };
  for (std::size_t i = 0; i < arms_.size(); ++i)
    if (arms_[i] > 1) ++group_offsets_[bucket_of(i) + 1];
  for (std::size_t b = 1; b < group_offsets_.size(); ++b)
    group_offsets_[b] += group_offsets_[b - 1];
  order_.resize(group_offsets_.back());
  for (std::size_t i = 0; i < arms_.size(); ++i)
    if (arms_[i] > 1) order_[group_offsets_[bucket_of(i)]++] = i;

  CEA_TELEM(static const obs::MetricId obs_batches =
                obs::counter("tsallis.batch.solves");
            obs::add(obs_batches);
            static const obs::MetricId obs_requests =
                obs::counter("tsallis.batch.requests");
            obs::add(obs_requests, static_cast<double>(arms_.size())););

  lane_eta_.resize(width);
  lane_lambda_.resize(width);
  lane_lo_.resize(width);
  lane_hi_.resize(width);
  lane_total_.resize(width);
  lane_exit_.resize(width);
  lane_iters_.resize(width);

  std::size_t group_begin = 0;
  while (group_begin < order_.size()) {
    const std::size_t n = arms_[order_[group_begin]];
    std::size_t group_end = group_begin;
    while (group_end < order_.size() && arms_[order_[group_end]] == n)
      ++group_end;

    theta_soa_.resize(n * width);

    for (std::size_t chunk = group_begin; chunk < group_end; chunk += width) {
      const std::size_t live = std::min(width, group_end - chunk);

      // Benign padding so tail lanes compute finite garbage.
      for (std::size_t lane = live; lane < width; ++lane) {
        lane_eta_[lane] = 1.0;
        lane_lambda_[lane] = 1.0;
        lane_lo_[lane] = 0.5;
        lane_hi_[lane] = 2.0;
        for (std::size_t a = 0; a < n; ++a) theta_soa_[a * width + lane] = 0.0;
      }

      // Per-lane pre-pass: theta shift, bracket, and initial guess with
      // the oracle's exact expressions and preference order (warm hint,
      // equal-theta surrogate, bracket midpoint).
      for (std::size_t lane = 0; lane < live; ++lane) {
        const std::size_t req = order_[chunk + lane];
        const double* losses = losses_.data() + offset_[req];
        const double eta = eta_[req];
        const double min_loss = min_loss_[req];

        const double lambda_lo = 2.0 / eta;
        const double lambda_hi = 2.0 * std::sqrt(static_cast<double>(n)) / eta;
        double lambda = 0.0;
        bool have_guess = false;
        if (warm_[req] > 0.0) {
          lambda = warm_[req] / eta;
          have_guess = lambda > lambda_lo && lambda < lambda_hi;
        }
        if (have_guess) {
          for (std::size_t a = 0; a < n; ++a)
            theta_soa_[a * width + lane] = (losses[a] - min_loss);
        } else {
          // Cold start: accumulate the oracle's mean-theta surrogate in
          // the same transpose pass (same values, same addition order).
          double mean_theta = 0.0;
          for (std::size_t a = 0; a < n; ++a) {
            const double th = losses[a] - min_loss;
            theta_soa_[a * width + lane] = th;
            mean_theta += th;
          }
          mean_theta /= static_cast<double>(n);
          lambda = lambda_hi - mean_theta;
          if (!(lambda > lambda_lo && lambda < lambda_hi))
            lambda = 0.5 * (lambda_lo + lambda_hi);
        }
        lane_eta_[lane] = eta;
        lane_lambda_[lane] = lambda;
        lane_lo_[lane] = lambda_lo;
        lane_hi_[lane] = lambda_hi;
      }

      tsallis_detail::BatchKernelArgs args;
      args.num_arms = n;
      args.theta = theta_soa_.data();
      args.eta = lane_eta_.data();
      args.lambda = lane_lambda_.data();
      args.lo = lane_lo_.data();
      args.hi = lane_hi_.data();
      args.total = lane_total_.data();
      args.exit_kind = lane_exit_.data();
      args.iters = lane_iters_.data();
      args.max_iters = max_iters;
      info.kernel(args);

      // Per-lane post-pass: renormalize converged lanes from their exit
      // state, rerun diverged lanes through the scalar oracle (which
      // replays the identical Newton trajectory into its Brent fallback).
      for (std::size_t lane = 0; lane < live; ++lane) {
        const std::size_t req = order_[chunk + lane];
        const double eta = eta_[req];
        double* p = p_.data() + offset_[req];

        if (lane_exit_[lane] == 0) {
          double warm = warm_[req];
          tsallis_probabilities_into(
              std::span<const double>(losses_.data() + offset_[req], n), eta,
              std::span<double>(p, n), oracle_theta_, &warm);
          warm_out_[req] = warm;
          CEA_TELEM(static const obs::MetricId obs_delegated =
                        obs::counter("tsallis.batch.delegated");
                    obs::add(obs_delegated););
          continue;
        }

        const double lambda = lane_lambda_[lane];
        warm_out_[req] = eta * lambda;
        double total;
        if (lane_exit_[lane] == 1) {
          // Mass-converged: recompute the unnormalized probabilities from
          // the frozen lambda with the oracle's exact per-arm chain —
          // identical bits to the mass_i values of the exit iteration.
          // The exit mass is already known, so the renormalization folds
          // into the same pass: ((4*r)*r) * inv_total multiplies in the
          // oracle's order and reproduces its two-pass bits exactly.
          total = lane_total_[lane];
          const double inv_total = 1.0 / total;
          for (std::size_t a = 0; a < n; ++a) {
            const double r =
                1.0 / (eta * (theta_soa_[a * width + lane] + lambda));
            p[a] = ((4.0 * r) * r) * inv_total;
          }
        } else {
          // Stalled: recompute from the root, the oracle's !p_current
          // path. The mass is only known after the sweep, so this branch
          // keeps the oracle's two-pass normalization.
          total = 0.0;
          for (std::size_t a = 0; a < n; ++a) {
            const double denom = eta * (theta_soa_[a * width + lane] + lambda);
            p[a] = 4.0 / (denom * denom);
            total += p[a];
          }
          const double inv_total = 1.0 / total;
          for (std::size_t a = 0; a < n; ++a) p[a] *= inv_total;
        }

        if (obs::detail_enabled()) {
          static const double kIterEdges[] = {1,  2,  3,  4,  6,  8, 12,
                                              16, 24, 32, 48, 64, 100};
          static const obs::MetricId obs_iters =
              obs::histogram("tsallis.newton_iters", kIterEdges);
          obs::observe(obs_iters,
                       static_cast<double>(std::min(lane_iters_[lane] + 1, 100)));
          static const obs::MetricId obs_solves = obs::counter("tsallis.solves");
          obs::add(obs_solves);
        }
        CEA_CHECK(std::abs(total - 1.0) <= 1e-6, "tsallis.solver_residual",
                  audit::kNoIndex, audit::kNoIndex, total - 1.0,
                  "pre-normalization mass " << total << " deviates from 1 by "
                                            << std::abs(total - 1.0));
#if defined(CEA_AUDIT)
        {
          double audit_sum = 0.0;
          for (std::size_t a = 0; a < n; ++a) {
            CEA_CHECK(std::isfinite(p[a]) && p[a] > 0.0 && p[a] <= 1.0 + 1e-12,
                      "tsallis.simplex_coordinate", audit::kNoIndex,
                      audit::kNoIndex, p[a],
                      "probability " << p[a] << " outside (0, 1]");
            audit_sum += p[a];
          }
          CEA_CHECK(std::abs(audit_sum - 1.0) <= 1e-12, "tsallis.simplex_mass",
                    audit::kNoIndex, audit::kNoIndex, audit_sum - 1.0,
                    "renormalized mass " << audit_sum << " != 1");
        }
#endif
      }
    }
    group_begin = group_end;
  }
  solved_ = true;
}

std::span<const double> TsallisBatchSolver::probabilities(
    std::size_t i) const {
  assert(solved_ && i < arms_.size());
  return {p_.data() + offset_[i], arms_[i]};
}

double TsallisBatchSolver::scaled_lambda_warm(std::size_t i) const {
  assert(solved_ && i < arms_.size());
  return warm_out_[i];
}

}  // namespace cea
