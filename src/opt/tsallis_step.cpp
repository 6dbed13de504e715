#include "opt/tsallis_step.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/telemetry.h"
#include "opt/brent.h"
#include "util/check.h"

namespace cea {
namespace {

/// Sum of p_n(lambda) = 4 / (eta*(theta_n + lambda))^2 over n.
double probability_mass(std::span<const double> theta, double eta,
                        double lambda) noexcept {
  double total = 0.0;
  for (double th : theta) {
    const double denom = eta * (th + lambda);
    total += 4.0 / (denom * denom);
  }
  return total;
}

/// Thread-local so concurrent simulator runs can't see a test's cap.
thread_local int g_newton_iteration_cap = 100;

}  // namespace

int set_tsallis_newton_iteration_cap(int cap) noexcept {
  assert(cap > 0);
  const int previous = g_newton_iteration_cap;
  g_newton_iteration_cap = cap;
  return previous;
}

int tsallis_newton_iteration_cap() noexcept { return g_newton_iteration_cap; }

std::vector<double> tsallis_probabilities(
    std::span<const double> cumulative_losses, double eta) {
  std::vector<double> p(cumulative_losses.size()), theta;
  tsallis_probabilities_into(cumulative_losses, eta, p, theta);
  return p;
}

void tsallis_probabilities_into(std::span<const double> cumulative_losses,
                                double eta, std::span<double> p,
                                std::vector<double>& theta_scratch,
                                double* scaled_lambda_warm) {
  assert(eta > 0.0);
  const std::size_t n = cumulative_losses.size();
  assert(n > 0);
  assert(p.size() == n);
  if (n == 1) {
    p[0] = 1.0;
    return;
  }

  // theta_n = C_n + 2/eta, shifted so that min(theta) = 0: subtracting a
  // constant from all losses only shifts lambda and improves conditioning.
  std::vector<double>& theta = theta_scratch;
  theta.resize(n);
  const double min_loss =
      *std::min_element(cumulative_losses.begin(), cumulative_losses.end());
  for (std::size_t i = 0; i < n; ++i)
    theta[i] = (cumulative_losses[i] - min_loss);

  // Bracket: at lambda_lo the smallest-theta arm alone has mass 1, so the
  // total is >= 1; at lambda_hi every arm has mass <= 1/N, so the total
  // is <= 1.
  const double lambda_lo = 2.0 / eta;
  const double lambda_hi = 2.0 * std::sqrt(static_cast<double>(n)) / eta;

  // Initial guess, best first: (a) the caller's warm hint — the scaled
  // root eta*lambda of the previous block's solve, which drifts slowly
  // between consecutive blocks; (b) the exact root of the equal-theta
  // surrogate N * 4/(eta (mean_theta + lambda))^2 = 1, within a few
  // percent of the true root for small loss spreads; (c) the bracket
  // midpoint.
  double lambda = 0.0;
  bool have_guess = false;
  if (scaled_lambda_warm != nullptr && *scaled_lambda_warm > 0.0) {
    lambda = *scaled_lambda_warm / eta;
    have_guess = lambda > lambda_lo && lambda < lambda_hi;
  }
  if (!have_guess) {
    double mean_theta = 0.0;
    for (double th : theta) mean_theta += th;
    mean_theta /= static_cast<double>(n);
    lambda = lambda_hi - mean_theta;
    if (!(lambda > lambda_lo && lambda < lambda_hi))
      lambda = 0.5 * (lambda_lo + lambda_hi);
  }

  // Safeguarded Newton. Mass and derivative share one reciprocal per arm:
  // p_n = 4 r^2 and dp_n/dlambda = -2 eta p_n r with
  // r = 1/(eta (theta_n + lambda)), so each iteration costs one division
  // per arm. The tolerance is loose (1e-10) because the final
  // renormalization absorbs any residual mass error exactly.
  double lo = lambda_lo, hi = lambda_hi;
  bool newton_ok = false;
  double total = 0.0;   // mass at the lambda the p[] values were taken at
  bool p_current = false;
  const int max_iters = g_newton_iteration_cap;
  int iter = 0;
  for (; iter < max_iters; ++iter) {
    double mass = 0.0, deriv = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = 1.0 / (eta * (theta[i] + lambda));
      const double mass_i = 4.0 * r * r;
      p[i] = mass_i;  // unnormalized p_n; reused on the converged exit
      mass += mass_i;
      deriv -= 2.0 * eta * mass_i * r;
    }
    total = mass;
    p_current = true;
    if (std::abs(mass - 1.0) < 1e-10) {
      newton_ok = true;
      break;
    }
    if (mass > 1.0)
      lo = lambda;  // too much mass -> lambda must grow
    else
      hi = lambda;
    // Newton step on h(lambda) = mass^{-1/2} - 1 instead of mass - 1:
    // when one arm dominates, mass ~ a/(theta+lambda)^2, so h is exactly
    // linear in lambda and the step lands on the root immediately; in
    // mixed regimes it stays quadratically convergent. Algebraically
    // lambda - h/h' = lambda + 2 (mass - mass^{3/2}) / mass'.
    double next = lambda + 2.0 * (mass - mass * std::sqrt(mass)) / deriv;
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    const bool stalled =
        std::abs(next - lambda) < 1e-15 * std::max(1.0, std::abs(lambda));
    lambda = next;
    p_current = false;
    if (stalled) {
      newton_ok = true;
      break;
    }
  }
  if (!newton_ok) {
    const auto root = brent_root(
        [&](double l) { return probability_mass(theta, eta, l) - 1.0; },
        lambda_lo, lambda_hi, 1e-14);
    if (root.converged) lambda = root.x;
    p_current = false;
    CEA_TELEM(static const obs::MetricId obs_fallbacks =
                  obs::counter("tsallis.brent_fallbacks");
              obs::add(obs_fallbacks););
  }
  if (scaled_lambda_warm != nullptr) *scaled_lambda_warm = eta * lambda;
  if (obs::detail_enabled()) {
    // Solver convergence telemetry: Newton iterations per solve (warm
    // starts should keep this at 1-3) and how often the bracketed Brent
    // fallback fires. Solves run per (edge, block, select) — frequent
    // enough that recording is detail-gated.
    static const double kIterEdges[] = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32,
                                        48, 64, 100};
    static const obs::MetricId obs_iters =
        obs::histogram("tsallis.newton_iters", kIterEdges);
    obs::observe(obs_iters, static_cast<double>(std::min(iter + 1, 100)));
    static const obs::MetricId obs_solves = obs::counter("tsallis.solves");
    obs::add(obs_solves);
  }

  if (!p_current) {
    total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double denom = eta * (theta[i] + lambda);
      p[i] = 4.0 / (denom * denom);
      total += p[i];
    }
  }
  const double inv_total = 1.0 / total;
  for (auto& v : p) v *= inv_total;  // exact renormalization
  if (obs::detail_enabled()) {
    // Pre-renormalization simplex residual |mass - 1|: how far the root
    // finder was from the exact simplex before the final renormalization
    // absorbed the error.
    static const double kResidualEdges[] = {1e-16, 1e-14, 1e-12, 1e-10,
                                            1e-8,  1e-6,  1e-4,  1e-2};
    static const obs::MetricId obs_residual =
        obs::histogram("tsallis.simplex_residual", kResidualEdges);
    obs::observe(obs_residual, std::abs(total - 1.0));
  }

  // Audit invariants: the solver's residual mass before renormalization
  // must be near 1 (else the root-finder silently failed and the
  // renormalized p is a distorted distribution), and the output must be a
  // probability simplex with every coordinate finite and positive.
  CEA_CHECK(std::abs(total - 1.0) <= 1e-6, "tsallis.solver_residual",
            audit::kNoIndex, audit::kNoIndex, total - 1.0,
            "pre-normalization mass " << total << " deviates from 1 by "
                                      << std::abs(total - 1.0));
#if defined(CEA_AUDIT)
  {
    double audit_sum = 0.0;
    for (double v : p) {
      CEA_CHECK(std::isfinite(v) && v > 0.0 && v <= 1.0 + 1e-12,
                "tsallis.simplex_coordinate", audit::kNoIndex,
                audit::kNoIndex, v, "probability " << v << " outside (0, 1]");
      audit_sum += v;
    }
    CEA_CHECK(std::abs(audit_sum - 1.0) <= 1e-12, "tsallis.simplex_mass",
              audit::kNoIndex, audit::kNoIndex, audit_sum - 1.0,
              "renormalized mass " << audit_sum << " != 1");
  }
#endif
}

double tsallis_step_objective(std::span<const double> cumulative_losses,
                              double eta, std::span<const double> p) {
  assert(cumulative_losses.size() == p.size());
  double value = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    value += p[i] * cumulative_losses[i];
    value -= (4.0 * std::sqrt(p[i]) - 2.0 * p[i]) / eta;
  }
  return value;
}

}  // namespace cea
