#pragma once

#include <span>
#include <vector>

namespace cea {

/// Solve the online-mirror-descent step of Algorithm 1 (line 3):
///
///   p = argmin_{p in simplex}  <p, C>  -  sum_n (4*sqrt(p_n) - 2*p_n) / eta
///
/// i.e. mirror descent with the 1/2-Tsallis entropy regularizer of
/// Zimmert & Seldin's Tsallis-INF. Stationarity gives the closed family
///   p_n(lambda) = 4 / (eta^2 * (C_n + 2/eta + lambda)^2),
/// and the normalization multiplier lambda is found by a safeguarded
/// Newton iteration with a Brent-bracketed fallback (the paper cites the
/// Brent method for this inner solve).
///
/// `cumulative_losses` are the importance-weighted cumulative loss
/// estimates \hat{C}_{k-1}(n); `eta` is the block learning rate (> 0).
/// Returns a strictly positive probability vector summing to 1.
std::vector<double> tsallis_probabilities(
    std::span<const double> cumulative_losses, double eta);

/// Allocation-free variant for callers on a hot path (the blocked fleet
/// re-solves this every block, i.e. every few simulated slots per edge):
/// writes the probabilities into `p`, which the caller sizes to
/// cumulative_losses.size() (e.g. one edge's row of an [E x N] slab), and
/// uses `theta_scratch` as working storage, resized as needed and reusable
/// across calls.
///
/// `scaled_lambda_warm`, when non-null, warm-starts the Newton iteration:
/// on entry a positive *scaled_lambda_warm is taken as the scaled root
/// eta*lambda of a previous, similar solve (pass 0.0 when none); on exit it
/// holds this solve's scaled root. Across consecutive blocks eta and the
/// loss spread drift slowly, so the previous scaled root lands within the
/// Newton region of the new one and typically saves most iterations. The
/// safeguarded bracket makes a stale hint harmless.
void tsallis_probabilities_into(std::span<const double> cumulative_losses,
                                double eta, std::span<double> p,
                                std::vector<double>& theta_scratch,
                                double* scaled_lambda_warm = nullptr);

/// Test hook: caps the safeguarded-Newton iterations of both the scalar
/// solver above and TsallisBatchSolver for the calling thread, forcing
/// the divergence (Brent fallback / lane delegation) paths on demand.
/// Returns the previous cap. The default (100) is the production value;
/// tests must restore it.
int set_tsallis_newton_iteration_cap(int cap) noexcept;

/// Current per-thread Newton iteration cap (100 unless a test lowered it).
int tsallis_newton_iteration_cap() noexcept;

/// Objective value of the OMD step at a given p (used by tests to verify
/// optimality of tsallis_probabilities against direct minimization).
double tsallis_step_objective(std::span<const double> cumulative_losses,
                              double eta, std::span<const double> p);

}  // namespace cea
