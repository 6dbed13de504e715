#pragma once

// Batched cross-edge solver for the Tsallis-INF OMD step: many
// independent tsallis_probabilities_into solves (one per edge, staged by
// a serial slot engine before its edge loop; see sim::SimOptions::pool)
// iterate Newton together,
// one solve per SIMD lane with per-lane convergence masks. Mirrors the
// nn/gemm dispatch idiom: a scalar lane kernel defines the semantics
// and is the path on hosts without AVX2; the AVX2 kernel lives in its
// own -m-flagged TU (tsallis_batch_avx2.cpp) behind util::have_avx2.
// AVX2 is the widest kernel: on an AVX-512 host an 8-lane kernel
// measured no faster than it at any fleet size (DESIGN.md section 9).
//
// Bit-identity contract (tests/opt/test_tsallis_batch.cpp): for every
// request, probabilities() and scaled_lambda_warm() equal — bit for bit —
// what the scalar oracle tsallis_probabilities_into returns for the same
// (losses, eta, warm) inputs, on every variant and for any batch
// composition. Lanes whose Newton iteration exhausts the cap are rerun
// wholesale through the scalar oracle, so even the Brent fallback path
// is reproduced verbatim.

#include <cstddef>
#include <span>
#include <vector>

namespace cea {

/// Kernel variant, in dispatch-preference order.
enum class TsallisBatchVariant { kScalar, kAvx2 };

/// Variant solve() dispatches to on this machine (CEA_FORCE_ISA caps it;
/// see util/cpu.h).
TsallisBatchVariant tsallis_batch_active_variant() noexcept;

/// Staging + solve + results, reusable across slots: push one request per
/// pending edge solve, call solve(), then read each edge's probabilities
/// and refreshed warm-start. All storage is retained between clear()
/// cycles, so a warmed-up solver allocates nothing per slot.
class TsallisBatchSolver {
 public:
  /// Drop all requests and results; keeps capacity.
  void clear() noexcept;

  /// Append one OMD solve (same arguments as tsallis_probabilities_into;
  /// pass warm == 0.0 for a cold start). Returns the request's index.
  std::size_t push(std::span<const double> cumulative_losses, double eta,
                   double scaled_lambda_warm = 0.0);

  std::size_t size() const noexcept { return arms_.size(); }

  /// Solve every pending request on the best available kernel.
  void solve();

  /// solve() pinned to one kernel variant — the hook the equivalence
  /// tests and perf_solver use. Callers must check util::have_avx2
  /// before requesting kAvx2.
  void solve_variant(TsallisBatchVariant variant);

  /// Normalized probability vector of request i (valid until the next
  /// clear/push/solve).
  std::span<const double> probabilities(std::size_t i) const;

  /// Refreshed scaled root eta*lambda of request i — what the oracle
  /// would have left in *scaled_lambda_warm (the pushed value, unchanged,
  /// for single-arm requests).
  double scaled_lambda_warm(std::size_t i) const;

 private:
  // Requests (parallel arrays; losses_ is the concatenated payload and
  // offset_[i] its start — probabilities share the same layout in p_).
  std::vector<double> losses_;
  std::vector<std::size_t> offset_;
  std::vector<std::size_t> arms_;
  std::vector<double> eta_;
  std::vector<double> warm_;
  std::vector<double> min_loss_;  // per-request min, folded into push()

  // Results.
  std::vector<double> p_;
  std::vector<double> warm_out_;
  bool solved_ = false;

  // Chunk scratch (lane-width arrays + arm-major SoA blocks).
  std::vector<std::size_t> order_;
  std::vector<std::size_t> group_arms_;
  std::vector<std::size_t> group_offsets_;
  std::vector<double> theta_soa_;
  std::vector<double> lane_eta_, lane_lambda_, lane_lo_, lane_hi_,
      lane_total_;
  std::vector<unsigned char> lane_exit_;
  std::vector<int> lane_iters_;
  std::vector<double> oracle_theta_;  // divergence delegation scratch
};

}  // namespace cea
