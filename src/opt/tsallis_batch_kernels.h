#pragma once

// Internal contract between the batched Tsallis-Newton driver
// (tsallis_batch.cpp) and the SIMD kernel translation unit
// (tsallis_batch_avx2.cpp). Nothing here is public API; include
// opt/tsallis_batch.h instead.
//
// A kernel runs the safeguarded Newton iteration of tsallis_step.cpp for
// `width` independent solves at once, one per vector lane. Per-lane state
// (eta, lambda, bracket) lives in width-length arrays; per-arm state
// (theta) is arm-major SoA:
//
//   theta(a, lane) = theta[a * width + lane]
//
// Every lane evaluates exactly the scalar oracle's arithmetic chain —
// same operation order, same groupings, one IEEE-correctly-rounded
// div/sqrt per step, never a fused multiply-add (the TUs are compiled
// with -ffp-contract=off) — so a lane's lambda trajectory is
// bit-identical to a standalone tsallis_probabilities_into call with the
// same inputs. Lanes that exit keep their lambda frozen; later sweeps
// recompute identical bits for them, which is why no masking of the
// arithmetic is needed. The kernel does not store per-arm probabilities:
// the driver reconstructs them from the frozen lambda with the identical
// chain, reproducing the oracle's values bit for bit. Lanes record how
// they exited:
//
//   kind 0 = diverged (max_iters exhausted) — the driver reruns the whole
//            solve through the scalar oracle, reproducing its Brent
//            fallback verbatim;
//   kind 1 = mass converged (|mass - 1| < 1e-10) — lambda[] holds the
//            frozen root and total[] the exit mass; the driver recomputes
//            p via r = 1/(eta*(theta+lambda)), p = (4*r)*r;
//   kind 2 = step stalled — lambda[] holds the root (already advanced to
//            `next`, like the oracle's pre-break assignment); the driver
//            recomputes p from it exactly as the oracle's !p_current
//            path does, p = 4/(denom*denom).

#include <cstddef>

namespace cea::tsallis_detail {

inline constexpr std::size_t kScalarWidth = 1;
inline constexpr std::size_t kAvx2Width = 4;  // one __m256d of lambdas

/// All arrays hold `width` lanes (the variant's vector width); padded
/// lanes must be pre-filled with benign finite values by the driver and
/// are computed but ignored.
struct BatchKernelArgs {
  std::size_t num_arms = 0;        ///< arms per solve (same across lanes)
  const double* theta = nullptr;   ///< [num_arms * width], arm-major SoA
  const double* eta = nullptr;     ///< [width]
  double* lambda = nullptr;        ///< [width] in: initial guess, out: root
  const double* lo = nullptr;      ///< [width] initial lower bracket
  const double* hi = nullptr;      ///< [width] initial upper bracket
  double* total = nullptr;         ///< [width] exit mass (kind-1 lanes)
  unsigned char* exit_kind = nullptr;  ///< [width] 0/1/2, see above
  int* iters = nullptr;            ///< [width] loop index at exit
  int max_iters = 100;             ///< Newton cap (test hook lowers it)
};

/// (func, width) of one kernel variant.
using BatchKernel = void (*)(const BatchKernelArgs&);

void newton_batch_scalar(const BatchKernelArgs& args);

#if defined(__x86_64__)
/// Only call behind util::have_avx2().
void newton_batch_avx2(const BatchKernelArgs& args);
#endif

}  // namespace cea::tsallis_detail
