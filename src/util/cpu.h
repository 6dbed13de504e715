#pragma once

// Runtime CPU feature detection shared by every SIMD dispatch site
// (data/loss_sampling and nn/gemm). Results are cached after the first
// query. The CEA_FORCE_ISA environment variable ("scalar", "avx2",
// "avx512") caps what the detectors report, so kernel-equivalence tests
// and benches can pin a code path on any machine without recompiling.

namespace cea::util {

/// True when the CPU supports the AVX2 kernels (and CEA_FORCE_ISA allows).
bool have_avx2() noexcept;

/// True when the CPU supports the AVX-512VL/DQ kernels (and CEA_FORCE_ISA
/// allows).
bool have_avx512() noexcept;

}  // namespace cea::util
