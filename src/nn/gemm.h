#pragma once

// Tiled, panel-packed single-precision GEMM with runtime ISA dispatch —
// the compute kernel behind Dense, Conv2D and DepthwiseConv2D (forward
// and backward). Mirrors the data/loss_sampling dispatch idiom: a scalar
// reference kernel defines the semantics, the AVX2/AVX-512 kernels live
// in their own -m-flagged translation units (gemm_avx2.cpp /
// gemm_avx512.cpp) behind util::have_avx2/have_avx512 checks, and every
// variant must produce bit-identical results (tests/nn/test_gemm.cpp).
//
// Determinism contract (see DESIGN.md "GEMM kernel layer"):
//  * Each C element is accumulated strictly in increasing-k order within
//    a K panel of fixed size kKC, one mul and one add per update (no FMA
//    contraction), and panels are added to C in increasing panel order.
//  * The K dimension is never split across threads and every C tile has
//    exactly one writer, so serial and thread-pool runs are bit-identical
//    for any thread count — as are the scalar/AVX2/AVX-512 kernels, whose
//    vector lanes evaluate exactly the per-element scalar chains.

#include <cstddef>

#include "util/thread_pool.h"

namespace cea::nn {

/// Which layer compute path Dense/Conv2D/DepthwiseConv2D execute.
/// kReference keeps the original (seed) scalar loops alive as an oracle
/// and as the bench baseline; kGemm is the packed-kernel path and the
/// default.
enum class ComputeBackend { kReference, kGemm };

void set_compute_backend(ComputeBackend backend) noexcept;
ComputeBackend compute_backend() noexcept;

/// Thread pool used by the nn layers and gemm::multiply. nullptr (the
/// default) runs everything inline on the caller; results are
/// bit-identical either way.
void set_compute_pool(util::ThreadPool* pool) noexcept;
util::ThreadPool* compute_pool() noexcept;

namespace gemm {

/// Operand orientation: kNone consumes the matrix as stored (row-major),
/// kTranspose consumes its transpose. Transposition is absorbed by the
/// packing stage; the micro-kernels only ever see packed panels.
enum class Op { kNone, kTranspose };

/// Kernel variant, in dispatch-preference order.
enum class Variant { kScalar, kAvx2, kAvx512 };

/// Variant multiply() dispatches to on this machine (CEA_FORCE_ISA caps
/// it; see util/cpu.h).
Variant active_variant() noexcept;

/// C (m x n) += op_a(A) (m x k) · op_b(B) (k x n), or with
/// accumulate == false, C = op_a(A) · op_b(B) (the BLAS beta == 0 case;
/// C may be uninitialized and its prior contents are ignored).
///
/// All matrices are row-major with explicit leading dimensions (of the
/// stored layout, not the op'd one). With accumulate == true (the
/// default) C must be initialized by the caller — zeroed, or pre-filled
/// with a bias. The overwriting form stores exactly the accumulator a
/// zero-initialized C would receive, so it is the cheap equivalent of
/// zero-fill + accumulate (modulo the sign of zero). When `pool` is
/// non-null the C tile grid is fanned out over it (K is never split, so
/// the result is bit-identical to the serial run).
void multiply(const float* a, std::size_t lda, Op op_a, const float* b,
              std::size_t ldb, Op op_b, float* c, std::size_t ldc,
              std::size_t m, std::size_t n, std::size_t k,
              util::ThreadPool* pool = nullptr, bool accumulate = true);

/// multiply() pinned to one kernel variant — the hook the equivalence
/// tests and perf_nn use. Callers must check util::have_avx2/have_avx512
/// before requesting a SIMD variant.
void multiply_variant(Variant variant, const float* a, std::size_t lda,
                      Op op_a, const float* b, std::size_t ldb, Op op_b,
                      float* c, std::size_t ldc, std::size_t m,
                      std::size_t n, std::size_t k,
                      util::ThreadPool* pool = nullptr,
                      bool accumulate = true);

}  // namespace gemm
}  // namespace cea::nn
