#pragma once

// Internal contract between the GEMM driver (gemm.cpp) and the
// micro-kernel translation units (gemm_avx2.cpp / gemm_avx512.cpp).
// Nothing here is public API; include nn/gemm.h instead.
//
// A micro-kernel multiplies one (rows x kc) A sub-panel by one (kc x cols)
// B sub-panel into C. Operands are addressed through strides so the same
// kernel runs on packed panels and, when the op is kNone, directly on the
// caller's row-major storage (no packing pass at all):
//
//   A(r, k) = a[r * a_rstride + k * a_kstride]
//   B(k, j) = b[k * b_kstride + j]
//
// Packed panels use (a_rstride, a_kstride) = (1, mr) and b_kstride = nr —
// the classic k-major layout, built by pack_a/pack_b for transposed
// operands and for column-edge B panels (which must be zero-padded to nr
// so full-width vector loads stay in bounds). Direct operands use
// (lda, 1) and ldb.
//
// For each element the kernel accumulates a*b products in increasing-k
// order into a zero-initialized register accumulator (one multiply, one
// add per step — never a fused op) and finally performs the single update
// C[r][j] += acc (accumulate == true) or the single store C[r][j] = acc
// (accumulate == false, the BLAS beta == 0 case — the driver passes it for
// the first K panel of an overwriting multiply so callers need not
// pre-zero C). Padded lanes are computed but not stored. This per-element
// chain is the entire numeric semantics of a kernel — it does not depend
// on how the operand was addressed — which is why scalar, AVX2 and
// AVX-512 outputs, packed or direct, are bit-identical
// (tests/nn/test_gemm.cpp).

#include <cstddef>

namespace cea::nn::gemm::detail {

/// K-panel depth. Part of the numeric contract (panel boundaries decide
/// where partial sums are folded into C), so every kernel and both the
/// serial and parallel drivers share this one constant.
inline constexpr std::size_t kKC = 256;

/// Default C tile extents (rows x cols). Unlike kKC these are free
/// parameters: the tile grid never changes any accumulation chain, only
/// which task computes it, so the driver may shrink tiles to feed more
/// threads without affecting results.
inline constexpr std::size_t kMC = 64;
inline constexpr std::size_t kNC = 240;

/// (a, a_rstride, a_kstride, b, b_kstride, kc, c, ldc, rows, cols,
/// accumulate) — rows/cols are the live extents (<= mr/nr of the variant);
/// when cols < nr, b must be zero-padded to nr columns (i.e. a packed
/// panel). accumulate == false stores the panel result instead of adding
/// it to C.
using MicroKernel = void (*)(const float* a, std::size_t a_rstride,
                             std::size_t a_kstride, const float* b,
                             std::size_t b_kstride, std::size_t kc, float* c,
                             std::size_t ldc, std::size_t rows,
                             std::size_t cols, bool accumulate);

/// Register-tile shape and entry point of one kernel variant.
struct KernelDesc {
  std::size_t mr = 0;
  std::size_t nr = 0;
  MicroKernel kernel = nullptr;
};

/// Scalar reference kernel (gemm.cpp). Defines the semantics.
void micro_kernel_scalar(const float* a, std::size_t a_rstride,
                         std::size_t a_kstride, const float* b,
                         std::size_t b_kstride, std::size_t kc, float* c,
                         std::size_t ldc, std::size_t rows, std::size_t cols,
                         bool accumulate);
inline constexpr std::size_t kScalarMr = 6;
inline constexpr std::size_t kScalarNr = 16;

#if defined(__x86_64__)
/// 6x16 AVX2 kernel (gemm_avx2.cpp, -mavx2); enter only behind
/// util::have_avx2().
void micro_kernel_avx2(const float* a, std::size_t a_rstride,
                       std::size_t a_kstride, const float* b,
                       std::size_t b_kstride, std::size_t kc, float* c,
                       std::size_t ldc, std::size_t rows, std::size_t cols,
                       bool accumulate);
inline constexpr std::size_t kAvx2Mr = 6;
inline constexpr std::size_t kAvx2Nr = 16;

/// 8x32 AVX-512 kernel (gemm_avx512.cpp, -mavx512vl -mavx512dq); enter
/// only behind util::have_avx512().
void micro_kernel_avx512(const float* a, std::size_t a_rstride,
                         std::size_t a_kstride, const float* b,
                         std::size_t b_kstride, std::size_t kc, float* c,
                         std::size_t ldc, std::size_t rows, std::size_t cols,
                         bool accumulate);
inline constexpr std::size_t kAvx512Mr = 8;
inline constexpr std::size_t kAvx512Nr = 32;
#endif

}  // namespace cea::nn::gemm::detail
