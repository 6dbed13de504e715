// AVX2 GEMM micro-kernel: 6 rows x 16 columns = 12 ymm float
// accumulators.
// This TU is compiled with -mavx2 -ffp-contract=off (src/nn/CMakeLists.txt)
// and must only be entered behind the util::have_avx2() runtime check.

#if defined(__x86_64__)

#include <immintrin.h>

#include "nn/gemm_simd.h"

namespace cea::nn::gemm::detail {
namespace {

struct VecAvx2 {
  using Reg = __m256;
  static constexpr std::size_t kWidth = 8;
  static constexpr std::size_t kMr = kAvx2Mr;

  static Reg zero() noexcept { return _mm256_setzero_ps(); }
  static Reg load(const float* p) noexcept { return _mm256_loadu_ps(p); }
  static void store(float* p, Reg v) noexcept { _mm256_storeu_ps(p, v); }
  static Reg broadcast(const float* p) noexcept {
    return _mm256_broadcast_ss(p);
  }
  static Reg add(Reg a, Reg b) noexcept { return _mm256_add_ps(a, b); }
  static Reg madd(Reg a, Reg b, Reg acc) noexcept {
    return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
  }
};

static_assert(2 * VecAvx2::kWidth == kAvx2Nr);

}  // namespace

void micro_kernel_avx2(const float* a, std::size_t a_rstride,
                       std::size_t a_kstride, const float* b,
                       std::size_t b_kstride, std::size_t kc, float* c,
                       std::size_t ldc, std::size_t rows, std::size_t cols,
                       bool accumulate) {
  MicroTile<VecAvx2>::run(a, a_rstride, a_kstride, b, b_kstride, kc, c, ldc,
                          rows, cols, accumulate);
}

}  // namespace cea::nn::gemm::detail

#endif  // defined(__x86_64__)
