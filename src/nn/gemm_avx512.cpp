// AVX-512 GEMM micro-kernel: 8 rows x 32 columns = 16 zmm float
// accumulators. This TU is compiled with -mavx512vl -mavx512dq
// -ffp-contract=off (src/nn/CMakeLists.txt) and must only be entered
// behind the util::have_avx512() runtime check.

#if defined(__x86_64__)

#include <immintrin.h>

#include "nn/gemm_simd.h"

namespace cea::nn::gemm::detail {
namespace {

struct VecAvx512 {
  using Reg = __m512;
  static constexpr std::size_t kWidth = 16;
  static constexpr std::size_t kMr = kAvx512Mr;

  static Reg zero() noexcept { return _mm512_setzero_ps(); }
  static Reg load(const float* p) noexcept { return _mm512_loadu_ps(p); }
  static void store(float* p, Reg v) noexcept { _mm512_storeu_ps(p, v); }
  static Reg broadcast(const float* p) noexcept {
    return _mm512_set1_ps(*p);
  }
  static Reg add(Reg a, Reg b) noexcept { return _mm512_add_ps(a, b); }
  static Reg madd(Reg a, Reg b, Reg acc) noexcept {
    return _mm512_add_ps(acc, _mm512_mul_ps(a, b));
  }
};

static_assert(2 * VecAvx512::kWidth == kAvx512Nr);

}  // namespace

void micro_kernel_avx512(const float* a, std::size_t a_rstride,
                         std::size_t a_kstride, const float* b,
                         std::size_t b_kstride, std::size_t kc, float* c,
                         std::size_t ldc, std::size_t rows, std::size_t cols,
                         bool accumulate) {
  MicroTile<VecAvx512>::run(a, a_rstride, a_kstride, b, b_kstride, kc, c, ldc,
                            rows, cols, accumulate);
}

}  // namespace cea::nn::gemm::detail

#endif  // defined(__x86_64__)
