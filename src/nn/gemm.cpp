#include "nn/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "nn/gemm_kernels.h"
#include "obs/telemetry.h"
#include "util/cpu.h"

namespace cea::nn {
namespace {

std::atomic<ComputeBackend> g_backend{ComputeBackend::kGemm};
std::atomic<util::ThreadPool*> g_pool{nullptr};

}  // namespace

void set_compute_backend(ComputeBackend backend) noexcept {
  g_backend.store(backend, std::memory_order_relaxed);
}

ComputeBackend compute_backend() noexcept {
  return g_backend.load(std::memory_order_relaxed);
}

void set_compute_pool(util::ThreadPool* pool) noexcept {
  g_pool.store(pool, std::memory_order_relaxed);
}

util::ThreadPool* compute_pool() noexcept {
  return g_pool.load(std::memory_order_relaxed);
}

namespace gemm {
namespace detail {

void micro_kernel_scalar(const float* a, std::size_t a_rstride,
                         std::size_t a_kstride, const float* b,
                         std::size_t b_kstride, std::size_t kc, float* c,
                         std::size_t ldc, std::size_t rows, std::size_t cols,
                         bool accumulate) {
  // The reference chain: zero-initialized accumulator, one multiply and
  // one add per k, a single += (or = when overwriting) into C at panel
  // end. Every SIMD kernel lane evaluates exactly this; the strides only
  // change where operands live, never the chain.
  for (std::size_t r = 0; r < rows; ++r) {
    float* cr = c + r * ldc;
    const float* ar = a + r * a_rstride;
    for (std::size_t j = 0; j < cols; ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < kc; ++k)
        acc += ar[k * a_kstride] * b[k * b_kstride + j];
      if (accumulate)
        cr[j] += acc;
      else
        cr[j] = acc;
    }
  }
}

}  // namespace detail

namespace {

using detail::KernelDesc;

KernelDesc variant_desc(Variant variant) noexcept {
  switch (variant) {
#if defined(__x86_64__)
    case Variant::kAvx512:
      return {detail::kAvx512Mr, detail::kAvx512Nr,
              &detail::micro_kernel_avx512};
    case Variant::kAvx2:
      return {detail::kAvx2Mr, detail::kAvx2Nr, &detail::micro_kernel_avx2};
#endif
    default:
      return {detail::kScalarMr, detail::kScalarNr,
              &detail::micro_kernel_scalar};
  }
}

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) noexcept {
  return (a + b - 1) / b;
}

/// Element (i, j) of op(A) for an A stored row-major with leading
/// dimension ld.
inline float op_at(const float* a, std::size_t ld, Op op, std::size_t i,
                   std::size_t j) noexcept {
  return op == Op::kNone ? a[i * ld + j] : a[j * ld + i];
}

/// Pack the (rows x kc) A slice starting at (i0, p0) into mr-row
/// sub-panels, k-major, row index fastest, zero-padding past `rows`.
void pack_a(const float* a, std::size_t lda, Op op_a, std::size_t i0,
            std::size_t rows, std::size_t p0, std::size_t kc,
            std::size_t mr, float* apack) {
  const std::size_t panels = ceil_div(rows, mr);
  for (std::size_t ip = 0; ip < panels; ++ip) {
    const std::size_t live = std::min(mr, rows - ip * mr);
    float* dst = apack + ip * kc * mr;
    for (std::size_t k = 0; k < kc; ++k) {
      for (std::size_t r = 0; r < live; ++r)
        dst[k * mr + r] = op_at(a, lda, op_a, i0 + ip * mr + r, p0 + k);
      for (std::size_t r = live; r < mr; ++r) dst[k * mr + r] = 0.0f;
    }
  }
}

/// Pack the (kc x cols) B slice starting at (p0, j0) into nr-column
/// sub-panels, k-major, column index fastest, zero-padding past `cols`.
void pack_b(const float* b, std::size_t ldb, Op op_b, std::size_t j0,
            std::size_t cols, std::size_t p0, std::size_t kc,
            std::size_t nr, float* bpack) {
  const std::size_t panels = ceil_div(cols, nr);
  for (std::size_t jp = 0; jp < panels; ++jp) {
    const std::size_t live = std::min(nr, cols - jp * nr);
    float* dst = bpack + jp * kc * nr;
    if (op_b == Op::kNone) {
      const float* src = b + p0 * ldb + j0 + jp * nr;
      for (std::size_t k = 0; k < kc; ++k) {
        std::memcpy(dst + k * nr, src + k * ldb, live * sizeof(float));
        for (std::size_t j = live; j < nr; ++j) dst[k * nr + j] = 0.0f;
      }
    } else {
      for (std::size_t j = 0; j < live; ++j) {
        const float* src = b + (j0 + jp * nr + j) * ldb + p0;
        for (std::size_t k = 0; k < kc; ++k) dst[k * nr + j] = src[k];
      }
      for (std::size_t k = 0; k < kc; ++k)
        for (std::size_t j = live; j < nr; ++j) dst[k * nr + j] = 0.0f;
    }
  }
}

/// One C tile [i0, i0+rows) x [j0, j0+cols): multiply every K panel in
/// order. Non-transposed operands are fed to the micro-kernel directly
/// from the caller's row-major storage (a_rstride = lda / b_kstride =
/// ldb); only transposed operands and the zero-padded column-edge B panel
/// go through a packing pass. Packing buffers are per-thread so pool
/// workers never share scratch, and they persist across calls (the
/// "reusable workspace" the layers rely on instead of per-call
/// allocation).
void compute_tile(const KernelDesc& kd, const float* a, std::size_t lda,
                  Op op_a, const float* b, std::size_t ldb, Op op_b,
                  float* c, std::size_t ldc, std::size_t i0,
                  std::size_t rows, std::size_t j0, std::size_t cols,
                  std::size_t k, bool accumulate) {
  thread_local std::vector<float> apack;
  thread_local std::vector<float> bpack;
  thread_local std::vector<float> bedge;
  const bool direct_a = op_a == Op::kNone;
  const bool direct_b = op_b == Op::kNone;
  const std::size_t m_panels = ceil_div(rows, kd.mr);
  const std::size_t n_panels = ceil_div(cols, kd.nr);
  if (!direct_a) apack.resize(m_panels * detail::kKC * kd.mr);
  if (!direct_b) bpack.resize(n_panels * detail::kKC * kd.nr);

  for (std::size_t p0 = 0; p0 < k; p0 += detail::kKC) {
    const std::size_t kc = std::min(detail::kKC, k - p0);
    if (!direct_a)
      pack_a(a, lda, op_a, i0, rows, p0, kc, kd.mr, apack.data());
    if (!direct_b)
      pack_b(b, ldb, op_b, j0, cols, p0, kc, kd.nr, bpack.data());
    for (std::size_t jp = 0; jp < n_panels; ++jp) {
      const std::size_t live_cols = std::min(kd.nr, cols - jp * kd.nr);
      const float* bsub;
      std::size_t b_kstride;
      if (!direct_b) {
        bsub = bpack.data() + jp * kc * kd.nr;
        b_kstride = kd.nr;
      } else if (live_cols == kd.nr) {
        bsub = b + p0 * ldb + j0 + jp * kd.nr;
        b_kstride = ldb;
      } else {
        // Column edge of a direct B: the kernel computes full nr-wide
        // vectors, so stage this one panel zero-padded.
        bedge.resize(kc * kd.nr);
        pack_b(b, ldb, op_b, j0 + jp * kd.nr, live_cols, p0, kc, kd.nr,
               bedge.data());
        bsub = bedge.data();
        b_kstride = kd.nr;
      }
      for (std::size_t ip = 0; ip < m_panels; ++ip) {
        const std::size_t live_rows = std::min(kd.mr, rows - ip * kd.mr);
        const float* asub = direct_a
                                ? a + (i0 + ip * kd.mr) * lda + p0
                                : apack.data() + ip * kc * kd.mr;
        // Only the first K panel may overwrite; later panels always add.
        kd.kernel(asub, direct_a ? lda : 1, direct_a ? 1 : kd.mr, bsub,
                  b_kstride, kc,
                  c + (i0 + ip * kd.mr) * ldc + j0 + jp * kd.nr, ldc,
                  live_rows, live_cols, accumulate || p0 > 0);
      }
    }
  }
}

}  // namespace

Variant active_variant() noexcept {
  if (util::have_avx512()) return Variant::kAvx512;
  if (util::have_avx2()) return Variant::kAvx2;
  return Variant::kScalar;
}

void multiply_variant(Variant variant, const float* a, std::size_t lda,
                      Op op_a, const float* b, std::size_t ldb, Op op_b,
                      float* c, std::size_t ldc, std::size_t m,
                      std::size_t n, std::size_t k,
                      util::ThreadPool* pool, bool accumulate) {
  if (m == 0 || n == 0 || k == 0) {
    if (!accumulate && k == 0 && m != 0 && n != 0)
      for (std::size_t i = 0; i < m; ++i)
        std::memset(c + i * ldc, 0, n * sizeof(float));
    return;
  }
  // Kernel telemetry: FLOP count plus a per-call span, so achieved
  // GFLOP/s over any profiled window is nn.gemm.flops / nn.gemm's summed
  // duration (compare against the perf_nn kernel peak). One span per
  // multiply — the call itself is micro- to millisecond scale.
  CEA_SPAN("nn.gemm");
  CEA_TELEM(static const obs::MetricId obs_flops =
                obs::counter("nn.gemm.flops");
            obs::add(obs_flops, 2.0 * static_cast<double>(m) *
                                    static_cast<double>(n) *
                                    static_cast<double>(k)););
  const KernelDesc kd = variant_desc(variant);

  // The tile grid is pure scheduling: K is never split and every tile has
  // one writer, so shrinking tiles to feed more threads cannot change a
  // single accumulation chain (see gemm_kernels.h).
  std::size_t mc = detail::kMC, nc = detail::kNC;
  if (pool != nullptr) {
    const std::size_t want = 3 * (pool->size() + 1);
    const auto tiles = [&] { return ceil_div(m, mc) * ceil_div(n, nc); };
    while (tiles() < want && nc > 4 * kd.nr) nc /= 2;
    while (tiles() < want && mc > 4 * kd.mr) mc /= 2;
  }

  const std::size_t tiles_n = ceil_div(n, nc);
  const std::size_t total = ceil_div(m, mc) * tiles_n;
  const auto task = [&](std::size_t t) {
    const std::size_t i0 = (t / tiles_n) * mc;
    const std::size_t j0 = (t % tiles_n) * nc;
    compute_tile(kd, a, lda, op_a, b, ldb, op_b, c, ldc, i0,
                 std::min(mc, m - i0), j0, std::min(nc, n - j0), k,
                 accumulate);
  };
  if (pool != nullptr && total > 1) {
    pool->parallel_for(total, task);
  } else {
    for (std::size_t t = 0; t < total; ++t) task(t);
  }
}

void multiply(const float* a, std::size_t lda, Op op_a, const float* b,
              std::size_t ldb, Op op_b, float* c, std::size_t ldc,
              std::size_t m, std::size_t n, std::size_t k,
              util::ThreadPool* pool, bool accumulate) {
  multiply_variant(active_variant(), a, lda, op_a, b, ldb, op_b, c, ldc, m,
                   n, k, pool, accumulate);
}

}  // namespace gemm
}  // namespace cea::nn
