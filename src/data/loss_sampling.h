#pragma once

// Internal kernels behind LossProfile::draw_batch_keyed. The three
// kernels — draw_batch_kernel_scalar, draw_batch_kernel_avx2 and
// draw_batch_kernel_avx512 — implement the exact same sampling scheme (see
// loss_profile.h) and must produce bit-identical results;
// tests/data/test_loss_profile.cpp (LossSamplingKernels.*) holds both SIMD
// kernels to the scalar one. Each SIMD kernel lives in its own translation
// unit (loss_sampling_avx2.cpp, loss_sampling_avx512.cpp; shared body in
// loss_sampling_ymm.h) compiled with its -m flags, and is dispatched at
// runtime via have_avx512() / have_avx2().

#include <cstddef>
#include <cstdint>

#include "data/loss_profile.h"
#include "util/rng.h"

namespace cea::data::detail {

/// Increment of the batch word counter (splitmix64's golden-ratio stride).
inline constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// Lane accumulators. While k < (n & ~7), draw k adds into lane
/// (k % 2) * 4 + (k % 8) / 2: even draws (high index halves of the four
/// words of a group) occupy lanes 0-3, odd draws lanes 4-7 — the lane
/// layout of the vector kernel's two ymm accumulators. The rest goes into
/// the tail. The combine order in finish() is part of the sampling
/// scheme's defined semantics.
struct LaneAccum {
  float loss[8] = {};
  float correct[8] = {};
  float loss_tail = 0.0f;
  float correct_tail = 0.0f;

  LossBatch finish() const noexcept {
    LossBatch batch;
    batch.loss_sum = static_cast<double>(
        (((loss[0] + loss[2]) + (loss[1] + loss[3])) +
         ((loss[4] + loss[6]) + (loss[5] + loss[7]))) +
        loss_tail);
    batch.correct_count = static_cast<std::size_t>(
        (((correct[0] + correct[2]) + (correct[1] + correct[3])) +
         ((correct[4] + correct[6]) + (correct[5] + correct[7]))) +
        correct_tail);
    return batch;
  }
};

/// Index of draw position k: word k/2 of the counter-keyed splitmix
/// sequence, high half for even k, low half for odd k, reduced to
/// [0, size) by fixed-point multiply.
inline std::size_t draw_index(std::uint64_t key, std::size_t k,
                              std::uint64_t size) noexcept {
  const std::uint64_t word = mix64(key + (k / 2) * kGolden);
  const std::uint64_t half =
      (k % 2 == 0) ? (word >> 32) : (word & 0xFFFFFFFFULL);
  return static_cast<std::size_t>(half * size >> 32);
}

/// Accumulate draw positions [from, n) into `acc`, octet region then tail.
/// `from` must be a multiple of 8. Shared by the scalar kernel (from = 0)
/// and the vector kernels' remainder handling.
void accumulate_range_scalar(const float* pairs, std::uint64_t size,
                             std::uint64_t key, std::size_t from,
                             std::size_t n, LaneAccum& acc) noexcept;

LossBatch draw_batch_kernel_scalar(const float* pairs, std::uint64_t size,
                                   std::uint64_t key, std::size_t n) noexcept;

#if defined(__x86_64__)
LossBatch draw_batch_kernel_avx2(const float* pairs, std::uint64_t size,
                                 std::uint64_t key, std::size_t n) noexcept;
LossBatch draw_batch_kernel_avx512(const float* pairs, std::uint64_t size,
                                   std::uint64_t key,
                                   std::size_t n) noexcept;
#endif

/// True when the CPU supports the AVX2 kernel. Thin forwarders to
/// util::have_avx2/have_avx512 (util/cpu.h), the process-wide feature
/// cache shared with the nn GEMM dispatch.
bool have_avx2() noexcept;

/// True when the CPU supports the AVX-512VL/DQ kernel.
bool have_avx512() noexcept;

}  // namespace cea::data::detail
