#include "util/cpu.h"

#include <cstdlib>
#include <cstring>

namespace cea::util {
namespace {

/// CEA_FORCE_ISA caps the reported feature level: "scalar" disables every
/// SIMD path, "avx2" hides AVX-512, "avx512" (or unset) hides nothing.
enum class IsaCap { kScalar, kAvx2, kAvx512 };

IsaCap isa_cap() noexcept {
  static const IsaCap cap = [] {
    const char* env = std::getenv("CEA_FORCE_ISA");
    if (env == nullptr) return IsaCap::kAvx512;
    if (std::strcmp(env, "scalar") == 0) return IsaCap::kScalar;
    if (std::strcmp(env, "avx2") == 0) return IsaCap::kAvx2;
    return IsaCap::kAvx512;
  }();
  return cap;
}

}  // namespace

bool have_avx2() noexcept {
#if defined(__x86_64__)
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported && isa_cap() >= IsaCap::kAvx2;
#else
  return false;
#endif
}

bool have_avx512() noexcept {
#if defined(__x86_64__)
  static const bool supported = __builtin_cpu_supports("avx512vl") != 0 &&
                                __builtin_cpu_supports("avx512dq") != 0;
  return supported && isa_cap() >= IsaCap::kAvx512;
#else
  return false;
#endif
}

}  // namespace cea::util
