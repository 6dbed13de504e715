#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "obs/telemetry.h"

namespace cea::util {
namespace {

// Set while a thread is executing job indices (worker or participating
// caller). A nested parallel_for on such a thread runs inline.
thread_local bool t_in_parallel_region = false;

// Bounded spin (in sched-yield steps) before a thread parks on a condition
// variable. Yielding keeps single-core boxes live (the other party gets the
// CPU immediately) while staying far cheaper than a futex sleep/wake pair
// when jobs arrive back-to-back, as the simulator's per-slot fan-out does.
constexpr int kWorkerSpinYields = 64;
constexpr int kCallerSpinYields = 64;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  wake_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run_job_slice(std::uint64_t epoch_tag) {
  std::uint64_t cur = claim_.load(std::memory_order_acquire);
  if ((cur & ~kIndexMask) != epoch_tag) return;
  // The acquire load above observed our epoch's claim word, so these
  // relaxed loads see the values published by that submission.
  const std::size_t n = job_n_.load(std::memory_order_relaxed);
  const std::function<void(std::size_t)>* fn =
      job_fn_.load(std::memory_order_relaxed);
  while (true) {
    if ((cur & ~kIndexMask) != epoch_tag) return;  // job changed under us
    const std::size_t index = static_cast<std::size_t>(cur & kIndexMask);
    if (index >= n) return;
    if (!claim_.compare_exchange_weak(cur, cur + 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      continue;  // lost the race; cur was reloaded
    }
    (*fn)(index);
    if (job_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      // Lock so the notify cannot slip between the waiter's predicate
      // check and its sleep.
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
    cur = claim_.load(std::memory_order_acquire);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  while (true) {
    // Poll for the next epoch before parking on the condition variable.
    bool observed_change = false;
    for (int spin = 0; spin < kWorkerSpinYields; ++spin) {
      if (stop_.load(std::memory_order_relaxed) ||
          epoch_.load(std::memory_order_acquire) != seen_epoch) {
        observed_change = true;
        break;
      }
      std::this_thread::yield();
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!observed_change) {
        ++sleeping_workers_;
        wake_cv_.wait(lock, [&] {
          return stop_.load(std::memory_order_relaxed) ||
                 epoch_.load(std::memory_order_relaxed) != seen_epoch;
        });
        --sleeping_workers_;
      }
      if (stop_.load(std::memory_order_relaxed)) return;
      seen_epoch = epoch_.load(std::memory_order_relaxed);
      // Honor the submitter's concurrency cap (caller counts as one).
      if (job_workers_cap_ > 0 && job_workers_joined_ + 1 >= job_workers_cap_)
        continue;
      ++job_workers_joined_;
    }
    t_in_parallel_region = true;
    run_job_slice(seen_epoch << kEpochShift);
    t_in_parallel_region = false;
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t max_concurrency) {
  if (n == 0) return;
  if (t_in_parallel_region || workers_.empty() || n == 1 ||
      max_concurrency == 1) {
    CEA_TELEM(static const obs::MetricId obs_inline =
                  obs::counter("pool.inline_jobs");
              obs::add(obs_inline););
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Job telemetry: one span per submitted job (submit -> all indices
  // done, i.e. the caller-observed latency) plus the fan-out width. The
  // pool has no task queue — indices are claimed from a shared counter —
  // so job size is the queue-depth analog.
  CEA_SPAN("pool.job");
  CEA_TELEM(static const double kSizeEdges[] = {1,  2,   4,   8,    16,  32,
                                                64, 128, 256, 1024, 4096};
            static const obs::MetricId obs_size =
                obs::histogram("pool.job_size", kSizeEdges);
            obs::observe(obs_size, static_cast<double>(n)););

  std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  std::uint64_t epoch_tag;
  bool wake_sleepers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_fn_.store(&fn, std::memory_order_relaxed);
    job_n_.store(n, std::memory_order_relaxed);
    job_done_.store(0, std::memory_order_relaxed);
    job_workers_cap_ = max_concurrency;
    job_workers_joined_ = 0;
    const std::uint64_t epoch =
        epoch_.load(std::memory_order_relaxed) + 1;
    epoch_tag = epoch << kEpochShift;
    // Opening the claim word for the new epoch is what lets stale workers
    // (still spinning on the previous epoch's tag) see the job switch.
    claim_.store(epoch_tag, std::memory_order_release);
    epoch_.store(epoch, std::memory_order_release);
    // Spinning workers see the epoch store; only parked ones need the cv.
    // A worker cannot slip into the cv between this snapshot and the
    // notify: it would recheck the predicate under mutex_ first and see
    // the new epoch.
    wake_sleepers = sleeping_workers_ > 0;
  }
  if (wake_sleepers) wake_cv_.notify_all();

  t_in_parallel_region = true;
  run_job_slice(epoch_tag);
  t_in_parallel_region = false;

  // The caller usually drains the job itself (always on a single-core
  // host); spin briefly before paying for a futex sleep.
  for (int spin = 0; spin < kCallerSpinYields; ++spin) {
    if (job_done_.load(std::memory_order_acquire) == n) {
      job_fn_.store(nullptr, std::memory_order_relaxed);
      return;
    }
    std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] {
    return job_done_.load(std::memory_order_acquire) == n;
  });
  job_fn_.store(nullptr, std::memory_order_relaxed);
}

void ThreadPool::parallel_for_blocked(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (grain == 0) {
    const std::size_t participants = workers_.size() + 1;
    grain = std::max<std::size_t>(1, n / (4 * participants));
  }
  if (grain >= n) {
    fn(0, n);
    return;
  }
  const std::size_t shards = (n + grain - 1) / grain;
  parallel_for(shards, [&](std::size_t shard) {
    const std::size_t begin = shard * grain;
    fn(begin, std::min(begin + grain, n));
  });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("CEA_BENCH_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return std::size_t{0};
  }());
  return pool;
}

}  // namespace cea::util
