#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cea::util {

/// Persistent worker-thread pool for deterministic data parallelism.
///
/// The pool exposes a single primitive, parallel_for(n, fn): indices
/// 0..n-1 are claimed atomically by the workers plus the calling thread,
/// each index is passed to fn exactly once, and the call returns only when
/// every index has finished. Because callers write results into
/// index-addressed slots and reduce serially afterwards, any computation
/// built on parallel_for is bit-identical for every thread count —
/// including zero workers, where the loop simply runs inline.
///
/// parallel_for is re-entrant by design: a call made from inside a running
/// parallel_for (on a worker or on a caller thread that is participating)
/// executes inline on that thread instead of deadlocking on the pool. This
/// lets e.g. a parallel multi-run driver own simulators that are themselves
/// pool-parallel without either layer knowing about the other.
///
/// A task may throw, on a worker or on the caller. The exception of the
/// lowest index that threw is rethrown on the caller once the job has
/// finished; indices above it may or may not have run (a fanned-out job
/// runs them all, an inline one stops at the first failure). Either way the
/// pool stays usable and the caller's next job fans out as before.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (the calling thread also participates, so up
  /// to size()+1 indices run concurrently).
  std::size_t size() const noexcept { return workers_.size(); }

  /// Run fn(i) for every i in [0, n); blocks until all are done.
  /// `max_concurrency` caps how many threads participate (0 = no cap); the
  /// result is identical either way, only the scheduling changes.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t max_concurrency = 0);

  /// Sharded variant for fleets far wider than the pool: indices [0, n)
  /// are cut into contiguous shards of `grain` indices (the last shard is
  /// shorter) and fn(begin, end) is invoked once per shard. One claim per
  /// *shard* instead of per index amortizes the atomic claim + dispatch
  /// cost that dominates parallel_for when each index is cheap (a 10k-edge
  /// slot is 10k tiny tasks but only ~n/grain claims here). The GEMM
  /// layer's one-writer contract carries over: a shard's callback is the
  /// only writer of state indexed by [begin, end), so any computation that
  /// writes index-addressed results and reduces serially afterwards stays
  /// bit-identical for every thread count and every grain. grain == 0
  /// picks a default that spreads shards ~4 per participant.
  void parallel_for_blocked(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// Process-wide shared pool, created on first use. Sized by the
  /// CEA_BENCH_THREADS environment variable when set (>0), otherwise by
  /// hardware concurrency.
  static ThreadPool& global();

 private:
  /// Index claims are lock-free: claim_ packs the job epoch (high 24 bits)
  /// with the next unclaimed index (low 40 bits). A compare-exchange that
  /// observes a foreign epoch backs off without consuming an index, so a
  /// worker that raced past the end of an old job can never execute an
  /// index of the next one.
  static constexpr int kEpochShift = 40;
  static constexpr std::uint64_t kIndexMask =
      (std::uint64_t{1} << kEpochShift) - 1;

  void worker_loop();
  void run_job_slice(std::uint64_t epoch_tag);
  /// Keep `error` when `index` is the job's lowest failing index so far.
  void record_failure(std::size_t index, std::exception_ptr error);
  /// After the job's last index: rethrow its recorded failure, if any.
  void rethrow_failure();

  std::mutex error_mutex_;
  std::exception_ptr job_error_;  ///< lowest failing index's (error_mutex_)
  std::size_t job_error_index_ = 0;  ///< (error_mutex_)

  std::mutex mutex_;
  std::condition_variable wake_cv_;  ///< workers wait for a new job epoch
  std::condition_variable done_cv_;  ///< caller waits for job completion
  std::mutex submit_mutex_;          ///< serializes concurrent submitters

  // Current job. job_fn_ and job_n_ are written before the claim word is
  // opened for the new epoch (release store), so a thread whose tagged
  // claim succeeds is guaranteed to observe the matching job. They are
  // atomic because a stale worker may load them concurrently with the next
  // submission; the epoch-tag check discards such loads before use.
  std::atomic<const std::function<void(std::size_t)>*> job_fn_{nullptr};
  std::atomic<std::size_t> job_n_{0};
  std::atomic<std::uint64_t> claim_{0};    ///< epoch<<40 | next index
  std::atomic<std::size_t> job_done_{0};   ///< indices finished
  std::size_t job_workers_cap_ = 0;
  std::size_t job_workers_joined_ = 0;
  /// Written under mutex_; atomic so idle workers can poll it lock-free
  /// during their bounded spin before falling back to the condition
  /// variable. The simulator submits one job per slot (microseconds
  /// apart), and a futex sleep/wake cycle per slot would dominate.
  std::atomic<std::uint64_t> epoch_{0};
  std::size_t sleeping_workers_ = 0;  ///< workers inside wake_cv_ (mutex_)

  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

}  // namespace cea::util
