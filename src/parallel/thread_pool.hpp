// Shared-memory parallel runtime.
//
// The paper parallelizes SEA with IBM Parallel FORTRAN task constructs on the
// shared-memory IBM 3090-600E: the m row (resp. n column) equilibrium
// subproblems of one half-step are independent and are dispatched to distinct
// processors, with a serial convergence-verification phase between sweeps
// (Section 4.2). This ThreadPool is the modern equivalent: a fixed set of
// workers, blocking ParallelFor regions, and no work executed on pool threads
// outside ParallelFor regions.
//
// One schedule (docs/PARALLELISM.md): every region is split by dynamic
// claiming. Workers — the caller included — take chunks of
// max(1, n / (8 * threads)) consecutive indices from a shared atomic cursor
// until the range is exhausted, so a skewed market set balances itself
// without a cost model. Which worker runs a chunk depends on timing, but
// every index runs exactly once, so per-index work that writes only its own
// outputs — the equilibration sweeps — is bit-identical at every thread
// count.
//
// Spin-then-park dispatch: between regions a worker spins on the region
// epoch for kSpinBudget before it parks on a condition variable, and the
// caller spins on the pending-worker count before it parks on the join.
// An SEA solve issues regions back to back (row sweep, column sweep, a
// check every few iterations), so a region published within the budget
// starts without a futex wake-up; an idle pool parks and costs no CPU. The
// mutex still publishes every region and still guards the join count, so
// exception capture and shutdown work exactly as for a parked pool.
//
// Utilization telemetry: EnableStats(true) makes every ParallelFor region
// record per-worker busy seconds, region wall time, per-worker imbalance,
// and chunk counts, exposed as a PoolStats snapshot. Stats are off by
// default and the disabled path adds only a branch.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "support/function_ref.hpp"

namespace sea {

// Point-in-time utilization snapshot of a ThreadPool (valid only between
// ParallelFor regions). Imbalance of one region is max worker chunk time /
// mean worker chunk time over the workers that ran — 1.0 is a perfectly even
// split; the gap to 1.0 is wall time the fastest workers spent idle at the
// join.
struct PoolStats {
  std::size_t threads = 0;
  std::uint64_t regions = 0;           // completed ParallelFor regions
  double region_wall_seconds = 0.0;    // summed region wall (incl. dispatch)
  std::vector<double> worker_busy_seconds;  // chunk-body time per worker
  double max_imbalance = 0.0;   // worst region
  double mean_imbalance = 0.0;  // mean over regions
  // Chunk bodies executed across regions: ceil(n / grain) per pooled
  // region, one per inline (single-thread) region.
  std::uint64_t chunks = 0;

  double BusySecondsTotal() const {
    double total = 0.0;
    for (double s : worker_busy_seconds) total += s;
    return total;
  }
};

class ThreadPool {
 public:
  // How long an idle worker (or the joining caller) spins before it parks.
  // Sized from an SP120 solve's gaps between regions: a few microseconds
  // from a row sweep to its column sweep, about 30 us from a column sweep
  // through a check to the next row sweep. Spinning is bounded CPU time
  // that cpu_seconds reports.
  static constexpr std::chrono::microseconds kSpinBudget{50};

  using Body2 = FunctionRef<void(std::size_t, std::size_t)>;
  using Body3 = FunctionRef<void(std::size_t, std::size_t, std::size_t)>;

  // n_threads == 0 selects the hardware concurrency. n_threads == 1 creates
  // no worker threads; ParallelFor then runs inline on the caller.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return num_threads_; }

  // Runs body(begin, end) over chunks of [0, n) claimed by the pool's
  // workers (including the calling thread). Blocks until every chunk
  // completes. Chunk boundaries are multiples of Grain(n) (a one-thread
  // pool runs [0, n) inline as one chunk); the chunk-to-worker assignment
  // is timing-dependent, but every index runs exactly once.
  //
  // Exception safety (docs/ROBUSTNESS.md): a throw from any chunk is
  // captured, every other chunk still runs to completion (no worker is
  // abandoned mid-region), and the FIRST captured exception is rethrown on
  // the calling thread after the join. The pool remains fully usable for
  // subsequent regions.
  void ParallelFor(std::size_t n, Body2 body);

  // Variant passing the worker index (0 .. num_threads-1) for per-thread
  // scratch buffers. A worker's body may run several times in one region
  // (once per claimed chunk), always with its own worker index.
  void ParallelForWorker(std::size_t n, Body3 body);

  // Indices per claimed chunk of an n-index region: max(1, n / (8 * threads)),
  // about eight claims per worker.
  std::size_t Grain(std::size_t n) const {
    return std::max<std::size_t>(1, n / (8 * num_threads_));
  }

  // Toggle utilization accounting. Call only between regions; the flag is
  // read unsynchronized inside them.
  void EnableStats(bool enabled) { stats_enabled_ = enabled; }
  bool stats_enabled() const { return stats_enabled_; }
  // Snapshot / reset of the accumulated stats; call between regions.
  PoolStats Stats() const;
  void ResetStats();

 private:
  struct Task {
    const Body3* body = nullptr;
    std::size_t n = 0;
    // Monotonic instant the region was published to the workers; stamped
    // only while a profiler is attached (0 otherwise). Each worker records
    // the publish -> chunk-start gap as a "pool.queue_wait" span, making
    // pool dispatch overhead a first-class profiled phase.
    std::uint64_t publish_ns = 0;
  };

  // One slot per worker, cache-line padded: each worker writes only its own
  // slot inside a region and the caller reads after the join barrier.
  struct alignas(64) WorkerSeconds {
    double v = 0.0;
  };

  void WorkerLoop(std::size_t worker_index);
  // Claims and runs chunks of the region until the cursor passes n.
  void RunShare(const Task& task, std::size_t worker);
  // Executes one chunk [begin, end) with profiling/stats accounting.
  void RunChunkRange(const Body3& body, std::size_t begin, std::size_t end,
                     std::size_t worker);
  // Invokes one chunk body, capturing the first exception for the caller.
  void RunBody(const Body3& body, std::size_t begin, std::size_t end,
               std::size_t worker);
  // Rethrows the region's first captured exception, if any (caller thread).
  void RethrowPendingError();
  void FinishRegionStats(std::uint64_t chunks, double wall_seconds);

  std::size_t num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  Task task_;
  // Written under mu_; atomic so spinning threads can poll them unlocked.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> shutdown_{false};
  // First exception thrown by any chunk of the current region (guarded by
  // mu_); moved out and rethrown on the submitting thread after the join.
  std::exception_ptr first_error_;
  // Claim cursor; reset by the submitter while the workers are parked,
  // published with the region under mu_.
  std::atomic<std::size_t> next_index_{0};

  // Utilization accounting (written inside regions only when enabled).
  bool stats_enabled_ = false;
  std::uint64_t stat_regions_ = 0;
  double stat_region_wall_ = 0.0;
  double stat_imbalance_sum_ = 0.0;
  double stat_imbalance_max_ = 0.0;
  std::uint64_t stat_chunks_ = 0;
  std::vector<WorkerSeconds> worker_busy_;
  std::vector<WorkerSeconds> region_chunk_seconds_;
};

}  // namespace sea
