#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "obs/profiler.hpp"
#include "support/failpoint.hpp"
#include "support/stopwatch.hpp"

namespace sea {

namespace {

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Polls done() for up to ThreadPool::kSpinBudget; true once it holds.
template <class Done>
bool SpinFor(Done done) {
  const auto deadline =
      std::chrono::steady_clock::now() + ThreadPool::kSpinBudget;
  for (;;) {
    if (done()) return true;
    CpuRelax();
    if (std::chrono::steady_clock::now() >= deadline) return false;
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::thread::hardware_concurrency();
    if (n_threads == 0) n_threads = 1;
  }
  num_threads_ = n_threads;
  worker_busy_.resize(num_threads_);
  region_chunk_seconds_.resize(num_threads_);
  // Worker 0 is the calling thread; spawn num_threads_ - 1 real workers.
  workers_.reserve(num_threads_ - 1);
  for (std::size_t w = 1; w < num_threads_; ++w)
    workers_.emplace_back([this, w] { WorkerLoop(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::RunBody(const Body3& body, std::size_t begin, std::size_t end,
                         std::size_t worker) {
  // A chunk that throws must not tear down the region: capture the first
  // exception for the submitting thread and let every other chunk finish,
  // so the pool's join protocol (and the pool itself) stays intact.
  try {
    SEA_FAILPOINT_SITE("sea.pool.task")
    fail::MaybeThrow("sea.pool.task");
    body(begin, end, worker);
  } catch (...) {
    std::lock_guard lk(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadPool::RethrowPendingError() {
  std::exception_ptr err;
  {
    std::lock_guard lk(mu_);
    err = std::exchange(first_error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::RunChunkRange(const Body3& body, std::size_t begin,
                               std::size_t end, std::size_t worker) {
  if (begin >= end) return;
  obs::ProfScope prof("pool.chunk");
  if (!stats_enabled_) {
    RunBody(body, begin, end, worker);
    return;
  }
  Stopwatch sw;
  RunBody(body, begin, end, worker);
  const double seconds = sw.Seconds();
  // Exclusive slots; the join barrier publishes them to the caller. A
  // worker accumulates across its claimed chunks.
  worker_busy_[worker].v += seconds;
  region_chunk_seconds_[worker].v += seconds;
}

void ThreadPool::RunShare(const Task& task, std::size_t worker) {
  const std::size_t grain = Grain(task.n);
  for (;;) {
    const std::size_t begin =
        next_index_.fetch_add(grain, std::memory_order_relaxed);
    if (begin >= task.n) return;
    RunChunkRange(*task.body, begin, std::min(begin + grain, task.n), worker);
  }
}

void ThreadPool::FinishRegionStats(std::uint64_t chunks, double wall_seconds) {
  ++stat_regions_;
  stat_region_wall_ += wall_seconds;
  stat_chunks_ += chunks;
  double max_chunk = 0.0, sum_chunk = 0.0;
  for (std::size_t w = 0; w < num_threads_; ++w) {
    max_chunk = std::max(max_chunk, region_chunk_seconds_[w].v);
    sum_chunk += region_chunk_seconds_[w].v;
  }
  // Imbalance compares per-worker shares: every chunk lands on some worker
  // and the per-worker accumulation folds a worker's chunks together, so
  // the denominator is the number of workers that can have held work.
  const std::size_t shares =
      std::min(static_cast<std::size_t>(chunks), num_threads_);
  const double mean_chunk =
      shares > 0 ? sum_chunk / static_cast<double>(shares) : 0.0;
  const double imbalance = mean_chunk > 0.0 ? max_chunk / mean_chunk : 1.0;
  stat_imbalance_sum_ += imbalance;
  stat_imbalance_max_ = std::max(stat_imbalance_max_, imbalance);
}

void ThreadPool::WorkerLoop(std::size_t worker_index) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    SpinFor([&] {
      return shutdown_.load(std::memory_order_relaxed) ||
             epoch_.load(std::memory_order_relaxed) != seen_epoch;
    });
    Task task;
    {
      std::unique_lock lk(mu_);
      cv_start_.wait(lk, [&] { return shutdown_ || epoch_ > seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
      task = task_;
    }
    if (task.publish_ns != 0) {
      // The publish instant was stamped because a profiler was attached;
      // record the dispatch gap on this worker's own track.
      if (obs::Profiler* p = obs::Profiler::Current())
        p->RecordSpan("pool.queue_wait", task.publish_ns,
                      obs::prof_internal::NowNs());
    }
    RunShare(task, worker_index);
    {
      // The decrement releases this worker's writes to a caller that sees
      // the count reach 0 while spinning.
      std::lock_guard lk(mu_);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        cv_done_.notify_one();
    }
  }
}

void ThreadPool::ParallelForWorker(std::size_t n, Body3 body) {
  if (n == 0) return;
  Stopwatch region_sw;
  if (stats_enabled_)
    for (auto& slot : region_chunk_seconds_) slot.v = 0.0;
  if (num_threads_ == 1) {
    // Inline execution: one chunk covering the range, sharing the
    // capture-then-rethrow path so the exception contract is identical with
    // and without workers.
    RunChunkRange(body, 0, n, 0);
    if (stats_enabled_) FinishRegionStats(1, region_sw.Seconds());
    RethrowPendingError();
    return;
  }
  Task task;
  task.body = &body;
  task.n = n;
  next_index_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard lk(mu_);
    task_ = task;
    task_.publish_ns = obs::Profiler::Current() != nullptr
                           ? obs::prof_internal::NowNs()
                           : 0;
    ++epoch_;
    pending_ = num_threads_ - 1;
  }
  cv_start_.notify_all();
  // The calling thread executes its share as worker 0.
  RunShare(task, 0);
  const auto joined = [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  };
  if (!SpinFor(joined)) {
    std::unique_lock lk(mu_);
    cv_done_.wait(lk, joined);
  }
  if (stats_enabled_) {
    const std::size_t grain = Grain(n);
    FinishRegionStats((n + grain - 1) / grain, region_sw.Seconds());
  }
  RethrowPendingError();
}

void ThreadPool::ParallelFor(std::size_t n, Body2 body) {
  ParallelForWorker(
      n, [&body](std::size_t b, std::size_t e, std::size_t) { body(b, e); });
}

PoolStats ThreadPool::Stats() const {
  PoolStats stats;
  stats.threads = num_threads_;
  stats.regions = stat_regions_;
  stats.region_wall_seconds = stat_region_wall_;
  stats.worker_busy_seconds.reserve(num_threads_);
  for (const auto& slot : worker_busy_)
    stats.worker_busy_seconds.push_back(slot.v);
  stats.max_imbalance = stat_imbalance_max_;
  stats.mean_imbalance =
      stat_regions_ > 0
          ? stat_imbalance_sum_ / static_cast<double>(stat_regions_)
          : 0.0;
  stats.chunks = stat_chunks_;
  return stats;
}

void ThreadPool::ResetStats() {
  stat_regions_ = 0;
  stat_region_wall_ = 0.0;
  stat_imbalance_sum_ = 0.0;
  stat_imbalance_max_ = 0.0;
  stat_chunks_ = 0;
  for (auto& slot : worker_busy_) slot.v = 0.0;
  for (auto& slot : region_chunk_seconds_) slot.v = 0.0;
}

}  // namespace sea
