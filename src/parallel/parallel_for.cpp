#include "parallel/parallel_for.hpp"

namespace sea {

void ForRange(ThreadPool* pool, std::size_t n, ThreadPool::Body2 body) {
  if (n == 0) return;
  if (pool == nullptr || pool->num_threads() == 1) {
    body(0, n);
    return;
  }
  pool->ParallelFor(n, body);
}

void ForRangeWorker(ThreadPool* pool, std::size_t n, ThreadPool::Body3 body) {
  if (n == 0) return;
  if (pool == nullptr || pool->num_threads() == 1) {
    body(0, n, 0);
    return;
  }
  pool->ParallelForWorker(n, body);
}

std::size_t WorkerCount(const ThreadPool* pool) {
  return (pool == nullptr) ? 1 : pool->num_threads();
}

}  // namespace sea
