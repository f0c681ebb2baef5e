// Convenience wrappers over ThreadPool used by the solvers.
//
// Solvers take an optional ThreadPool*; a null pool means "serial". These
// helpers keep the call sites free of that branching. Bodies travel as
// FunctionRef (support/function_ref.hpp), so the hot-path sweep lambdas are
// never heap-allocated the way a std::function parameter would force.
#pragma once

#include <cstddef>

#include "parallel/thread_pool.hpp"

namespace sea {

// Runs body(begin, end) over [0, n), on the pool if given, inline otherwise.
void ForRange(ThreadPool* pool, std::size_t n, ThreadPool::Body2 body);

// Runs body(begin, end, worker) with worker in [0, WorkerCount(pool)); a
// worker may run several chunks of one call.
void ForRangeWorker(ThreadPool* pool, std::size_t n, ThreadPool::Body3 body);

// Number of workers a ForRangeWorker call will use (>= 1).
std::size_t WorkerCount(const ThreadPool* pool);

}  // namespace sea
