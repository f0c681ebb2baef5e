#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/profiler.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace sea {
namespace {

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(100, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

class ThreadPoolCoverage : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadPoolCoverage, EveryIndexExactlyOnce) {
  ThreadPool pool(GetParam());
  for (std::size_t n : {0u, 1u, 2u, 7u, 64u, 1000u, 1003u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Pools, ThreadPoolCoverage,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(ThreadPool, WorkerIndexWithinBounds) {
  ThreadPool pool(4);
  std::atomic<bool> ok{true};
  pool.ParallelForWorker(1000, [&](std::size_t, std::size_t, std::size_t w) {
    if (w >= 4) ok = false;
  });
  EXPECT_TRUE(ok);
}

TEST(ThreadPool, DistinctWorkersWriteDistinctSlots) {
  ThreadPool pool(4);
  std::vector<int> counts(4, 0);
  pool.ParallelForWorker(
      4000, [&](std::size_t b, std::size_t e, std::size_t w) {
        counts[w] += static_cast<int>(e - b);
      });
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 4000);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(97, [&](std::size_t b, std::size_t e) {
      total.fetch_add(static_cast<long>(e - b));
    });
  }
  EXPECT_EQ(total.load(), 200L * 97L);
}

TEST(ForRange, NullPoolRunsInline) {
  std::vector<int> hits(50, 0);
  ForRange(nullptr, 50, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(WorkerCount(nullptr), 1u);
}

TEST(ForRange, ZeroElementsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  ForRange(&pool, 0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// ---------------------------------------------------------------------------
// Exception propagation (docs/ROBUSTNESS.md): a throwing body must surface
// on the submitting thread after the region joins, and the pool must stay
// fully usable afterwards. (test_faults.cpp covers the failpoint route; here
// the user's own body throws.)

TEST(ThreadPool, BodyExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  try {
    pool.ParallelFor(100, [](std::size_t b, std::size_t) {
      if (b == 0) throw std::runtime_error("chunk zero exploded");
    });
    FAIL() << "expected the body's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk zero exploded");
  }
}

TEST(ThreadPool, OnlyFirstOfConcurrentExceptionsSurfaces) {
  // Every chunk throws; exactly one exception may escape the region.
  ThreadPool pool(4);
  std::atomic<int> caught{0};
  try {
    pool.ParallelFor(64, [](std::size_t, std::size_t) {
      throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error&) {
    caught.fetch_add(1);
  }
  EXPECT_EQ(caught.load(), 1);
}

TEST(ThreadPool, PoolAndStatsSurviveBodyException) {
  ThreadPool pool(3);
  pool.EnableStats(true);
  EXPECT_THROW(pool.ParallelFor(30,
                                [](std::size_t, std::size_t) {
                                  throw std::logic_error("bad chunk");
                                }),
               std::logic_error);
  // The pool joined cleanly and still runs complete regions.
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, InlinePathPropagatesBodyException) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(5,
                                [](std::size_t, std::size_t) {
                                  throw std::runtime_error("inline boom");
                                }),
               std::runtime_error);
  int sum = 0;
  pool.ParallelFor(5, [&](std::size_t b, std::size_t e) {
    sum += static_cast<int>(e - b);
  });
  EXPECT_EQ(sum, 5);
}

TEST(ForRange, NullPoolPropagatesBodyException) {
  EXPECT_THROW(ForRange(nullptr, 3,
                        [](std::size_t, std::size_t) {
                          throw std::runtime_error("no pool boom");
                        }),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Spin-then-park dispatch: regions issued back to back meet spinning
// workers; a region after a longer idle gap has to wake parked ones, and a
// worker chunk outlasting the budget parks the joining caller.

// Runs a 2-index region on a 2-thread pool whose chunk on the caller waits
// (boundedly) for worker 1 to run the other chunk, so it completes normally
// only if worker 1 picked the region up. Returns whether it did.
bool RegionReachesWorker(ThreadPool& pool) {
  std::atomic<bool> worker_ran{false};
  pool.ParallelForWorker(2, [&](std::size_t, std::size_t, std::size_t w) {
    if (w != 0) {
      worker_ran = true;
      return;
    }
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!worker_ran && std::chrono::steady_clock::now() < give_up)
      std::this_thread::yield();
  });
  return worker_ran;
}

TEST(SpinPark, RegionAfterIdleGapWakesParkedWorker) {
  ThreadPool pool(2);
  const auto idle = 20 * ThreadPool::kSpinBudget;
  for (int round = 0; round < 5; ++round) {
    EXPECT_TRUE(RegionReachesWorker(pool)) << "back to back, round " << round;
    std::this_thread::sleep_for(idle);  // the worker parks on cv_start_
    EXPECT_TRUE(RegionReachesWorker(pool)) << "after idle, round " << round;
  }
}

TEST(SpinPark, CallerParksOnLongWorkerChunk) {
  // The caller's chunk ends once worker 1 holds the other one, which
  // outlasts the spin budget: the caller parks on the join and must still
  // see the worker's write.
  ThreadPool pool(2);
  for (int round = 0; round < 3; ++round) {
    std::atomic<bool> worker_started{false};
    std::vector<std::size_t> ran_on(2, 9);
    pool.ParallelForWorker(2, [&](std::size_t b, std::size_t, std::size_t w) {
      if (w != 0) {
        worker_started = true;
        std::this_thread::sleep_for(20 * ThreadPool::kSpinBudget);
      } else {
        while (!worker_started) std::this_thread::yield();
      }
      ran_on[b] = w;
    });
    EXPECT_LT(ran_on[0], 2u);
    EXPECT_LT(ran_on[1], 2u);
  }
}

TEST(SpinPark, DestroyWhileWorkersSpinJoins) {
  // Destroyed right after a region (workers spinning) or right after
  // construction (workers spinning on the initial epoch): both join.
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(4);
    if (round % 2 == 0) pool.ParallelFor(16, [](std::size_t, std::size_t) {});
  }
  SUCCEED();
}

TEST(SpinPark, QueueWaitRecordedOnSpinAndParkPaths) {
  // Each pooled region records one pool.queue_wait span per spawned
  // worker, whether the worker was spinning or parked when it was issued.
  ThreadPool pool(3);
  obs::Profiler prof;
  prof.Attach();
  for (int region = 0; region < 4; ++region) {
    pool.ParallelFor(64, [](std::size_t, std::size_t) {});
    if (region % 2 == 1)
      std::this_thread::sleep_for(20 * ThreadPool::kSpinBudget);
  }
  prof.Detach();
  std::size_t waits = 0;
  for (const obs::ProfEvent& e : prof.Events())
    if (std::strcmp(e.name, "pool.queue_wait") == 0) ++waits;
  EXPECT_EQ(waits, 4u * 2u);
}

// ---------------------------------------------------------------------------
// The one region schedule: workers claim Grain(n)-index chunks from an
// atomic cursor.

TEST(Schedule, GrainIsAboutEightClaimsPerWorker) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.Grain(1), 1u);
  EXPECT_EQ(pool.Grain(63), 1u);
  EXPECT_EQ(pool.Grain(64), 2u);
  EXPECT_EQ(pool.Grain(1003), 31u);
  EXPECT_EQ(ThreadPool(1).Grain(100), 12u);
}

TEST(Schedule, DynamicCoversEveryIndexOnce) {
  // Every index runs exactly once in a chunk that starts on a grain
  // boundary, at every thread count — including n < threads, where some
  // workers claim nothing.
  for (std::size_t threads : {1u, 2u, 3u, 4u, 7u}) {
    ThreadPool pool(threads);
    for (std::size_t n : {0u, 1u, 2u, 5u, 63u, 1000u}) {
      const std::size_t grain = threads == 1 ? n : pool.Grain(n);
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelForWorker(
          n, [&](std::size_t b, std::size_t e, std::size_t w) {
            ASSERT_LT(w, threads);
            EXPECT_EQ(b % grain, 0u) << "threads=" << threads << " n=" << n;
            EXPECT_LE(e - b, grain);
            for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
          });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n;
    }
  }
}

TEST(Schedule, DynamicBodyExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelForWorker(
                   100,
                   [](std::size_t b, std::size_t, std::size_t) {
                     if (b >= 48) throw std::runtime_error("dyn boom");
                   }),
               std::runtime_error);
  // Pool still healthy for subsequent regions.
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelForWorker(64, [&](std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Schedule, PoolStatsCountChunks) {
  ThreadPool pool(2);
  pool.EnableStats(true);
  std::uint64_t expect = 0;
  for (std::size_t n : {1u, 7u, 100u, 1000u}) {
    pool.ParallelFor(n, [](std::size_t, std::size_t) {});
    expect += (n + pool.Grain(n) - 1) / pool.Grain(n);
  }
  const PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.regions, 4u);
  EXPECT_EQ(stats.chunks, expect);
  EXPECT_EQ(expect, 1u + 7u + 17u + 17u);  // grains 1, 1, 6, 62
}

TEST(PoolStats, DisabledByDefaultAndCostsNothing) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.stats_enabled());
  pool.ParallelFor(100, [](std::size_t, std::size_t) {});
  const PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.regions, 0u);
  EXPECT_EQ(stats.region_wall_seconds, 0.0);
  EXPECT_EQ(stats.BusySecondsTotal(), 0.0);
}

TEST(PoolStats, AccumulatesBusyTimeAcrossRegions) {
  ThreadPool pool(2);
  pool.EnableStats(true);
  auto spin = [](std::size_t b, std::size_t e) {
    volatile double x = 0.0;
    for (std::size_t i = b; i < e; ++i)
      for (int k = 0; k < 2000; ++k) x = x + 1.0;
  };
  for (int region = 0; region < 2; ++region) {
    // Each worker's first chunk waits until both workers hold one, so both
    // record busy time whatever order the chunks are claimed in.
    std::atomic<int> arrived{0};
    std::atomic<bool> seen[2] = {false, false};
    pool.ParallelForWorker(64, [&](std::size_t b, std::size_t e,
                                   std::size_t w) {
      if (!seen[w].exchange(true)) arrived.fetch_add(1);
      while (arrived.load() < 2) std::this_thread::yield();
      spin(b, e);
    });
  }
  const PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_EQ(stats.regions, 2u);
  EXPECT_GT(stats.region_wall_seconds, 0.0);
  EXPECT_GT(stats.BusySecondsTotal(), 0.0);
  ASSERT_EQ(stats.worker_busy_seconds.size(), 2u);
  // Both workers ran chunks of each region.
  EXPECT_GT(stats.worker_busy_seconds[0], 0.0);
  EXPECT_GT(stats.worker_busy_seconds[1], 0.0);
  // Imbalance is a ratio of max to mean chunk time: >= 1 by construction.
  EXPECT_GE(stats.max_imbalance, 1.0);
  EXPECT_GE(stats.mean_imbalance, 1.0);
  EXPECT_GE(stats.max_imbalance, stats.mean_imbalance);
}

TEST(PoolStats, CountsInlineSingleThreadRegions) {
  ThreadPool pool(1);
  pool.EnableStats(true);
  pool.ParallelFor(10, [](std::size_t, std::size_t) {});
  const PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.threads, 1u);
  EXPECT_EQ(stats.regions, 1u);
  EXPECT_EQ(stats.chunks, 1u);  // inline: the whole range is one chunk
  EXPECT_DOUBLE_EQ(stats.max_imbalance, 1.0);  // one chunk = perfectly even
}

TEST(PoolStats, ShortChunksKeepImbalanceFinite) {
  // n < threads leaves some workers without chunks; imbalance is computed
  // over chunks that ran, so it stays a finite ratio.
  ThreadPool pool(4);
  pool.EnableStats(true);
  pool.ParallelFor(2, [](std::size_t, std::size_t) {});
  const PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.regions, 1u);
  EXPECT_GE(stats.max_imbalance, 1.0);
  EXPECT_TRUE(std::isfinite(stats.max_imbalance));
}

TEST(PoolStats, ResetClearsEverything) {
  ThreadPool pool(2);
  pool.EnableStats(true);
  pool.ParallelFor(32, [](std::size_t, std::size_t) {});
  ASSERT_EQ(pool.Stats().regions, 1u);
  pool.ResetStats();
  const PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.regions, 0u);
  EXPECT_EQ(stats.region_wall_seconds, 0.0);
  EXPECT_EQ(stats.BusySecondsTotal(), 0.0);
  EXPECT_EQ(stats.max_imbalance, 0.0);
}

}  // namespace
}  // namespace sea
