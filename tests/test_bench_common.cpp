// MeasureScaling, the measured-speedup harness behind Tables 6 and 9: the
// medians and ratios it reports, the pools it hands the solve, and the runs
// it refuses to time. Also BenchJson, the one machine-readable bench record.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/bench_reader.hpp"
#include "parallel/thread_pool.hpp"

namespace sea::bench {
namespace {

std::size_t HostThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

TablePrinter ScalingTable() {
  return TablePrinter(
      {"example", "N", "T_N (s)", "S_N", "paper S_N", "E_N", "paper E_N"});
}

// A solve that reports `base` at every call, with the k-th call's wall time
// taken from `walls` (the last entry repeats), and remembers the size of
// the pool each call got (0 = serial). The first call is the warm-up.
struct Script {
  std::vector<double> walls;
  ScalingRun base{1.0, true, {5, 7}, {1.0, -0.0, 2.5}};
  std::vector<std::size_t> threads;

  std::function<ScalingRun(ThreadPool*)> Solve() {
    return [this](ThreadPool* pool) {
      threads.push_back(pool != nullptr ? pool->num_threads() : 0);
      ScalingRun run = base;
      if (!walls.empty())
        run.wall_seconds = walls[std::min(threads.size(), walls.size()) - 1];
      return run;
    };
  }
};

const ExperimentRecord* Find(const ExperimentLog& log,
                             const std::string& metric) {
  for (const ExperimentRecord& r : log.records())
    if (r.metric == metric) return &r;
  return nullptr;
}

TEST(MeasureScaling, SerialRowIsMedianOfThreeAfterWarmUp) {
  Script s;
  s.walls = {100.0, 5.0, 1.0, 3.0};
  TablePrinter table = ScalingTable();
  ExperimentLog log;
  EXPECT_TRUE(MeasureScaling("t", "ex", {}, s.Solve(), table, log));
  EXPECT_EQ(s.threads, (std::vector<std::size_t>{0, 0, 0, 0}));
  EXPECT_EQ(table.rows(), 1u);
  ASSERT_EQ(log.records().size(), 1u);
  const ExperimentRecord* t1 = Find(log, "wall_seconds_t1");
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(t1->measured, 3.0);  // the warm-up's 100 s is not timed
  EXPECT_EQ(t1->experiment, "t");
  EXPECT_EQ(t1->dataset, "ex");
}

TEST(MeasureScaling, SpeedupIsSerialOverParallelMedian) {
  Script s;
  s.walls = {9.0, 4.0, 4.0, 4.0, 1.0, 3.0, 2.0};
  TablePrinter table = ScalingTable();
  ExperimentLog log;
  EXPECT_TRUE(MeasureScaling("t", "ex", {{2, 1.9, 95.0}}, s.Solve(), table,
                             log));
  EXPECT_EQ(table.rows(), 2u);
  const ExperimentRecord* sp = Find(log, "speedup_p2");
  if (HostThreads() < 2) {
    EXPECT_EQ(sp, nullptr);
    return;
  }
  ASSERT_NE(sp, nullptr);
  EXPECT_EQ(sp->measured, 2.0);  // T_1 = 4, T_2 = median{1, 3, 2} = 2
  ASSERT_TRUE(sp->paper.has_value());
  EXPECT_EQ(*sp->paper, 1.9);
  const ExperimentRecord* t2 = Find(log, "wall_seconds_t2");
  ASSERT_NE(t2, nullptr);
  EXPECT_EQ(t2->measured, 2.0);
  EXPECT_FALSE(t2->paper.has_value());
}

TEST(MeasureScaling, ParallelRunsGetAPoolOfEachCount) {
  Script s;
  TablePrinter table = ScalingTable();
  ExperimentLog log;
  EXPECT_TRUE(MeasureScaling("t", "ex", {{2, 1.9, 95.0}, {4, 3.6, 90.0}},
                             s.Solve(), table, log));
  std::vector<std::size_t> expected = {0, 0, 0, 0};
  for (std::size_t n : {2u, 4u})
    if (n <= HostThreads()) expected.insert(expected.end(), 3, n);
  EXPECT_EQ(s.threads, expected);
  EXPECT_EQ(table.rows(), 3u);
}

TEST(MeasureScaling, CountAboveHostThreadsIsNotMeasured) {
  Script s;
  const std::size_t n = HostThreads() + 1;
  TablePrinter table = ScalingTable();
  ExperimentLog log;
  EXPECT_TRUE(
      MeasureScaling("t", "ex", {{n, 5.5, 91.0}}, s.Solve(), table, log));
  EXPECT_EQ(s.threads, (std::vector<std::size_t>{0, 0, 0, 0}));
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(Find(log, "wall_seconds_t" + std::to_string(n)), nullptr);
  EXPECT_EQ(Find(log, "speedup_p" + std::to_string(n)), nullptr);
  std::ostringstream os;
  table.Print(os);
  EXPECT_NE(os.str().find("not measured"), std::string::npos) << os.str();
}

// Every timed run is held to the warm-up's work, the serial repeats too, so
// the failure cases below need no second thread.
TEST(MeasureScaling, NonConvergedRunFails) {
  Script s;
  auto solve = s.Solve();
  int calls = 0;
  auto flaky = [&](ThreadPool* pool) {
    ScalingRun run = solve(pool);
    if (++calls == 3) run.converged = false;
    return run;
  };
  TablePrinter table = ScalingTable();
  ExperimentLog log;
  EXPECT_FALSE(MeasureScaling("t", "ex", {}, flaky, table, log));
}

TEST(MeasureScaling, OtherIterationCountsFail) {
  Script s;
  auto solve = s.Solve();
  int calls = 0;
  auto drifting = [&](ThreadPool* pool) {
    ScalingRun run = solve(pool);
    if (++calls == 2) run.iterations.back() += 1;
    return run;
  };
  TablePrinter table = ScalingTable();
  ExperimentLog log;
  EXPECT_FALSE(MeasureScaling("t", "ex", {}, drifting, table, log));
}

TEST(MeasureScaling, OtherSolutionBitsFail) {
  // +0.0 == -0.0 as doubles; the bit comparison still tells them apart.
  Script s;
  auto solve = s.Solve();
  int calls = 0;
  auto signed_zero = [&](ThreadPool* pool) {
    ScalingRun run = solve(pool);
    if (++calls == 4) run.x[1] = 0.0;
    return run;
  };
  TablePrinter table = ScalingTable();
  ExperimentLog log;
  EXPECT_FALSE(MeasureScaling("t", "ex", {}, signed_zero, table, log));
}

TEST(MeasureScaling, OtherSolutionLengthFails) {
  Script s;
  auto solve = s.Solve();
  int calls = 0;
  auto shorter = [&](ThreadPool* pool) {
    ScalingRun run = solve(pool);
    if (++calls == 2) run.x.pop_back();
    return run;
  };
  TablePrinter table = ScalingTable();
  ExperimentLog log;
  EXPECT_FALSE(MeasureScaling("t", "ex", {}, shorter, table, log));
}

// Every record field survives BenchJson -> ParseBenchDoc, including a free
// text note holding commas and quotes and a record with no paper value.
TEST(BenchJson, RecordsRoundTripThroughTheReader) {
  ExperimentLog log;
  const std::string note = "paper says \"fast\", we measure slower";
  log.Add("table1", "d,with,commas", "cpu_seconds", 12.5, 483.2065, note);
  log.Add("table3", "S2000", "cpu_seconds", 1.0);
  BenchOptions opts;
  opts.quick = true;

  const obs::BenchDoc doc =
      obs::ParseBenchDoc(BenchJson(log, opts, "table_test"));
  EXPECT_EQ(doc.meta.strings.at("bench"), "table_test");
  ASSERT_EQ(doc.records.size(), 2u);
  const obs::BenchRecord& first = doc.records[0];
  EXPECT_EQ(first.experiment, "table1");
  EXPECT_EQ(first.dataset, "d,with,commas");
  EXPECT_EQ(first.metric, "cpu_seconds");
  EXPECT_EQ(first.measured, 12.5);
  ASSERT_TRUE(first.paper.has_value());
  EXPECT_EQ(*first.paper, 483.2065);
  EXPECT_EQ(first.note, note);
  const obs::BenchRecord& second = doc.records[1];
  EXPECT_EQ(second.experiment, "table3");
  EXPECT_FALSE(second.paper.has_value());
  EXPECT_EQ(second.note, "");
}

}  // namespace
}  // namespace sea::bench
