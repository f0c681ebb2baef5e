// Wall-clock and CPU timing utilities used by the solvers and the benchmark
// harness. All times are reported in seconds.
#pragma once

#include <chrono>

namespace sea {

// Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  // Seconds elapsed since construction or last Restart().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Process CPU time in seconds (user + system), mirroring the paper's
// "CPU time exclusive of input and output" reporting convention.
double ProcessCpuSeconds();

}  // namespace sea
