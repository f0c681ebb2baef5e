// Paper-vs-measured experiment records.
//
// Every bench emits one record per table row: the paper's reported value
// (CPU seconds, speedup, ...) side by side with this build's measurement.
// Records are printed as a table here; the bench harness writes them to
// BENCH_<table>.json (bench/bench_common.hpp), the one machine-readable copy.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace sea {

struct ExperimentRecord {
  std::string experiment;  // e.g. "table1"
  std::string dataset;     // e.g. "1000x1000"
  std::string metric;      // e.g. "cpu_seconds"
  double measured = 0.0;
  std::optional<double> paper;  // the paper's reported value, if any
  std::string note;
};

class ExperimentLog {
 public:
  void Add(ExperimentRecord rec) { records_.push_back(std::move(rec)); }

  void Add(std::string experiment, std::string dataset, std::string metric,
           double measured, std::optional<double> paper = std::nullopt,
           std::string note = {});

  const std::vector<ExperimentRecord>& records() const { return records_; }

  // Paper-vs-measured table (includes the measured/paper ratio, the number
  // the "shape holds" judgement rests on).
  void Print(std::ostream& os) const;

 private:
  std::vector<ExperimentRecord> records_;
};

}  // namespace sea
