// Reader for the BENCH_<table>.json trajectory files written by
// bench/bench_common (one full JSON document per line, append-mode) and for
// the flat sections of `sea_solve --metrics-json` output.
//
// The documents are one level deep: top-level scalars plus named arrays
// ("records", "phases") whose elements are flat objects. This reader splits
// the document at that level and delegates every flat object to
// obs::ParseTraceLine, so it inherits the trace reader's append-only-schema
// tolerance: unknown scalar fields and unknown arrays are kept/skipped, not
// errors. Schema-1 documents (no metadata, no phases) parse fine — the
// accessors just come back empty.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "obs/trace_reader.hpp"

namespace sea::obs {

// One paper-vs-measured record of a bench table.
struct BenchRecord {
  std::string experiment;
  std::string dataset;
  std::string metric;
  double measured = 0.0;
  std::optional<double> paper;
  std::string note;
};

// One aggregated profiler phase (obs/profiler.hpp PhaseStat, as exported).
struct BenchPhase {
  std::string phase;
  double count = 0.0;
  double total_seconds = 0.0;
  double self_seconds = 0.0;
  double mean_seconds = 0.0;
  double max_seconds = 0.0;
};

// One bench run (one JSONL line).
struct BenchDoc {
  TraceEvent meta;  // top-level scalars: schema, bench, git_sha, ...
  std::vector<BenchRecord> records;
  std::vector<BenchPhase> phases;
};

// Splits a rendered JSON object into ordered (key, raw value fragment)
// pairs at the object's top level. Values are returned verbatim — scalars,
// strings (with quotes), arrays, and nested objects alike — so callers can
// recurse into nested documents. Escape-aware; throws InvalidArgument when
// malformed.
std::vector<std::pair<std::string, std::string>> JsonObjectFields(
    const std::string& json);

// Parses a "[1,2.5,3]" fragment into doubles. Non-numeric elements are
// skipped, not errors.
std::vector<double> JsonNumberArray(const std::string& json);

// Parses one document line. Throws InvalidArgument on malformed input.
BenchDoc ParseBenchDoc(const std::string& line);

// Reads every non-empty line of a BENCH JSONL file, oldest first. Throws
// InvalidArgument on a missing file or an unparsable line (the message
// names the line number).
std::vector<BenchDoc> ReadBenchJsonl(const std::string& path);

}  // namespace sea::obs
