// bench_diff — perf-regression gate over BENCH_<table>.json trajectories
// (docs/OBSERVABILITY.md, "Bench JSON").
//
// Bench binaries append one JSON document line per run, so a BENCH file is
// a time series. This tool compares two runs per (experiment, dataset,
// metric) record:
//
//   bench_diff <bench.json>                   last two lines of one file
//   bench_diff <base.json> <candidate.json>   last line of each
//
// Options:
//   --noise <frac>   relative change treated as noise (default 0.25 —
//                    wall-clock on shared CI machines is jittery)
//   --report-only    print the comparison but always exit 0 (CI smoke mode)
//
// Lower-is-better metrics (names containing "seconds", "iterations",
// "sweeps", "rss", or "errors", or a "us", "ms" or "overhead" token between
// underscores, as in "cold_us", "us_per_sweep" or "overhead_ratio") flag a
// REGRESSION when the candidate exceeds the baseline by more than the noise
// band, and an IMPROVEMENT when it drops below it; other metrics are
// reported as CHANGED/ok. Baseline records with no candidate counterpart
// (renamed or deleted) are named and counted, never silently dropped. Every
// schema version compares, but the baseline must name the commit it was
// measured at: a baseline whose git_sha is not 7-40 hex digits (missing,
// "unknown", or a hand-written placeholder) is refused with exit 2, even
// under --report-only, since a gate against invented numbers is no gate.
//
// Exit codes: 0 ok / within noise, 1 at least one regression, 2 usage or a
// baseline without a real git sha, 3 missing/malformed input.
#include <cctype>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "obs/bench_reader.hpp"

namespace {

using sea::obs::BenchDoc;
using sea::obs::BenchRecord;

bool LowerIsBetter(const std::string& metric) {
  // Time units are whole tokens: "cold_us" is a time, "order_reuses" not.
  // So is "overhead": a ratio of instrumented to plain cost.
  const std::string tokens = "_" + metric + "_";
  return metric.find("seconds") != std::string::npos ||
         metric.find("iterations") != std::string::npos ||
         metric.find("sweeps") != std::string::npos ||
         metric.find("rss") != std::string::npos ||
         metric.find("errors") != std::string::npos ||
         tokens.find("_us_") != std::string::npos ||
         tokens.find("_ms_") != std::string::npos ||
         tokens.find("_overhead_") != std::string::npos;
}

std::string Label(const BenchDoc& doc) {
  auto get = [&doc](const char* key) {
    auto it = doc.meta.strings.find(key);
    return it != doc.meta.strings.end() ? it->second : std::string("?");
  };
  return get("git_sha") + " @ " + get("timestamp");
}

// True when the document's git_sha is an abbreviated or full commit id.
bool HasRealSha(const BenchDoc& doc) {
  const auto it = doc.meta.strings.find("git_sha");
  if (it == doc.meta.strings.end()) return false;
  const std::string& sha = it->second;
  if (sha.size() < 7 || sha.size() > 40) return false;
  for (const char c : sha)
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  return true;
}

const BenchRecord* Find(const BenchDoc& doc, const BenchRecord& want) {
  for (const auto& r : doc.records)
    if (r.experiment == want.experiment && r.dataset == want.dataset &&
        r.metric == want.metric)
      return &r;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  double noise = 0.25;
  bool report_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--noise") == 0 && i + 1 < argc) {
      try {
        noise = std::stod(argv[++i]);
      } catch (const std::exception&) {
        std::cerr << "error: malformed --noise value\n";
        return 2;
      }
      if (!(noise >= 0.0)) {
        std::cerr << "error: --noise must be >= 0\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--report-only") == 0) {
      report_only = true;
    } else if (argv[i][0] != '-') {
      paths.push_back(argv[i]);
    } else {
      std::cerr << "usage: " << argv[0]
                << " <bench.json> [<candidate.json>] [--noise <frac>]"
                << " [--report-only]\n";
      return 2;
    }
  }
  if (paths.empty() || paths.size() > 2) {
    std::cerr << "usage: " << argv[0]
              << " <bench.json> [<candidate.json>] [--noise <frac>]"
              << " [--report-only]\n";
    return 2;
  }

  try {
    BenchDoc base, cand;
    if (paths.size() == 1) {
      const auto docs = sea::obs::ReadBenchJsonl(paths[0]);
      if (docs.size() < 2) {
        std::cerr << "error: " << paths[0] << " has " << docs.size()
                  << " run(s); need two to diff (bench output appends one "
                     "line per run)\n";
        return 3;
      }
      base = docs[docs.size() - 2];
      cand = docs[docs.size() - 1];
    } else {
      const auto base_docs = sea::obs::ReadBenchJsonl(paths[0]);
      const auto cand_docs = sea::obs::ReadBenchJsonl(paths[1]);
      if (base_docs.empty() || cand_docs.empty()) {
        std::cerr << "error: empty bench file\n";
        return 3;
      }
      base = base_docs.back();  // last line = most recent run
      cand = cand_docs.back();
    }
    if (!HasRealSha(base)) {
      std::cerr << "error: baseline " << paths[0]
                << " has no real git_sha (want 7-40 hex digits, got "
                << Label(base) << ")\n";
      return 2;
    }

    std::cout << "baseline:  " << Label(base) << '\n'
              << "candidate: " << Label(cand) << '\n'
              << "noise band: ±" << noise * 100.0 << "%\n\n";
    std::cout << std::left << std::setw(24) << "dataset" << std::setw(22)
              << "metric" << std::right << std::setw(14) << "base"
              << std::setw(14) << "cand" << std::setw(10) << "delta"
              << "  verdict\n";

    std::size_t regressions = 0, improvements = 0, compared = 0,
                unmatched = 0;
    for (const auto& b : cand.records) {
      const BenchRecord* prev = Find(base, b);
      if (prev == nullptr) {
        ++unmatched;
        continue;
      }
      ++compared;
      const double denom = std::abs(prev->measured);
      const double rel =
          denom > 0.0 ? (b.measured - prev->measured) / denom
                      : (b.measured == prev->measured ? 0.0 : INFINITY);
      std::string verdict = "ok";
      if (std::abs(rel) > noise) {
        if (LowerIsBetter(b.metric)) {
          if (rel > 0.0) {
            verdict = "REGRESSION";
            ++regressions;
          } else {
            verdict = "improvement";
            ++improvements;
          }
        } else {
          verdict = "changed";
        }
      }
      std::cout << std::left << std::setw(24) << b.dataset << std::setw(22)
                << b.metric << std::right << std::setw(14)
                << std::setprecision(6) << prev->measured << std::setw(14)
                << b.measured << std::setw(9) << std::setprecision(1)
                << std::fixed << rel * 100.0 << "%  " << verdict << '\n';
      std::cout.unsetf(std::ios::fixed);
    }

    std::size_t dropped = 0;
    for (const auto& r : base.records) {
      if (Find(cand, r) != nullptr) continue;
      if (dropped++ == 0)
        std::cout << "\nbaseline records without a candidate counterpart:\n";
      std::cout << "  " << r.experiment << " / " << r.dataset << " / "
                << r.metric << '\n';
    }

    std::cout << '\n'
              << compared << " compared, " << regressions << " regression(s), "
              << improvements << " improvement(s)";
    if (unmatched > 0)
      std::cout << ", " << unmatched << " candidate record(s) without a "
                << "baseline counterpart";
    if (dropped > 0)
      std::cout << ", " << dropped << " baseline record(s) without a "
                << "candidate counterpart";
    std::cout << '\n';
    if (regressions > 0 && report_only)
      std::cout << "(report-only: exiting 0 despite regressions)\n";
    return (regressions > 0 && !report_only) ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 3;
  }
}
