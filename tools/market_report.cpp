// market_report — per-market convergence forensics from an attribution
// trace (docs/OBSERVABILITY.md, "Per-market attribution").
//
// Reads the JSONL written by `sea_solve --attribution-json` and prints:
//   * a consistency audit: at every check, the per-market residual
//     contributions re-summed in file order must match the engine's own
//     recorded L1 aggregate to 1e-12 (they are the same sequential sum, so
//     the shortest-round-trip doubles reproduce it bit-for-bit) — a
//     mismatch exits nonzero, because it means the attribution no longer
//     measures the solve it claims to;
//   * the top-K last-to-converge row markets: the first check after which a
//     market's residual stays at or below epsilon — the markets that gate
//     overall convergence;
//   * residual concentration at the final check: how many markets carry
//     50% / 90% of the remaining L1 residual (a handful of stubborn
//     markets vs. diffuse slow mixing);
//   * the churn-vs-check trajectory: aggregate active-set churn between
//     consecutive checks, against the stopping measure — churn that stays
//     high while the measure plateaus is the stall signature;
//   * per-market kernel-time hot spots (top-K by cumulative seconds).
//
// Malformed lines (e.g. the torn tail of a killed solve) are skipped and
// counted, not fatal (ReadTraceJsonl's lines_skipped mode).
//
// Usage: market_report <attribution.jsonl> [--top K]
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "obs/trace_reader.hpp"

namespace {

using sea::obs::TraceEvent;

constexpr double kConsistencyTol = 1e-12;

struct Check {
  std::size_t iter = 0;
  double measure = 0.0;
  double residual_l1 = 0.0;
  std::uint64_t churn = 0;
  std::vector<double> residuals;  // row markets, file order
};

struct Market {
  std::size_t slot = 0;
  std::string side;
  std::size_t index = 0;
  std::uint64_t solves = 0;
  std::uint64_t breakpoints = 0;
  double kernel_seconds = 0.0;
  std::uint64_t churn = 0;
};

std::string GetString(const TraceEvent& ev, const std::string& key) {
  const auto it = ev.strings.find(key);
  return it == ev.strings.end() ? std::string() : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::size_t top_k = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      top_k = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strncmp(argv[i], "--", 2) != 0 && path.empty()) {
      path = argv[i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " <attribution.jsonl> [--top K]\n";
      return 2;
    }
  }
  if (path.empty()) {
    std::cerr << "usage: " << argv[0] << " <attribution.jsonl> [--top K]\n";
    return 2;
  }

  try {
    std::size_t lines_skipped = 0;
    const auto events = sea::obs::ReadTraceJsonl(path, &lines_skipped);

    std::size_t rows = 0, cols = 0;
    double epsilon = 0.0;
    std::string criterion;
    std::vector<Check> checks;
    std::vector<Market> markets;
    for (const auto& ev : events) {
      const std::string type = ev.Type();
      if (type == "attribution") {
        rows = static_cast<std::size_t>(ev.Number("rows"));
        cols = static_cast<std::size_t>(ev.Number("cols"));
        epsilon = ev.Number("epsilon");
        criterion = GetString(ev, "criterion");
      } else if (type == "attribution_check") {
        Check c;
        c.iter = static_cast<std::size_t>(ev.Number("iter"));
        c.measure = ev.Number("measure");
        c.residual_l1 = ev.Number("residual_l1");
        c.churn = static_cast<std::uint64_t>(ev.Number("churn"));
        c.residuals.reserve(rows);
        checks.push_back(std::move(c));
      } else if (type == "attribution_residual") {
        if (!checks.empty())
          checks.back().residuals.push_back(ev.Number("residual"));
      } else if (type == "attribution_market") {
        Market m;
        m.slot = static_cast<std::size_t>(ev.Number("market"));
        m.side = GetString(ev, "side");
        m.index = static_cast<std::size_t>(ev.Number("index"));
        m.solves = static_cast<std::uint64_t>(ev.Number("solves"));
        m.breakpoints = static_cast<std::uint64_t>(ev.Number("breakpoints"));
        m.kernel_seconds = ev.Number("kernel_seconds");
        m.churn = static_cast<std::uint64_t>(ev.Number("churn"));
        markets.push_back(std::move(m));
      }
      // Unknown kinds: append-only schema, ignore.
    }

    std::cout << "attribution:     " << path << " — " << rows << " x " << cols
              << " markets, " << checks.size() << " checks (criterion "
              << (criterion.empty() ? "?" : criterion) << ", epsilon "
              << epsilon << ")\n";
    if (lines_skipped > 0)
      std::cout << "note: skipped " << lines_skipped
                << " malformed line(s)\n";
    if (checks.empty()) {
      std::cerr << "error: no attribution_check events in " << path << '\n';
      return 1;
    }

    // Consistency audit: re-sum each check's contributions in file order
    // and compare against the engine's recorded aggregate.
    double worst = 0.0;
    std::size_t worst_check = 0;
    bool shape_ok = true;
    for (std::size_t c = 0; c < checks.size(); ++c) {
      if (checks[c].residuals.size() != rows) shape_ok = false;
      double sum = 0.0;
      for (double r : checks[c].residuals) sum += r;
      const double diff = std::fabs(sum - checks[c].residual_l1);
      if (diff > worst) {
        worst = diff;
        worst_check = c;
      }
    }
    std::cout << "consistency:     max |sum - residual_l1| = " << worst
              << " over " << checks.size() << " checks (tolerance "
              << kConsistencyTol << ")\n";
    if (!shape_ok) {
      std::cerr << "error: residual line count does not match rows="
                << rows << " at some check (truncated trace?)\n";
      return 1;
    }
    if (worst > kConsistencyTol) {
      std::cerr << "error: attribution sum diverges from the engine "
                   "aggregate at check "
                << worst_check << " (iter " << checks[worst_check].iter
                << "): |diff| = " << worst << " > " << kConsistencyTol
                << '\n';
      return 1;
    }

    // Last-to-converge: first check after which the market's residual stays
    // <= epsilon through the end of the trace.
    struct Straggler {
      std::size_t market;
      std::size_t settled_iter;  // SIZE_MAX sentinel: never settled
      double final_residual;
    };
    std::vector<Straggler> stragglers;
    stragglers.reserve(rows);
    const Check& last = checks.back();
    for (std::size_t i = 0; i < rows; ++i) {
      std::size_t settled = static_cast<std::size_t>(-1);
      // Scan backwards: the settle point is just past the last violation.
      std::size_t c = checks.size();
      while (c > 0 && checks[c - 1].residuals[i] <= epsilon) --c;
      if (c < checks.size()) settled = checks[c].iter;
      stragglers.push_back({i, settled, last.residuals[i]});
    }
    std::stable_sort(stragglers.begin(), stragglers.end(),
                     [](const Straggler& a, const Straggler& b) {
                       if (a.settled_iter != b.settled_iter)
                         return a.settled_iter > b.settled_iter;
                       return a.final_residual > b.final_residual;
                     });
    std::cout << "last to converge (row markets, residual <= epsilon and "
                 "stays there):\n";
    for (std::size_t k = 0; k < std::min(top_k, stragglers.size()); ++k) {
      const Straggler& s = stragglers[k];
      std::cout << "  market " << s.market << "  settled ";
      if (s.settled_iter == static_cast<std::size_t>(-1))
        std::cout << "never";
      else
        std::cout << "iter " << s.settled_iter;
      std::cout << "  final residual " << s.final_residual << '\n';
    }

    // Residual concentration at the final check.
    std::vector<double> sorted = last.residuals;
    std::sort(sorted.begin(), sorted.end(), std::greater<double>());
    double total = 0.0;
    for (double r : sorted) total += r;
    if (total > 0.0) {
      double acc = 0.0;
      std::size_t at50 = 0, at90 = 0;
      for (std::size_t i = 0; i < sorted.size(); ++i) {
        acc += sorted[i];
        if (at50 == 0 && acc >= 0.5 * total) at50 = i + 1;
        if (acc >= 0.9 * total) {
          at90 = i + 1;
          break;
        }
      }
      std::cout << "concentration:   " << at50 << " of " << rows
                << " markets carry 50% of final L1, " << at90
                << " carry 90%\n";
    } else {
      std::cout << "concentration:   final L1 residual is zero\n";
    }

    // Churn trajectory: active-set movement between consecutive checks vs.
    // the stopping measure.
    std::cout << "churn vs check:\n"
              << "  iter        measure     residual_l1     churn\n";
    for (const Check& c : checks)
      std::cout << "  " << c.iter << "  " << c.measure << "  "
                << c.residual_l1 << "  " << c.churn << '\n';

    // Kernel-time hot spots across both sides.
    if (!markets.empty()) {
      std::vector<const Market*> by_time;
      by_time.reserve(markets.size());
      for (const Market& m : markets) by_time.push_back(&m);
      std::stable_sort(by_time.begin(), by_time.end(),
                       [](const Market* a, const Market* b) {
                         return a->kernel_seconds > b->kernel_seconds;
                       });
      std::cout << "kernel hot spots (cumulative seconds):\n";
      for (std::size_t k = 0; k < std::min(top_k, by_time.size()); ++k) {
        const Market& m = *by_time[k];
        std::cout << "  " << m.side << " " << m.index << "  "
                  << m.kernel_seconds << " s  " << m.solves << " solves  "
                  << m.breakpoints << " breakpoints  churn " << m.churn
                  << '\n';
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 3;
  }
}
