// Summary statistics of the repository benchmark: the percentile rule and
// the per-operation layer split.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Linear-interpolated quantile (0 <= q <= 1) of `samples`; 0 when empty.
double Quantile(std::vector<double> samples, double q);

// True when the `percent`-th percentile of `n` samples has at least ten
// samples beyond it, i.e. n * (100 - percent) / 100 >= 10. Integer
// arithmetic, so p99 of exactly 1000 samples qualifies.
bool HasTenBeyond(std::size_t n, int percent);

// The percentile rule: the highest of p50, p90 and p99, capped at
// `cap_percent`, that has at least ten samples beyond it. Falls back to 50
// when not even the median qualifies.
int TailPercent(std::size_t n, int cap_percent);

// One operation's end-to-end time split into named layers. The last layer
// is the remainder — the part of the total no named layer covers — so the
// parts always add up to the total.
class LayerSplit {
 public:
  explicit LayerSplit(double total_seconds) : total_(total_seconds) {}

  void Add(const std::string& name, double seconds);
  // Appends `remainder_name` = total - sum(parts so far).
  void Finish(const std::string& remainder_name);

  const std::vector<std::pair<std::string, double>>& parts() const {
    return parts_;
  }
  double total() const { return total_; }
  double Sum() const;

 private:
  double total_;
  std::vector<std::pair<std::string, double>> parts_;
};

// Per-layer sums over many operations.
class LayerTotals {
 public:
  void Add(const LayerSplit& split);
  double Get(const std::string& name) const;

 private:
  std::map<std::string, double> sums_;
};

}  // namespace perfbench
