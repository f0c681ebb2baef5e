#include "stats.hpp"

#include <algorithm>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

bool HasTenBeyond(std::size_t n, int percent) {
  return n * static_cast<std::size_t>(100 - percent) >= 1000;
}

int TailPercent(std::size_t n, int cap_percent) {
  for (int p : {99, 90, 50})
    if (p <= cap_percent && HasTenBeyond(n, p)) return p;
  return 50;
}

void LayerSplit::Add(const std::string& name, double seconds) {
  parts_.emplace_back(name, seconds);
}

double LayerSplit::Sum() const {
  double sum = 0.0;
  for (const auto& part : parts_) sum += part.second;
  return sum;
}

void LayerSplit::Finish(const std::string& remainder_name) {
  parts_.emplace_back(remainder_name, total_ - Sum());
}

void LayerTotals::Add(const LayerSplit& split) {
  for (const auto& [name, seconds] : split.parts()) sums_[name] += seconds;
}

double LayerTotals::Get(const std::string& name) const {
  const auto it = sums_.find(name);
  return it == sums_.end() ? 0.0 : it->second;
}

}  // namespace perfbench
