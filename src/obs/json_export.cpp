#include "obs/json_export.hpp"

#include <charconv>
#include <cmath>

#include "core/result.hpp"
#include "parallel/thread_pool.hpp"

namespace sea::obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// ------------------------------------------------------------------ JsonObj

JsonObj& JsonObj::Append(const std::string& key, const std::string& rendered) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += JsonEscape(key);
  body_ += "\":";
  body_ += rendered;
  return *this;
}

JsonObj& JsonObj::Field(const std::string& key, const std::string& value) {
  return Append(key, "\"" + JsonEscape(value) + "\"");
}
JsonObj& JsonObj::Field(const std::string& key, const char* value) {
  return Field(key, std::string(value));
}
JsonObj& JsonObj::Field(const std::string& key, double value) {
  return Append(key, JsonNumber(value));
}
JsonObj& JsonObj::Field(const std::string& key, bool value) {
  return Append(key, value ? "true" : "false");
}
JsonObj& JsonObj::Field(const std::string& key, std::uint64_t value) {
  return Append(key, std::to_string(value));
}
JsonObj& JsonObj::Field(const std::string& key, int value) {
  return Append(key, std::to_string(value));
}
JsonObj& JsonObj::Raw(const std::string& key, const std::string& json) {
  return Append(key, json);
}

// ------------------------------------------------------------------ JsonArr

JsonArr& JsonArr::Append(const std::string& rendered) {
  if (!body_.empty()) body_ += ',';
  body_ += rendered;
  return *this;
}

JsonArr& JsonArr::Add(double value) { return Append(JsonNumber(value)); }
JsonArr& JsonArr::Add(std::uint64_t value) {
  return Append(std::to_string(value));
}
JsonArr& JsonArr::Add(const std::string& value) {
  return Append("\"" + JsonEscape(value) + "\"");
}
JsonArr& JsonArr::Raw(const std::string& json) { return Append(json); }

// ---------------------------------------------------------------- ToJson(s)

namespace {

std::string OpsJson(const OpCounts& ops) {
  return JsonObj()
      .Field("comparisons", ops.comparisons)
      .Field("flops", ops.flops)
      .Field("breakpoints", ops.breakpoints)
      .Field("inversions", ops.inversions)
      .Str();
}

}  // namespace

std::string ToJson(const SeaResult& r) {
  JsonArr rungs;
  for (std::uint8_t rung : r.recovery_rungs)
    rungs.Add(static_cast<std::uint64_t>(rung));
  return JsonObj()
      .Field("status", ToString(r.status))
      .Field("converged", r.converged())
      .Field("iterations", r.iterations)
      .Field("checks_compared", r.checks_compared)
      .Field("final_residual", r.final_residual)
      .Field("objective", r.objective)
      .Field("wall_seconds", r.wall_seconds)
      .Field("cpu_seconds", r.cpu_seconds)
      .Field("row_phase_seconds", r.row_phase_seconds)
      .Field("col_phase_seconds", r.col_phase_seconds)
      .Field("check_phase_seconds", r.check_phase_seconds)
      .Field("order_reuses", r.order_reuses)
      // One market kernel; the field stays so schema-4 readers parse
      // unchanged.
      .Field("kernel_backend", "scalar")
      .Field("kernel_markets", r.kernel_markets)
      .Field("recovered_count", r.recovered_count)
      .Raw("recovery_rungs", rungs.Str())
      .Raw("ops", OpsJson(r.ops))
      .Str();
}

std::string ToJson(const GeneralSeaResult& r) {
  return JsonObj()
      .Field("status", ToString(r.status))
      .Field("converged", r.converged())
      .Field("outer_iterations", r.outer_iterations)
      .Field("total_inner_iterations", r.total_inner_iterations)
      .Field("final_outer_change", r.final_outer_change)
      .Field("objective", r.objective)
      .Field("wall_seconds", r.wall_seconds)
      .Field("cpu_seconds", r.cpu_seconds)
      .Field("linearization_seconds", r.linearization_seconds)
      .Raw("ops", OpsJson(r.ops))
      .Str();
}

std::string ToJson(const HistogramSnapshot& h) {
  JsonArr bounds, counts;
  for (double b : h.bounds) bounds.Add(b);
  for (std::uint64_t c : h.counts) counts.Add(c);
  JsonObj obj;
  obj.Raw("bounds", bounds.Str())
      .Raw("counts", counts.Str())
      .Field("count", h.total_count)
      .Field("sum", h.sum);
  if (h.total_count > 0) obj.Field("min", h.min).Field("max", h.max);
  return obj.Str();
}

std::string ToJson(const MetricsSnapshot& snapshot) {
  JsonObj counters, gauges, histograms;
  for (const auto& [name, value] : snapshot.counters)
    counters.Field(name, value);
  for (const auto& [name, value] : snapshot.gauges) gauges.Field(name, value);
  for (const auto& [name, h] : snapshot.histograms)
    histograms.Raw(name, ToJson(h));
  return JsonObj()
      .Raw("counters", counters.Str())
      .Raw("gauges", gauges.Str())
      .Raw("histograms", histograms.Str())
      .Str();
}

std::string ToJson(const PoolStats& stats) {
  JsonArr busy;
  double busy_total = 0.0;
  for (double s : stats.worker_busy_seconds) {
    busy.Add(s);
    busy_total += s;
  }
  return JsonObj()
      .Field("threads", stats.threads)
      .Field("regions", stats.regions)
      .Field("region_wall_seconds", stats.region_wall_seconds)
      .Raw("worker_busy_seconds", busy.Str())
      .Field("busy_seconds_total", busy_total)
      .Field("max_imbalance", stats.max_imbalance)
      .Field("mean_imbalance", stats.mean_imbalance)
      .Field("chunks", stats.chunks)
      .Str();
}

}  // namespace sea::obs
