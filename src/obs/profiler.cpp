#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>

#include "obs/json_export.hpp"
#include "obs/trace_reader.hpp"
#include "support/check.hpp"
#include "support/failpoint.hpp"

namespace sea::obs {

namespace prof_internal {

std::atomic<Profiler*> g_current{nullptr};

// Monotonically increasing across every Attach in the process; a thread's
// cached buffer pointer is valid only for the generation it was issued
// under, so a stale cache can never alias a later profiler's storage.
std::atomic<std::uint64_t> g_generation{0};

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {
struct ThreadCache {
  std::uint64_t generation = 0;  // 0 never matches a live attach
  Profiler::ThreadBuffer* buffer = nullptr;
};
thread_local ThreadCache t_cache;
}  // namespace

}  // namespace prof_internal

Profiler::Profiler(ProfilerOptions opts) : opts_(opts) {}

Profiler::~Profiler() {
  if (Current() == this) Detach();
}

void Profiler::Attach() {
  Profiler* expected = nullptr;
  SEA_CHECK_MSG(prof_internal::g_current.compare_exchange_strong(
                    expected, nullptr, std::memory_order_relaxed),
                "another Profiler is already attached");
  generation_ =
      prof_internal::g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  prof_internal::g_current.store(this, std::memory_order_release);
}

void Profiler::Detach() {
  Profiler* expected = this;
  prof_internal::g_current.compare_exchange_strong(expected, nullptr,
                                                   std::memory_order_acq_rel);
}

Profiler* Profiler::Current() {
  return prof_internal::g_current.load(std::memory_order_acquire);
}

Profiler::ThreadBuffer* Profiler::BufferForThisThread() {
  auto& cache = prof_internal::t_cache;
  if (cache.generation == generation_) return cache.buffer;
  std::lock_guard lk(mu_);
  auto buf = std::make_unique<ThreadBuffer>();
  buf->index = static_cast<std::uint32_t>(buffers_.size());
  cache = {generation_, buf.get()};
  buffers_.push_back(std::move(buf));
  return cache.buffer;
}

void Profiler::RecordSpan(const char* name, std::uint64_t start_ns,
                          std::uint64_t end_ns) {
  ThreadBuffer* buf = BufferForThisThread();
  if (buf->events.size() >= opts_.max_events_per_thread) {
    ++buf->dropped;
    return;
  }
  buf->events.push_back({name, start_ns, end_ns, buf->index});
}

std::vector<ProfEvent> Profiler::Events() const {
  std::lock_guard lk(mu_);
  std::vector<ProfEvent> out;
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b->events.size();
  out.reserve(total);
  for (const auto& b : buffers_)
    out.insert(out.end(), b->events.begin(), b->events.end());
  return out;
}

std::uint64_t Profiler::dropped() const {
  std::lock_guard lk(mu_);
  std::uint64_t total = 0;
  for (const auto& b : buffers_) total += b->dropped;
  return total;
}

std::size_t Profiler::thread_count() const {
  std::lock_guard lk(mu_);
  return buffers_.size();
}

void ProfScope::Begin(const char* name) {
  name_ = name;
  buffer_ = profiler_->BufferForThisThread();
  start_ns_ = prof_internal::NowNs();
}

void ProfScope::End() {
  profiler_->RecordSpan(name_, start_ns_, prof_internal::NowNs());
}

// ---------------------------------------------------------------- analysis

std::vector<RawSpan> ToRawSpans(const std::vector<ProfEvent>& events) {
  std::vector<RawSpan> spans;
  spans.reserve(events.size());
  for (const auto& ev : events)
    spans.push_back({ev.name, ev.start_ns, ev.end_ns, ev.thread});
  return spans;
}

std::vector<PhaseStat> SummarizeSpans(std::vector<RawSpan> spans) {
  // Same-thread spans follow stack discipline (RAII), so within one thread
  // the intervals are properly nested. Sort by (thread, start asc, end
  // desc) — a parent sorts before its children — then a stack walk charges
  // each span's duration to its innermost enclosing span as child time.
  std::sort(spans.begin(), spans.end(),
            [](const RawSpan& a, const RawSpan& b) {
              if (a.thread != b.thread) return a.thread < b.thread;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns > b.end_ns;
            });

  struct Open {
    std::size_t span;  // index into spans
    std::uint64_t child_ns = 0;
  };
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  std::vector<Open> stack;
  auto flush = [&](std::size_t keep) {
    while (stack.size() > keep) {
      child_ns[stack.back().span] = stack.back().child_ns;
      stack.pop_back();
    }
  };
  std::uint32_t stack_thread = 0;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const RawSpan& s = spans[k];
    if (!stack.empty() && stack_thread != s.thread) flush(0);
    stack_thread = s.thread;
    while (!stack.empty() && spans[stack.back().span].end_ns <= s.start_ns) {
      child_ns[stack.back().span] = stack.back().child_ns;
      stack.pop_back();
    }
    const std::uint64_t dur =
        s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0;
    if (!stack.empty()) stack.back().child_ns += dur;
    stack.push_back({k, 0});
  }
  flush(0);

  std::vector<PhaseStat> stats;
  // Linear scan with a name->index map kept simple: phase counts are small
  // (tens of distinct names).
  auto find = [&stats](const std::string& name) -> PhaseStat& {
    for (auto& st : stats)
      if (st.name == name) return st;
    stats.push_back(PhaseStat{name, 0, 0.0, 0.0, 0.0, 0.0});
    return stats.back();
  };
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const RawSpan& s = spans[k];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const double self =
        static_cast<double>(s.end_ns - s.start_ns - child_ns[k]) * 1e-9;
    PhaseStat& st = find(s.name);
    ++st.count;
    st.total_seconds += dur;
    st.self_seconds += self;
    st.max_seconds = std::max(st.max_seconds, dur);
  }
  for (auto& st : stats)
    st.mean_seconds = st.total_seconds / static_cast<double>(st.count);
  std::sort(stats.begin(), stats.end(),
            [](const PhaseStat& a, const PhaseStat& b) {
              return a.self_seconds > b.self_seconds;
            });
  return stats;
}

double ProfileWallSeconds(const std::vector<RawSpan>& spans) {
  if (spans.empty()) return 0.0;
  std::uint64_t lo = spans.front().start_ns, hi = spans.front().end_ns;
  for (const auto& s : spans) {
    lo = std::min(lo, s.start_ns);
    hi = std::max(hi, s.end_ns);
  }
  return static_cast<double>(hi - lo) * 1e-9;
}

void PrintProfileSummary(std::ostream& os, const std::vector<PhaseStat>& stats,
                         double wall_seconds) {
  os << "per-phase profile (wall " << std::setprecision(6) << wall_seconds
     << "s):\n";
  os << "  " << std::left << std::setw(28) << "phase" << std::right
     << std::setw(10) << "count" << std::setw(12) << "total_s" << std::setw(12)
     << "self_s" << std::setw(12) << "mean_s" << std::setw(12) << "max_s"
     << std::setw(8) << "%wall" << '\n';
  double self_total = 0.0;
  for (const auto& st : stats) {
    const double pct =
        wall_seconds > 0.0 ? 100.0 * st.self_seconds / wall_seconds : 0.0;
    self_total += st.self_seconds;
    os << "  " << std::left << std::setw(28) << st.name << std::right
       << std::setw(10) << st.count << std::setw(12) << std::setprecision(4)
       << st.total_seconds << std::setw(12) << st.self_seconds << std::setw(12)
       << st.mean_seconds << std::setw(12) << st.max_seconds << std::setw(7)
       << std::setprecision(1) << std::fixed << pct << "%" << '\n';
    os.unsetf(std::ios::fixed);
  }
  if (wall_seconds > 0.0) {
    // Self times across threads can legitimately sum past 100% of wall
    // (parallel phases overlap); the single-thread share is what the
    // Section 4.2 accounting criterion reads.
    os << "  accounted self time: " << std::setprecision(4) << self_total
       << "s across all threads\n";
  }
}

// ------------------------------------------------------------------ export

bool WriteChromeTrace(const std::string& path,
                      const std::vector<RawSpan>& spans,
                      const std::string& process_name) {
  std::ofstream out(path);
  if (!out.good()) return false;

  SEA_FAILPOINT_SITE("sea.obs.profile_write")
  if (fail::Triggered("sea.obs.profile_write")) out.setstate(std::ios::badbit);

  std::uint64_t origin = 0;
  std::uint32_t max_thread = 0;
  for (const auto& s : spans) {
    origin = (origin == 0) ? s.start_ns : std::min(origin, s.start_ns);
    max_thread = std::max(max_thread, s.thread);
  }

  // One event object per line: the array is still valid Chrome trace JSON
  // (Perfetto's importer takes it verbatim) and stays line-parsable for
  // ReadChromeTrace's flat reader.
  out << "[\n";
  out << JsonObj()
             .Field("name", "process_name")
             .Field("ph", "M")
             .Field("pid", 1)
             .Field("tid", 0)
             .Raw("args", JsonObj().Field("name", process_name).Str())
             .Str();
  for (std::uint32_t t = 0; t <= max_thread && !spans.empty(); ++t) {
    out << ",\n"
        << JsonObj()
               .Field("name", "thread_name")
               .Field("ph", "M")
               .Field("pid", 1)
               .Field("tid", static_cast<std::uint64_t>(t))
               .Raw("args",
                    JsonObj()
                        .Field("name", t == 0 ? std::string("solve")
                                              : "worker-" + std::to_string(t))
                        .Str())
               .Str();
  }
  for (const auto& s : spans) {
    const double ts_us = static_cast<double>(s.start_ns - origin) * 1e-3;
    const double dur_us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    out << ",\n"
        << JsonObj()
               .Field("name", s.name)
               .Field("cat", "sea")
               .Field("ph", "X")
               .Field("pid", 1)
               .Field("tid", static_cast<std::uint64_t>(s.thread))
               .Field("ts", ts_us)
               .Field("dur", dur_us)
               .Str();
    if (!out.good()) return false;  // disk full / pipe closed: degrade
  }
  out << "\n]\n";
  out.flush();
  return out.good();
}

std::vector<RawSpan> ReadChromeTrace(const std::string& path) {
  std::ifstream in(path);
  SEA_CHECK_MSG(in.good(), "cannot open profile trace: " + path);
  std::vector<RawSpan> spans;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip whitespace and the array scaffolding ([ , ]).
    std::size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    std::size_t e = line.find_last_not_of(" \t\r");
    std::string body = line.substr(b, e - b + 1);
    if (!body.empty() && body.back() == ',') body.pop_back();
    if (body.empty() || body == "[" || body == "]") continue;
    if (body.find("\"ph\":\"M\"") != std::string::npos) continue;  // metadata
    TraceEvent ev;
    try {
      ev = ParseTraceLine(body);
    } catch (const InvalidArgument& err) {
      throw InvalidArgument("profile trace " + path + " line " +
                            std::to_string(line_no) + ": " + err.what());
    }
    if (ev.strings.count("ph") && ev.strings.at("ph") != "X")
      continue;  // future event kinds: skip, schema is append-only
    RawSpan s;
    s.name = ev.strings.count("name") ? ev.strings.at("name") : "?";
    s.thread = static_cast<std::uint32_t>(ev.Number("tid"));
    s.start_ns = static_cast<std::uint64_t>(ev.Number("ts") * 1e3);
    s.end_ns =
        s.start_ns + static_cast<std::uint64_t>(ev.Number("dur") * 1e3);
    spans.push_back(std::move(s));
  }
  return spans;
}

}  // namespace sea::obs
