// Phase-level span profiler (docs/OBSERVABILITY.md, "Profiling").
//
// The paper's Section 4 cost model attributes SEA's speed to a tiny serial
// fraction: almost all wall-clock sits in the embarrassingly-parallel row and
// column equilibrations. This profiler is the instrument that measures that
// claim on real hardware: every named solver phase (equilibration sweeps,
// convergence checks, projection steps, factorizations, thread-pool chunks
// and queue waits) is wrapped in an RAII span, and a run can be exported as
//   * a Chrome trace-event JSON file (open in Perfetto / chrome://tracing;
//     one track per recording thread), and
//   * an aggregated per-phase table (count, total/self/mean/max seconds,
//     % of wall) via `sea_solve --profile-summary` or any bench's stdout.
//
// Pay-for-use, same contract as MetricsRegistry: the profiler is attached
// process-wide; with none attached a span site costs one relaxed atomic load
// and a predicted branch — no clock read, no allocation. When attached, a
// span costs two monotonic clock reads plus an append to a thread-private
// buffer (the only lock is taken once per thread to register its buffer).
//
// Threading contract: Attach/Detach and Events()/dropped() must be called
// while no spans are being recorded (between solves / after pool joins).
// Recording itself is safe from any thread. A Profiler must outlive every
// span recorded into it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace sea::obs {

// One completed span, as recorded on the hot path. `name` is an interned
// pointer to a string literal (static storage duration required).
struct ProfEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;  // monotonic clock, absolute
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;  // dense per-profiler track index
};

struct ProfilerOptions {
  // Events beyond this per-thread cap are counted in dropped() instead of
  // recorded, bounding profiler memory on very long runs.
  std::size_t max_events_per_thread = 1u << 20;
};

class Profiler {
 public:
  explicit Profiler(ProfilerOptions opts = {});
  ~Profiler();  // detaches if still attached

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // Makes this profiler the process-wide recording target. At most one
  // profiler may be attached at a time (SEA_CHECK enforced).
  void Attach();
  void Detach();
  static Profiler* Current();

  // Records a completed span with explicit timestamps onto the calling
  // thread's track (used for spans whose start was observed elsewhere, e.g.
  // thread-pool queue waits timed from the region's publish instant).
  void RecordSpan(const char* name, std::uint64_t start_ns,
                  std::uint64_t end_ns);

  // Merged copy of every recorded event (unordered across threads).
  std::vector<ProfEvent> Events() const;
  std::uint64_t dropped() const;
  std::size_t thread_count() const;

  // --- internal (hot path) -------------------------------------------------
  struct ThreadBuffer {
    std::vector<ProfEvent> events;
    std::uint32_t index = 0;
    std::uint64_t dropped = 0;
  };
  // Returns this thread's buffer, registering it on first use.
  ThreadBuffer* BufferForThisThread();

 private:
  ProfilerOptions opts_;
  std::uint64_t generation_ = 0;  // unique per Attach, keys thread caches
  mutable std::mutex mu_;         // guards buffers_ registration and reads
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

namespace prof_internal {
extern std::atomic<Profiler*> g_current;
std::uint64_t NowNs();  // monotonic nanoseconds
}  // namespace prof_internal

// RAII span guard. `name` must be a string literal (or otherwise outlive the
// profiler). With no profiler attached, construction and destruction reduce
// to one atomic load and two branches.
class ProfScope {
 public:
  explicit ProfScope(const char* name)
      : profiler_(prof_internal::g_current.load(std::memory_order_acquire)) {
    if (profiler_) Begin(name);
  }
  ~ProfScope() {
    if (profiler_) End();
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  void Begin(const char* name);
  void End();

  Profiler* profiler_;
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  Profiler::ThreadBuffer* buffer_ = nullptr;
};

// ---------------------------------------------------------------- analysis

// Owned-string span form shared by the in-process profiler and the trace
// file reader (ReadChromeTrace).
struct RawSpan {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;
};

std::vector<RawSpan> ToRawSpans(const std::vector<ProfEvent>& events);

// Aggregated per-phase statistics. Self time is the span's duration minus
// the time spent in spans nested inside it on the same thread — the quantity
// the per-phase table's "% wall" column is computed from (self times across
// one thread partition that thread's covered wall time, so they never double
// count nested phases).
struct PhaseStat {
  std::string name;
  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double self_seconds = 0.0;
  double mean_seconds = 0.0;  // total / count
  double max_seconds = 0.0;   // longest single span
};

// Groups spans by name, attributing nested child time to compute self time.
// Returned stats are sorted by descending self time.
std::vector<PhaseStat> SummarizeSpans(std::vector<RawSpan> spans);

// Profile wall clock: max end - min start across all spans, in seconds.
double ProfileWallSeconds(const std::vector<RawSpan>& spans);

// Renders the per-phase table (count, total, self, mean, max, % of wall).
void PrintProfileSummary(std::ostream& os, const std::vector<PhaseStat>& stats,
                         double wall_seconds);

// ------------------------------------------------------------------ export

// Writes the spans as Chrome trace-event JSON ("X" complete events, one
// track per thread, microsecond timestamps relative to the earliest span),
// loadable in Perfetto / chrome://tracing. Fail-soft like every exporter
// (docs/ROBUSTNESS.md): a write failure — injectable via the
// sea.obs.profile_write failpoint — returns false instead of throwing, and
// must never lose the solve that was profiled. Returns true on success.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<RawSpan>& spans,
                      const std::string& process_name);

// Reads a Chrome trace file written by WriteChromeTrace (one event object
// per line; metadata events are skipped). Throws InvalidArgument on a
// missing file or a malformed event line.
std::vector<RawSpan> ReadChromeTrace(const std::string& path);

}  // namespace sea::obs
