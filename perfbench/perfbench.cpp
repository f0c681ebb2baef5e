// perfbench — the timed core of the repository benchmark
// (perfbench/README.md). perfbench/run.py builds it, starts the sea_serve
// daemon for serve_mix, and turns this program's output into the result
// line.
//
//   perfbench batch --workload spe_elastic|io_update --seed N --seconds S
//                   --trace 0|1
//   perfbench serve --seed N --seconds S --trace 0
//   perfbench serve --port P --seed N --seconds S --trace 1
//
// Prints one JSON object: {"attempted":..,"failed":..,"metrics":{...}}.
// Every operation is verified; a failed one is counted, never fatal.
// Untraced runs time the operations and nothing else. Traced runs spend
// the first half of --seconds exactly like an untraced run and the second
// half recording each operation's layer split, so their ratio is the
// tracing overhead.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/diagonal_sea.hpp"
#include "net/http_client.hpp"
#include "obs/bench_reader.hpp"
#include "obs/metrics.hpp"
#include "obs/solve_log.hpp"
#include "parallel/thread_pool.hpp"
#include "problems/feasibility.hpp"
#include "serve/admission.hpp"
#include "serve/solve_service.hpp"
#include "serve/warm_cache.hpp"
#include "sparse/sparse_sea.hpp"
#include "stats.hpp"
#include "support/cancel.hpp"
#include "support/rusage.hpp"
#include "workloads.hpp"

namespace {

using namespace sea;
using perfbench::LayerSplit;
using perfbench::LayerTotals;
using perfbench::Quantile;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: perfbench batch --workload spe_elastic|io_update "
               "--seed N --seconds S --trace 0|1\n"
               "       perfbench serve [--port P] --seed N --seconds S "
               "--trace 0|1  (--port with --trace 1)\n",
               why.c_str());
  std::exit(2);
}

// Setup is repeated this many times per run and reported as the median.
// The repetitions after the first are spread evenly over the untraced
// timed phase (their time excluded from it), so they sample many of the
// host's speed phases, and the first, cold set-up is one sample of many.
constexpr std::size_t kSetupReps = 25;

// Hands the heap's free pages back to the system before a repeated set-up,
// so that it faults its memory in as the first, cold set-up did. Without
// this a repetition reuses whatever pages earlier work left resident, and
// whether it does depends on the seed and on timing: one spe_elastic
// set-up then reads either about 6 ms or 12 ms.
void ReleaseFreeHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

// Verification tolerances. spe_elastic: max violation of the SPE
// conditions in price units; prices are O(100), converged solves stay
// below 3, and a solve stopped at half its iterations is above 18.
// io_update: max relative row/column residual; converged solves stay
// below 1e-7.
constexpr double kSpeTolerance = 5.0;
constexpr double kIoTolerance = 1e-6;

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;

  void Set(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void Print() const {
    std::printf("{\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
                ",\"metrics\":{",
                attempted, failed);
    for (std::size_t k = 0; k < metrics.size(); ++k)
      std::printf("%s\"%s\":%.17g", k ? "," : "", metrics[k].first.c_str(),
                  metrics[k].second);
    std::printf("}}\n");
  }
};

// One timed phase: operations run back to back until the deadline.
struct Phase {
  std::uint64_t attempted = 0, failed = 0;
  double wall = 0.0;      // phase wall time minus `excluded`
  double excluded = 0.0;  // verification, setup repetitions, comparisons
  std::vector<double> latency;  // seconds, verified operations only

  void Append(const Phase& other) {
    attempted += other.attempted;
    failed += other.failed;
    wall += other.wall;
    excluded += other.excluded;
    latency.insert(latency.end(), other.latency.begin(), other.latency.end());
  }

  double OpsPerSecond() const {
    return wall > 0.0 ? static_cast<double>(attempted - failed) / wall : 0.0;
  }
};

// Layer splits must re-sum to the operation they split.
bool SplitAddsUp(const LayerSplit& split) {
  return std::abs(split.Sum() - split.total()) <=
         1e-9 * std::max(1.0, split.total());
}

// What a traced batch phase accumulates over its operations.
struct TraceTotals {
  LayerTotals layers;
  double solves = 0.0, iterations = 0.0, markets = 0.0, comparisons = 0.0,
         order_reuses = 0.0;
  double construct = 0.0;
  double dense_solve = 0.0, dense_solves = 0.0;
  double sparse_solve = 0.0, sparse_solves = 0.0;
  double pooled = 0.0, serial = 0.0;  // spe_elastic speedup pairs
  std::uint64_t split_mismatches = 0;

  void Add(const LayerSplit& op, const SeaResult& r) {
    if (!SplitAddsUp(op)) ++split_mismatches;
    layers.Add(op);
    solves += 1.0;
    iterations += static_cast<double>(r.iterations);
    markets += static_cast<double>(r.kernel_markets);
    comparisons += static_cast<double>(r.ops.comparisons);
    order_reuses += static_cast<double>(r.order_reuses);
  }
};

// Splits a solve's span into the SeaResult phases plus the remainder.
void SplitSolve(LayerSplit& op, const SeaResult& r, double solve_seconds) {
  LayerSplit solve(solve_seconds);
  solve.Add("core.row_sweep", r.row_phase_seconds);
  solve.Add("core.col_sweep", r.col_phase_seconds);
  solve.Add("core.check", r.check_phase_seconds);
  solve.Finish("core.other");
  for (const auto& [name, seconds] : solve.parts()) op.Add(name, seconds);
}

// Everything the batch workloads need that the timed loop must not pay for.
struct BatchInputs {
  std::vector<perfbench::SpeInstance> spe;
  std::vector<std::unique_ptr<DiagonalSea>> spe_solvers;
  std::unique_ptr<ThreadPool> pool;
  std::vector<perfbench::IoInstance> io;
  double generate_seconds = 0.0;
};

constexpr std::size_t kSpeInstances = 16;

SeaOptions SpeOptions(ThreadPool* pool) {
  SeaOptions o;
  o.epsilon = 0.01;
  o.criterion = StopCriterion::kXChange;
  o.check_every = 2;
  o.pool = pool;
  return o;
}

SeaOptions IoOptions() {
  SeaOptions o;
  o.epsilon = 0.01;
  o.criterion = StopCriterion::kXChange;
  return o;
}

BatchInputs SetUp(bool spe, std::uint64_t seed) {
  BatchInputs in;
  const auto t0 = Clock::now();
  if (spe) {
    in.spe = perfbench::MakeSpeInstances(seed, kSpeInstances);
    in.generate_seconds = Since(t0);
    for (const auto& inst : in.spe)
      in.spe_solvers.push_back(std::make_unique<DiagonalSea>(inst.problem));
    in.pool = std::make_unique<ThreadPool>(2);
  } else {
    in.io = perfbench::MakeIoInstances(seed);
    in.generate_seconds = Since(t0);
  }
  return in;
}

class BatchRun {
 public:
  BatchRun(bool spe, std::uint64_t seed) : spe_(spe), seed_(seed) {}

  // The set-up whose inputs the timed phases use.
  void SetUpFirst() {
    const auto t0 = Clock::now();
    in_ = SetUp(spe_, seed_);
    setup_seconds_.push_back(Since(t0));
    generate_seconds_.push_back(in_.generate_seconds);
  }

  // Runs operations until `seconds` have passed, repeating setup
  // (discarded) at evenly spaced points when `setup_reps` > 0.
  Phase Run(double seconds, std::size_t setup_reps, bool traced) {
    Phase ph;
    const auto start = Clock::now();
    std::size_t reps_done = 0;
    for (;;) {
      const double elapsed = Since(start) - ph.excluded;
      if (elapsed >= seconds) break;
      if (reps_done < setup_reps &&
          elapsed >= seconds * static_cast<double>(reps_done + 1) /
                         static_cast<double>(setup_reps + 1)) {
        const auto t0 = Clock::now();
        ReleaseFreeHeap();
        {
          const auto t1 = Clock::now();
          const BatchInputs again = SetUp(spe_, seed_);
          setup_seconds_.push_back(Since(t1));
          generate_seconds_.push_back(again.generate_seconds);
        }
        ++reps_done;
        ph.excluded += Since(t0);
        continue;
      }
      if (spe_)
        SpeOp(ph, traced);
      else
        IoOp(ph, traced);
    }
    ph.wall = Since(start) - ph.excluded;
    return ph;
  }

  double SetupMedian() const { return Quantile(setup_seconds_, 0.5); }
  double GenerateMedian() const { return Quantile(generate_seconds_, 0.5); }
  const TraceTotals& trace() const { return trace_; }

 private:
  void Record(Phase& ph, bool ok, double op_seconds) {
    ++ph.attempted;
    if (ok)
      ph.latency.push_back(op_seconds);
    else
      ++ph.failed;
  }

  void SpeOp(Phase& ph, bool traced) {
    const std::size_t k = next_++ % in_.spe.size();
    const auto t0 = Clock::now();
    const auto run = in_.spe_solvers[k]->Solve(SpeOptions(in_.pool.get()));
    const double op_seconds = Since(t0);

    const auto t1 = Clock::now();
    const bool ok =
        run.result.converged() &&
        spe::CheckEquilibrium(in_.spe[k].spe, run.solution.x).Max() <=
            kSpeTolerance;
    Record(ph, ok, op_seconds);
    if (traced) {
      LayerSplit op(op_seconds);
      SplitSolve(op, run.result, op_seconds);
      trace_.Add(op, run.result);
      trace_.pooled += op_seconds;
      // The same instance on one thread: the 2-worker speedup.
      const auto t2 = Clock::now();
      in_.spe_solvers[k]->Solve(SpeOptions(nullptr));
      trace_.serial += Since(t2);
    }
    ph.excluded += Since(t1);
  }

  void IoOp(Phase& ph, bool traced) {
    const auto& inst = in_.io[next_++ % in_.io.size()];
    const auto t0 = Clock::now();
    bool ok = false;
    SeaResult result;
    double construct = 0.0, solve = 0.0;
    if (inst.sparse) {
      SparseSea solver(inst.pattern);
      const auto t1 = Clock::now();
      construct = std::chrono::duration<double>(t1 - t0).count();
      auto run = solver.Solve(IoOptions());
      solve = Since(t1);
      ok = run.result.converged() &&
           CheckFeasibility(inst.pattern, run.solution).MaxRel() <=
               kIoTolerance;
      result = std::move(run.result);
    } else {
      DiagonalSea solver(inst.dense);
      const auto t1 = Clock::now();
      construct = std::chrono::duration<double>(t1 - t0).count();
      auto run = solver.Solve(IoOptions());
      solve = Since(t1);
      ok = run.result.converged() &&
           CheckFeasibility(inst.dense, run.solution).MaxRel() <=
               kIoTolerance;
      result = std::move(run.result);
    }
    const double op_seconds = construct + solve;
    const double verify = Since(t0) - op_seconds;
    Record(ph, ok, op_seconds);
    if (traced) {
      LayerSplit op(op_seconds);
      op.Add("core.construct", construct);
      SplitSolve(op, result, solve);
      trace_.Add(op, result);
      trace_.construct += construct;
      if (inst.sparse) {
        trace_.sparse_solve += solve;
        trace_.sparse_solves += 1.0;
      } else {
        trace_.dense_solve += solve;
        trace_.dense_solves += 1.0;
      }
    }
    ph.excluded += verify;
  }

  bool spe_;
  std::uint64_t seed_;
  BatchInputs in_;
  std::size_t next_ = 0;
  std::vector<double> setup_seconds_, generate_seconds_;
  TraceTotals trace_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Latency metrics of a phase: p50, the tail by the percentile rule (capped
// at `cap_percent`), and the named percentiles that qualify.
void SetLatency(Report& rep, const Phase& ph, int cap_percent) {
  const std::size_t n = ph.latency.size();
  rep.Set("samples", static_cast<double>(n));
  rep.Set("p50_ms", Quantile(ph.latency, 0.5) * 1e3);
  const int tail = perfbench::TailPercent(n, cap_percent);
  rep.Set("tail_percent", tail);
  rep.Set("tail_ms", Quantile(ph.latency, tail / 100.0) * 1e3);
  for (int p : {90, 99})
    if (p <= cap_percent && perfbench::HasTenBeyond(n, p))
      rep.Set("p" + std::to_string(p) + "_ms",
              Quantile(ph.latency, p / 100.0) * 1e3);
}

int RunBatch(const std::string& workload, std::uint64_t seed, double seconds,
             bool trace) {
  const bool spe = workload == "spe_elastic";
  if (!spe && workload != "io_update") Usage("unknown workload " + workload);
  BatchRun run(spe, seed);
  run.SetUpFirst();

  Report rep;
  const Phase plain =
      run.Run(trace ? seconds / 2 : seconds, kSetupReps - 1,
              /*traced=*/false);
  rep.attempted = plain.attempted;
  rep.failed = plain.failed;
  if (!trace) {
    rep.Set("ops_per_s", plain.OpsPerSecond());
    SetLatency(rep, plain, spe ? 50 : 90);
    rep.Set("setup_s", run.SetupMedian());
    rep.Set("peak_rss_mb",
            static_cast<double>(support::PeakRssBytes()) / (1024.0 * 1024.0));
    rep.Print();
    return 0;
  }

  const Phase traced = run.Run(seconds / 2, 0, /*traced=*/true);
  const TraceTotals& t = run.trace();
  rep.attempted += traced.attempted + t.split_mismatches;
  rep.failed += traced.failed + t.split_mismatches;
  const LayerTotals& L = t.layers;
  const double solve_total = L.Get("core.row_sweep") +
                             L.Get("core.col_sweep") + L.Get("core.check") +
                             L.Get("core.other");
  rep.Set(spe ? "spe.generate_s" : "datasets.generate_s",
          run.GenerateMedian());
  rep.Set("core.construct_ms", Ratio(t.construct, t.solves) * 1e3);
  rep.Set("core.iterations", Ratio(t.iterations, t.solves));
  rep.Set("core.row_sweep_s", Ratio(L.Get("core.row_sweep"), t.solves));
  rep.Set("core.col_sweep_s", Ratio(L.Get("core.col_sweep"), t.solves));
  rep.Set("core.check_s", Ratio(L.Get("core.check"), t.solves));
  rep.Set("core.other_s", Ratio(L.Get("core.other"), t.solves));
  rep.Set("core.check_share", Ratio(L.Get("core.check"), solve_total));
  rep.Set("core.dense_solve_ms", Ratio(t.dense_solve, t.dense_solves) * 1e3);
  rep.Set("sparse.solve_ms", Ratio(t.sparse_solve, t.sparse_solves) * 1e3);
  rep.Set("equilibration.markets", Ratio(t.markets, t.solves));
  rep.Set("equilibration.cmp_per_market", Ratio(t.comparisons, t.markets));
  rep.Set("equilibration.reuse_frac", Ratio(t.order_reuses, t.markets));
  rep.Set("parallel.speedup_2t", Ratio(t.serial, t.pooled));
  rep.Set("bench.trace_overhead",
          Ratio(traced.OpsPerSecond(), plain.OpsPerSecond()));
  rep.Print();
  return 0;
}

// ---- serve_mix ------------------------------------------------------------

// One reply, answered in process or over HTTP. `seconds` is the operation:
// the daemon's request path for an in-process reply, the round trip for an
// HTTP one.
struct Reply {
  bool ok = false;
  double seconds = 0.0;
  std::string tier;
  double queue = 0.0, decode = 0.0, handle = 0.0, render = 0.0;
  double iterations = 0.0;
  std::uint64_t problem_fp = 0, x_fp = 0;
};

// An exact replay must return the primal of a solve that populated the
// cache for the same problem. By the script's design only the base frames
// stay cached until they come round again, so each client logs the primal
// fingerprints of the bases' cold and warm solves and of their exact
// replies, without a lock; an exact reply on any other frame is a failure.
// ReplayMismatches compares the logs after the clients joined.
struct ReplayLog {
  static constexpr std::size_t kBases = perfbench::ServeScript::kBases;
  // Per base: distinct fingerprints of its solves, and (fingerprint,
  // replies) per distinct fingerprint of its exact replies.
  std::array<std::vector<std::uint64_t>, kBases> solved;
  std::array<std::vector<std::pair<std::uint64_t, std::uint64_t>>, kBases>
      replayed;
  std::uint64_t other_exact = 0;

  void Add(std::size_t frame, const Reply& r) {
    if (!r.ok) return;
    const bool exact = r.tier == "exact";
    if (frame >= kBases) {
      if (exact) ++other_exact;
      return;
    }
    if (!exact) {
      auto& fps = solved[frame];
      if (std::find(fps.begin(), fps.end(), r.x_fp) == fps.end())
        fps.push_back(r.x_fp);
      return;
    }
    for (auto& [fp, n] : replayed[frame])
      if (fp == r.x_fp) {
        ++n;
        return;
      }
    replayed[frame].emplace_back(r.x_fp, 1);
  }
};

// Exact replies that no logged solve of their frame explains.
std::uint64_t ReplayMismatches(const std::vector<ReplayLog>& logs) {
  std::uint64_t bad = 0;
  for (const ReplayLog& log : logs) {
    bad += log.other_exact;
    for (std::size_t b = 0; b < ReplayLog::kBases; ++b)
      for (const auto& [fp, n] : log.replayed[b]) {
        bool known = false;
        for (const ReplayLog& other : logs)
          known = known || std::find(other.solved[b].begin(),
                                     other.solved[b].end(),
                                     fp) != other.solved[b].end();
        if (!known) bad += n;
      }
  }
  return bad;
}

serve::ServiceLimits WithCancel(CancelToken* cancel) {
  serve::ServiceLimits limits;
  limits.cancel = cancel;
  return limits;
}

// The daemon's side of one POST /solve through the same public calls:
// admission, decode, SolveService::Handle, render. The service is wired
// as tools/sea_serve.cpp wires it by default — a metrics registry, a solve
// log with no path, limits with an abort token — so Handle does the same
// per-request bookkeeping as in the daemon.
struct InProcessServer {
  obs::MetricsRegistry metrics;
  obs::SolveLogWriter solve_log{""};
  CancelToken abort;
  serve::WarmStartCache cache{1024};
  serve::AdmissionQueue admission{2, 64};
  serve::SolveService service{&cache, &metrics, &solve_log,
                              WithCancel(&abort)};
};

Reply AnswerInProcess(InProcessServer& server, const std::string& frame,
                      std::uint64_t fingerprint, double epsilon) {
  Reply r;
  const auto t0 = Clock::now();
  if (server.admission.Acquire() !=
      serve::AdmissionQueue::Outcome::kAdmitted) {
    r.seconds = Since(t0);
    return r;
  }
  const auto t1 = Clock::now();
  const auto decoded = serve::DecodeRequest(frame);
  const auto t2 = Clock::now();
  if (!decoded.ok()) {
    server.admission.Release();
    r.seconds = Since(t0);
    return r;
  }
  const auto out = server.service.Handle(
      decoded.request, std::chrono::duration<double>(t1 - t0).count());
  const auto t3 = Clock::now();
  const std::string body = serve::SolveService::RenderReplyJson(
      out, decoded.request.want_multipliers);
  server.admission.Release();
  const auto t4 = Clock::now();
  const auto secs = [](auto a, auto b) {
    return std::chrono::duration<double>(b - a).count();
  };
  r.queue = secs(t0, t1);
  r.decode = secs(t1, t2);
  r.handle = secs(t2, t3);
  r.render = secs(t3, t4);
  r.seconds = secs(t0, t4);
  r.tier = out.cache_tier;
  r.iterations = static_cast<double>(out.result.iterations);
  r.problem_fp = out.problem_fingerprint;
  r.x_fp = out.x_fingerprint;
  r.ok = out.ok && out.status == SolveStatus::kConverged &&
         out.result.final_residual <= epsilon && !body.empty() &&
         out.problem_fingerprint == fingerprint;
  return r;
}

// Parses and checks one HTTP reply body; false when any field is off.
bool ParseReply(const std::string& body, double epsilon, Reply& r) {
  bool ok_field = false, converged = false;
  double residual = 1e300;
  const auto num = [](const std::string& v) {
    return std::strtod(v.c_str(), nullptr);
  };
  try {
    for (const auto& [key, value] : obs::JsonObjectFields(body)) {
      const std::string text =
          value.size() >= 2 && value.front() == '"'
              ? value.substr(1, value.size() - 2)
              : value;
      if (key == "ok") ok_field = text == "true";
      if (key == "status") converged = text == "converged";
      if (key == "cache_tier") r.tier = text;
      if (key == "iterations") r.iterations = num(text);
      if (key == "final_residual") residual = num(text);
      if (key == "wall_seconds") r.handle = num(text);
      if (key == "queue_seconds") r.queue = num(text);
      if (key == "problem_fingerprint")
        r.problem_fp = std::strtoull(text.c_str(), nullptr, 16);
      if (key == "x_fingerprint")
        r.x_fp = std::strtoull(text.c_str(), nullptr, 16);
    }
  } catch (const std::exception&) {
    return false;
  }
  return ok_field && converged && residual <= epsilon;
}

// In-process phases keep the latency (and, traced, the layers) of every
// 7th reply, so memory stays small at the rates this path reaches. 7 is
// coprime with the 100-request mix, so every 700 requests the sample takes
// each position of the mix once and keeps the 40/40/20 proportions, and
// its repeats and perturbations reach every base (a stride of 8 would
// sample only 2 of the 16).
constexpr std::size_t kSampleStride = 7;

constexpr std::size_t kClients = 2;

// A closed loop of kClients clients over the script until `seconds` have
// passed, continuing from request `*next`. `port` 0 answers in process,
// otherwise over HTTP. Client c logs its replies in `(*logs)[c]`. Traced
// phases keep the sampled replies in `kept`.
Phase ServePhase(const perfbench::ServeScript& script, InProcessServer* local,
                 std::uint16_t port, double seconds,
                 std::atomic<std::size_t>* next, std::vector<ReplayLog>* logs,
                 std::vector<Reply>* kept) {
  struct Client {
    Phase ph;
    std::vector<Reply> kept;
  };
  std::vector<Client> clients(kClients);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto loop = [&](Client* c, ReplayLog* log) {
    while (Clock::now() < deadline) {
      const std::size_t i = next->fetch_add(1);
      const std::size_t frame = perfbench::ServeScript::FrameOf(i);
      Reply r;
      if (port == 0) {
        r = AnswerInProcess(*local, script.frames[frame],
                            script.fingerprints[frame], script.epsilon);
      } else {
        const auto t0 = Clock::now();
        const auto fetched =
            net::HttpPost("127.0.0.1", port, "/solve", script.frames[frame]);
        r.seconds = Since(t0);
        r.ok = fetched.ok && fetched.status == 200 &&
               ParseReply(fetched.body, script.epsilon, r) &&
               r.problem_fp == script.fingerprints[frame];
      }
      ++c->ph.attempted;
      if (!r.ok) ++c->ph.failed;
      log->Add(frame, r);
      if (port == 0 && i % kSampleStride != 0) continue;
      if (r.ok) c->ph.latency.push_back(r.seconds);
      if (kept != nullptr) c->kept.push_back(std::move(r));
    }
  };
  std::vector<std::thread> fleet;
  for (std::size_t k = 0; k < kClients; ++k)
    fleet.emplace_back(loop, &clients[k], &(*logs)[k]);
  for (auto& t : fleet) t.join();

  Phase ph;
  ph.wall = Since(start);
  for (auto& c : clients) {
    ph.Append(c.ph);
    if (kept != nullptr)
      for (auto& r : c.kept) kept->push_back(std::move(r));
  }
  return ph;
}

int RunServe(std::uint16_t port, std::uint64_t seed, double seconds,
             bool trace) {
  std::vector<double> setup_seconds, encode_seconds;
  const auto set_up = [&] {
    ReleaseFreeHeap();
    const auto t0 = Clock::now();
    auto script = perfbench::MakeServeScript(seed);
    encode_seconds.push_back(Since(t0));
    auto server = std::make_unique<InProcessServer>();
    setup_seconds.push_back(Since(t0));
    return std::make_pair(std::move(script), std::move(server));
  };
  const auto [script, local] = set_up();

  // The plain phase runs in kSetupReps segments with a discarded set-up
  // between consecutive ones, outside the phase's time, so setup_s samples
  // the whole run as in the batch workloads.
  std::atomic<std::size_t> next{0};
  std::vector<ReplayLog> logs(kClients);
  Phase plain;
  const double plain_seconds = trace ? seconds / 2 : seconds;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    if (k > 0) set_up();
    plain.Append(ServePhase(script, local.get(), 0,
                            plain_seconds / static_cast<double>(kSetupReps),
                            &next, &logs, nullptr));
  }
  Report rep;
  if (!trace) {
    const std::uint64_t mismatches = ReplayMismatches(logs);
    rep.attempted = plain.attempted;
    rep.failed = plain.failed + mismatches;
    rep.Set("ops_per_s", plain.OpsPerSecond());
    SetLatency(rep, plain, 99);
    rep.Set("setup_s", Quantile(setup_seconds, 0.5));
    rep.Set("peak_rss_mb",
            static_cast<double>(support::PeakRssBytes()) / (1024.0 * 1024.0));
    rep.Print();
    return 0;
  }

  // Traced: the same in-process loop keeping every reply's layers, then
  // the daemon over HTTP for the transport layer.
  std::vector<Reply> local_replies, http_replies;
  const Phase traced = ServePhase(script, local.get(), 0, seconds / 2, &next,
                                  &logs, &local_replies);
  std::vector<ReplayLog> http_logs(kClients);
  std::atomic<std::size_t> http_next{0};
  const Phase http = ServePhase(script, nullptr, port, seconds / 2,
                                &http_next, &http_logs, &http_replies);
  const std::uint64_t mismatches =
      ReplayMismatches(logs) + ReplayMismatches(http_logs);

  std::vector<double> decode, render, queue;
  std::map<std::string, std::vector<double>> handle, iterations;
  std::uint64_t split_mismatches = 0;
  for (const Reply& r : local_replies) {
    if (!r.ok) continue;
    LayerSplit split(r.seconds);
    split.Add("serve.queue", r.queue);
    split.Add("serve.decode", r.decode);
    split.Add("serve.handle", r.handle);
    split.Add("serve.render", r.render);
    split.Finish("serve.other");
    if (!SplitAddsUp(split)) ++split_mismatches;
    decode.push_back(r.decode);
    render.push_back(r.render);
    queue.push_back(r.queue);
    handle[r.tier].push_back(r.handle);
    iterations[r.tier].push_back(r.iterations);
  }
  const double decode_med = Quantile(decode, 0.5);
  const double render_med = Quantile(render, 0.5);
  std::vector<double> transport;
  for (const Reply& r : http_replies) {
    if (!r.ok) continue;
    LayerSplit split(r.seconds);
    split.Add("serve.queue", r.queue);
    split.Add("serve.handle", r.handle);
    split.Add("serve.decode", decode_med);
    split.Add("serve.render", render_med);
    split.Finish("net.transport");
    if (!SplitAddsUp(split)) ++split_mismatches;
    transport.push_back(split.parts().back().second);
  }

  rep.attempted = plain.attempted + traced.attempted + http.attempted +
                  split_mismatches;
  rep.failed = plain.failed + traced.failed + http.failed + mismatches +
               split_mismatches;
  const auto median_us = [&handle](const char* tier) {
    return Quantile(handle[tier], 0.5) * 1e6;
  };
  const auto mean = [&iterations](const char* tier) {
    const auto& v = iterations[tier];
    double sum = 0.0;
    for (double x : v) sum += x;
    return Ratio(sum, static_cast<double>(v.size()));
  };
  const serve::WarmCacheStats stats = local->cache.Stats();
  rep.Set("serve.encode_s", Quantile(encode_seconds, 0.5));
  rep.Set("serve.decode_us", decode_med * 1e6);
  rep.Set("serve.render_us", render_med * 1e6);
  rep.Set("serve.exact_us", median_us("exact"));
  rep.Set("serve.warm_us", median_us("warm"));
  rep.Set("serve.cold_us", median_us("cold"));
  rep.Set("serve.queue_us_p99", Quantile(queue, 0.99) * 1e6);
  rep.Set("serve.hit_rate",
          Ratio(static_cast<double>(stats.hits_exact + stats.hits_nearby),
                static_cast<double>(stats.hits_exact + stats.hits_nearby +
                                    stats.misses)));
  rep.Set("serve.evictions", static_cast<double>(stats.evictions));
  rep.Set("serve.warm_iters", mean("warm"));
  rep.Set("serve.cold_iters", mean("cold"));
  rep.Set("net.transport_us_p50", Quantile(transport, 0.5) * 1e6);
  rep.Set("net.transport_us_p99", Quantile(transport, 0.99) * 1e6);
  rep.Set("net.http_ops_per_s", http.OpsPerSecond());
  rep.Set("bench.trace_overhead",
          Ratio(traced.OpsPerSecond(), plain.OpsPerSecond()));
  rep.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage("missing mode");
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc)
      Usage("bad argument " + flag);
    args[flag.substr(2)] = argv[++i];
  }
  const auto num = [&args](const char* key) {
    const auto it = args.find(key);
    if (it == args.end()) Usage(std::string("missing --") + key);
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0' || !(v >= 0.0))
      Usage(std::string("malformed --") + key);
    return v;
  };
  const auto seed_arg = args.find("seed");
  if (seed_arg == args.end()) Usage("missing --seed");
  char* seed_end = nullptr;
  const std::uint64_t seed =
      std::strtoull(seed_arg->second.c_str(), &seed_end, 10);
  if (seed_end == seed_arg->second.c_str() || *seed_end != '\0')
    Usage("malformed --seed");
  const double seconds = num("seconds");
  const bool trace = num("trace") != 0.0;
  if (!(seconds > 0.0)) Usage("--seconds must be positive");
  if (mode == "batch") {
    if (!args.count("workload")) Usage("missing --workload");
    return RunBatch(args["workload"], seed, seconds, trace);
  }
  if (mode == "serve") {
    const double port = trace ? num("port") : 0.0;
    if (trace && (port < 1 || port > 65535)) Usage("--port out of range");
    return RunServe(static_cast<std::uint16_t>(port), seed, seconds, trace);
  }
  Usage("unknown mode " + mode);
}
