// Serving-plane suite (docs/SERVING.md): the wire protocol codec, the
// two-tier warm-start multiplier cache, the bounded admission queue, the
// solve service's replay/warm/cold dispatch, and the whole daemon loop
// end-to-end over a live HTTP server. Runs under TSan in CI alongside
// test_net — concurrent handlers, the admission queue's waiters, and the
// sharded cache all overlap here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/diagonal_sea.hpp"
#include "net/http_client.hpp"
#include "net/http_server.hpp"
#include "obs/bench_reader.hpp"
#include "obs/metrics.hpp"
#include "obs/solve_log.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "serve/solve_service.hpp"
#include "serve/warm_cache.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

using serve::AdmissionQueue;
using serve::CachedMultipliers;
using serve::DecodedRequest;
using serve::ServeOutcome;
using serve::SolveRequest;
using serve::SolveService;
using serve::WarmHit;
using serve::WarmStartCache;

// Deterministic fixed-mode problem; `totals_scale` != 1 keeps the solve
// non-trivial, and scaling both sides preserves feasibility.
DiagonalProblem FixedProblem(std::size_t m, std::size_t n,
                             std::uint64_t seed, double totals_scale) {
  Rng rng(seed);
  DenseMatrix x0(m, n), gamma(m, n);
  for (double& v : x0.Flat()) v = rng.Uniform(1.0, 10.0);
  for (double& v : gamma.Flat()) v = rng.Uniform(0.5, 2.0);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= totals_scale;
  for (double& v : d0) v *= totals_scale;
  return DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
}

SolveRequest FixedRequest(std::size_t m, std::size_t n, std::uint64_t seed,
                          double totals_scale) {
  SolveRequest req;
  req.problem = FixedProblem(m, n, seed, totals_scale);
  req.epsilon = 1e-8;
  req.criterion = StopCriterion::kResidualAbs;
  return req;
}

// ----------------------------------------------------------- protocol

TEST(ServeProtocol, BinaryFrameRoundTripsEveryField) {
  SolveRequest req = FixedRequest(5, 7, 11, 1.2);
  req.epsilon = 3e-5;
  req.criterion = StopCriterion::kResidualRel;
  req.time_budget_seconds = 2.5;
  req.max_iterations = 777;
  req.want_multipliers = true;

  const DecodedRequest out =
      serve::DecodeRequestFrame(serve::EncodeRequestFrame(req));
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_EQ(out.request.problem.m(), 5u);
  EXPECT_EQ(out.request.problem.n(), 7u);
  EXPECT_EQ(out.request.problem.mode(), TotalsMode::kFixed);
  EXPECT_EQ(out.request.epsilon, 3e-5);
  EXPECT_EQ(out.request.criterion, StopCriterion::kResidualRel);
  EXPECT_EQ(out.request.time_budget_seconds, 2.5);
  EXPECT_EQ(out.request.max_iterations, 777u);
  EXPECT_TRUE(out.request.want_multipliers);
  // Bit-identical payload: equal problem fingerprints.
  EXPECT_EQ(FingerprintProblem(out.request.problem),
            FingerprintProblem(req.problem));
}

TEST(ServeProtocol, BinaryFrameRoundTripsEveryMode) {
  Rng rng(77);
  DenseMatrix x0(3, 4), gamma(3, 4);
  for (double& v : x0.Flat()) v = rng.Uniform(1.0, 5.0);
  for (double& v : gamma.Flat()) v = rng.Uniform(0.5, 2.0);
  const Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  const Vector alpha(3, 1.0), beta(4, 1.0);
  Vector s_lo = s0, s_hi = s0, d_lo = d0, d_hi = d0;
  for (double& v : s_lo) v *= 0.9;
  for (double& v : s_hi) v *= 1.1;
  for (double& v : d_lo) v *= 0.9;
  for (double& v : d_hi) v *= 1.1;

  DenseMatrix sq_x0(4, 4), sq_gamma(4, 4);
  for (double& v : sq_x0.Flat()) v = rng.Uniform(1.0, 5.0);
  for (double& v : sq_gamma.Flat()) v = rng.Uniform(0.5, 2.0);

  const DiagonalProblem probs[] = {
      DiagonalProblem::MakeFixed(x0, gamma, s0, d0),
      DiagonalProblem::MakeElastic(x0, gamma, s0, alpha, d0, beta),
      DiagonalProblem::MakeSam(sq_x0, sq_gamma, sq_x0.RowSums(),
                               Vector(4, 1.0)),
      DiagonalProblem::MakeInterval(x0, gamma, s0, alpha, s_lo, s_hi, d0,
                                    beta, d_lo, d_hi),
  };
  for (const auto& p : probs) {
    SolveRequest req;
    req.problem = p;
    const DecodedRequest out =
        serve::DecodeRequestFrame(serve::EncodeRequestFrame(req));
    ASSERT_TRUE(out.ok()) << ToString(p.mode()) << ": " << out.error;
    EXPECT_EQ(out.request.problem.mode(), p.mode());
    EXPECT_EQ(FingerprintProblem(out.request.problem), FingerprintProblem(p))
        << ToString(p.mode());
  }
}

TEST(ServeProtocol, FrameTrailerIsPinned) {
  // The CRC trailer of a 12x12 request frame (about 2.6 KB, serve_mix's
  // shape), as earlier releases wrote it: frames stay interchangeable
  // across builds only while the checksum and byte stream hold.
  const std::string frame =
      serve::EncodeRequestFrame(FixedRequest(12, 12, 29, 1.1));
  std::uint32_t trailer = 0;
  std::memcpy(&trailer, frame.data() + frame.size() - sizeof(trailer),
              sizeof(trailer));
  EXPECT_EQ(trailer, 0x73c7c5f9u);
}

TEST(ServeProtocol, JsonRoundTripAndDispatch) {
  SolveRequest req = FixedRequest(3, 3, 5, 1.15);
  req.want_multipliers = true;
  const std::string json = serve::EncodeRequestJson(req);
  // DecodeRequest dispatches on the first non-space byte.
  const DecodedRequest out = serve::DecodeRequest("  \n " + json);
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_EQ(out.request.problem.m(), 3u);
  EXPECT_TRUE(out.request.want_multipliers);
  EXPECT_EQ(FingerprintProblem(out.request.problem),
            FingerprintProblem(req.problem));

  const DecodedRequest bin = serve::DecodeRequest(
      serve::EncodeRequestFrame(req));
  ASSERT_TRUE(bin.ok()) << bin.error;
  EXPECT_EQ(FingerprintProblem(bin.request.problem),
            FingerprintProblem(req.problem));
}

TEST(ServeProtocol, RejectsDefectsWithoutThrowing) {
  const std::string clean =
      serve::EncodeRequestFrame(FixedRequest(4, 4, 9, 1.1));

  {  // bad magic
    std::string bytes = clean;
    bytes[0] ^= 0x40;
    EXPECT_FALSE(serve::DecodeRequestFrame(bytes).ok());
  }
  {  // version skew
    std::string bytes = clean;
    bytes[8] = 99;
    const auto out = serve::DecodeRequestFrame(bytes);
    ASSERT_FALSE(out.ok());
    EXPECT_NE(out.error.find("version"), std::string::npos);
  }
  {  // payload corruption -> CRC mismatch
    std::string bytes = clean;
    bytes[bytes.size() / 2] ^= 0x01;
    const auto out = serve::DecodeRequestFrame(bytes);
    ASSERT_FALSE(out.ok());
  }
  {  // truncation at every prefix length never throws
    for (std::size_t len = 0; len < clean.size(); len += 7)
      EXPECT_FALSE(serve::DecodeRequestFrame(clean.substr(0, len)).ok());
  }
  EXPECT_FALSE(serve::DecodeRequest("").ok());
  EXPECT_FALSE(serve::DecodeRequest("{not json").ok());
  EXPECT_FALSE(serve::DecodeRequest("{\"mode\":\"fixed\"}").ok());
}

// ---------------------------------------------------------- warm cache

CachedMultipliers Entry(double tag) {
  CachedMultipliers e;
  e.lambda = {tag, tag};
  e.mu = {tag};
  e.epsilon = 1e-6;
  e.iterations = 3;
  return e;
}

TEST(WarmCache, TwoTierLookupSemantics) {
  WarmStartCache cache(/*capacity=*/8, /*shards=*/2);
  EXPECT_FALSE(cache.Lookup(1, 100).has_value());  // miss on empty

  cache.Insert(/*exact=*/1, /*structure=*/100, Entry(1.0));
  const auto exact = cache.Lookup(1, 100);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->tier, WarmHit::Tier::kExact);
  EXPECT_EQ(exact->entry.lambda[0], 1.0);

  // Same structure, different totals: nearby tier.
  const auto nearby = cache.Lookup(/*exact=*/2, /*structure=*/100);
  ASSERT_TRUE(nearby.has_value());
  EXPECT_EQ(nearby->tier, WarmHit::Tier::kNearby);
  EXPECT_EQ(nearby->entry.lambda[0], 1.0);

  // Different structure: miss.
  EXPECT_FALSE(cache.Lookup(/*exact=*/3, /*structure=*/200).has_value());

  const auto stats = cache.Stats();
  EXPECT_EQ(stats.hits_exact, 1u);
  EXPECT_EQ(stats.hits_nearby, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(WarmCache, NearbyIndexTracksTheMostRecentEntry) {
  WarmStartCache cache(/*capacity=*/8, /*shards=*/1);
  cache.Insert(1, 100, Entry(1.0));
  cache.Insert(2, 100, Entry(2.0));  // newer entry for the same structure
  const auto hit = cache.Lookup(/*exact=*/99, /*structure=*/100);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->tier, WarmHit::Tier::kNearby);
  EXPECT_EQ(hit->entry.lambda[0], 2.0);
}

TEST(WarmCache, EvictsLeastRecentlyUsedFirst) {
  WarmStartCache cache(/*capacity=*/3, /*shards=*/1);
  cache.Insert(1, 101, Entry(1.0));
  cache.Insert(2, 102, Entry(2.0));
  cache.Insert(3, 103, Entry(3.0));
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_TRUE(cache.Lookup(1, 101).has_value());
  cache.Insert(4, 104, Entry(4.0));

  EXPECT_TRUE(cache.Lookup(1, 101).has_value());
  EXPECT_FALSE(cache.Lookup(2, 102).has_value());  // evicted
  EXPECT_TRUE(cache.Lookup(3, 103).has_value());
  EXPECT_TRUE(cache.Lookup(4, 104).has_value());
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 3u);
}

TEST(WarmCache, ReinsertReplacesInPlaceWithoutEviction) {
  WarmStartCache cache(/*capacity=*/2, /*shards=*/1);
  cache.Insert(1, 101, Entry(1.0));
  cache.Insert(1, 101, Entry(9.0));
  const auto hit = cache.Lookup(1, 101);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry.lambda[0], 9.0);
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(WarmCache, CapacityZeroDisablesCaching) {
  WarmStartCache cache(/*capacity=*/0);
  cache.Insert(1, 101, Entry(1.0));
  EXPECT_FALSE(cache.Lookup(1, 101).has_value());
  EXPECT_EQ(cache.Stats().size, 0u);
}

TEST(WarmCache, ConcurrentMixedTrafficStaysConsistent) {
  WarmStartCache cache(/*capacity=*/64, /*shards=*/4);
  std::atomic<std::uint64_t> lookups{0};
  std::vector<std::thread> fleet;
  for (int t = 0; t < 4; ++t)
    fleet.emplace_back([&cache, &lookups, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t structure = rng.NextIndex(16);
        const std::uint64_t exact = 1000 + rng.NextIndex(128);
        if (rng.Bernoulli(0.5)) {
          cache.Insert(exact, structure, Entry(1.0));
        } else {
          cache.Lookup(exact, structure);
          lookups.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  for (auto& th : fleet) th.join();
  const auto stats = cache.Stats();
  EXPECT_LE(stats.size, 64u);
  EXPECT_EQ(stats.hits_exact + stats.hits_nearby + stats.misses,
            lookups.load());
}

// ----------------------------------------------------------- admission

TEST(Admission, AdmitsUpToTheConcurrencyBound) {
  AdmissionQueue q(/*max_concurrent=*/2, /*max_queued=*/0);
  EXPECT_EQ(q.Acquire(), AdmissionQueue::Outcome::kAdmitted);
  EXPECT_EQ(q.Acquire(), AdmissionQueue::Outcome::kAdmitted);
  EXPECT_EQ(q.Acquire(), AdmissionQueue::Outcome::kShed);  // no waiting room
  EXPECT_EQ(q.shed(), 1u);
  q.Release();
  EXPECT_EQ(q.Acquire(), AdmissionQueue::Outcome::kAdmitted);
  q.Release();
  q.Release();
  EXPECT_EQ(q.in_flight(), 0u);
}

TEST(Admission, WaiterGetsTheSlotWhenReleased) {
  AdmissionQueue q(/*max_concurrent=*/1, /*max_queued=*/1);
  ASSERT_EQ(q.Acquire(), AdmissionQueue::Outcome::kAdmitted);
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    if (q.Acquire() == AdmissionQueue::Outcome::kAdmitted) {
      admitted.store(true);
      q.Release();
    }
  });
  while (q.queued() == 0) std::this_thread::yield();
  EXPECT_FALSE(admitted.load());
  q.Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(q.peak_queued(), 1u);
}

TEST(Admission, DrainWakesWaitersAndAwaitsInFlight) {
  AdmissionQueue q(/*max_concurrent=*/1, /*max_queued=*/4);
  ASSERT_EQ(q.Acquire(), AdmissionQueue::Outcome::kAdmitted);
  std::atomic<int> drained{0};
  std::thread waiter([&] {
    if (q.Acquire() == AdmissionQueue::Outcome::kDraining)
      drained.fetch_add(1);
  });
  while (q.queued() == 0) std::this_thread::yield();
  q.BeginDrain();
  waiter.join();
  EXPECT_EQ(drained.load(), 1);
  EXPECT_EQ(q.Acquire(), AdmissionQueue::Outcome::kDraining);

  std::thread releaser([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.Release();
  });
  q.AwaitIdle();  // returns only after the in-flight slot releases
  EXPECT_EQ(q.in_flight(), 0u);
  releaser.join();
}

// ------------------------------------------------------- solve service

TEST(SolveService, ExactReplayIsBitIdenticalAtZeroIterations) {
  WarmStartCache cache(16);
  SolveService service(&cache, nullptr, nullptr);
  const SolveRequest req = FixedRequest(8, 8, 21, 1.2);

  const ServeOutcome cold = service.Handle(req, 0.0);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.cache_tier, "cold");
  EXPECT_EQ(cold.status, SolveStatus::kConverged);
  ASSERT_GT(cold.result.iterations, 0u);

  const ServeOutcome replay = service.Handle(req, 0.0);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.cache_tier, "exact");
  EXPECT_EQ(replay.result.iterations, 0u);
  EXPECT_LE(replay.result.final_residual, req.epsilon);
  // The contract the cache tier is named for: byte-identical primal.
  EXPECT_EQ(replay.x_fingerprint, cold.x_fingerprint);
  ASSERT_EQ(replay.solution.x.Flat().size(), cold.solution.x.Flat().size());
  for (std::size_t i = 0; i < replay.solution.x.Flat().size(); ++i)
    EXPECT_EQ(replay.solution.x.Flat()[i], cold.solution.x.Flat()[i]);
}

TEST(SolveService, PerturbedTotalsWarmStartReducesIterations) {
  WarmStartCache cache(16);
  SolveService service(&cache, nullptr, nullptr);

  const ServeOutcome cold = service.Handle(FixedRequest(10, 10, 33, 1.2),
                                           0.0);
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_EQ(cold.status, SolveStatus::kConverged);

  // Same structure (same seed => same x0/gamma), perturbed totals.
  const ServeOutcome warm = service.Handle(FixedRequest(10, 10, 33, 1.21),
                                           0.0);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.cache_tier, "warm");
  ASSERT_EQ(warm.status, SolveStatus::kConverged);
  EXPECT_LT(warm.result.iterations, cold.result.iterations);

  // An uncached problem of the same shape but fresh structure stays cold.
  const ServeOutcome other = service.Handle(FixedRequest(10, 10, 34, 1.2),
                                            0.0);
  ASSERT_TRUE(other.ok) << other.error;
  EXPECT_EQ(other.cache_tier, "cold");
}

TEST(SolveService, TighterToleranceRefusesReplayAndWarmSolves) {
  WarmStartCache cache(16);
  SolveService service(&cache, nullptr, nullptr);

  SolveRequest loose = FixedRequest(8, 8, 55, 1.3);
  loose.epsilon = 1e-2;
  const ServeOutcome first = service.Handle(loose, 0.0);
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_EQ(first.status, SolveStatus::kConverged);

  SolveRequest tight = loose;
  tight.epsilon = 1e-10;
  const ServeOutcome second = service.Handle(tight, 0.0);
  ASSERT_TRUE(second.ok) << second.error;
  // The cached iterate misses 1e-10, so the replay is refused; the cached
  // mu still warm-starts the solve.
  EXPECT_EQ(second.cache_tier, "warm");
  ASSERT_EQ(second.status, SolveStatus::kConverged);
  EXPECT_LE(second.result.final_residual, 1e-10);
}

TEST(SolveService, XChangeCriterionNeverReplays) {
  WarmStartCache cache(16);
  SolveService service(&cache, nullptr, nullptr);
  SolveRequest req = FixedRequest(6, 6, 66, 1.2);
  req.criterion = StopCriterion::kXChange;
  req.epsilon = 1e-8;

  const ServeOutcome cold = service.Handle(req, 0.0);
  ASSERT_TRUE(cold.ok) << cold.error;
  const ServeOutcome again = service.Handle(req, 0.0);
  ASSERT_TRUE(again.ok) << again.error;
  // kXChange measures trajectory state, which a final iterate cannot
  // re-verify — the exact hit downgrades to a warm start.
  EXPECT_EQ(again.cache_tier, "warm");
}

TEST(SolveService, RecordsMetricsAndWideEvents) {
  WarmStartCache cache(16);
  obs::MetricsRegistry metrics;
  obs::SolveLogWriter log("");  // disabled path: Emit counts, writes nothing
  SolveService service(&cache, &metrics, &log);

  const SolveRequest req = FixedRequest(5, 5, 77, 1.2);
  service.Handle(req, 0.001);
  service.Handle(req, 0.002);

  const auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("sea.serve.requests"), 2u);
  EXPECT_EQ(snap.CounterValue("sea.serve.cold_solves"), 1u);
  EXPECT_EQ(snap.CounterValue("sea.serve.replay_exact"), 1u);
  EXPECT_EQ(snap.GaugeValue("sea.serve.cache_size"), 1.0);
  const auto* hist = snap.FindHistogram("sea.serve.request_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->total_count, 2u);
  EXPECT_EQ(service.requests(), 2u);
  EXPECT_EQ(service.errors(), 0u);
}

TEST(SolveService, ReplyJsonCarriesTheContract) {
  WarmStartCache cache(16);
  SolveService service(&cache, nullptr, nullptr);
  SolveRequest req = FixedRequest(4, 4, 88, 1.2);
  req.want_multipliers = true;
  const ServeOutcome out = service.Handle(req, 0.0);
  ASSERT_TRUE(out.ok) << out.error;

  const std::string json = SolveService::RenderReplyJson(out, true);
  bool saw_status = false, saw_tier = false, saw_lambda = false;
  for (const auto& [key, value] : obs::JsonObjectFields(json)) {
    if (key == "status") {
      saw_status = true;
      EXPECT_EQ(value, "\"converged\"");
    } else if (key == "cache_tier") {
      saw_tier = true;
    } else if (key == "lambda") {
      saw_lambda = true;
      EXPECT_EQ(obs::JsonNumberArray(value).size(), 4u);
    }
  }
  EXPECT_TRUE(saw_status);
  EXPECT_TRUE(saw_tier);
  EXPECT_TRUE(saw_lambda);
}

// ------------------------------------------------------------- daemon

// In-process replica of the sea_serve wiring: admission gate in front of
// decode + service, 503 + Retry-After on shed/drain, 422 on bad payloads.
struct DaemonFixture {
  WarmStartCache cache{32};
  obs::MetricsRegistry metrics;
  AdmissionQueue admission;
  SolveService service{&cache, &metrics, nullptr};
  net::HttpServer server{/*handler_threads=*/4};

  explicit DaemonFixture(std::size_t max_concurrent = 4,
                         std::size_t max_queued = 16)
      : admission(max_concurrent, max_queued) {
    server.HandlePost("/solve", [this](const net::HttpRequest& req) {
      net::HttpResponse resp;
      resp.content_type = "application/json";
      const auto outcome = admission.Acquire();
      if (outcome != AdmissionQueue::Outcome::kAdmitted) {
        resp.status = 503;
        resp.headers.push_back("Retry-After: 1");
        resp.body = "{\"error\":\"unavailable\"}\n";
        return resp;
      }
      struct Guard {
        AdmissionQueue* q;
        ~Guard() { q->Release(); }
      } guard{&admission};
      const DecodedRequest decoded = serve::DecodeRequest(req.body);
      if (!decoded.ok()) {
        resp.status = 422;
        resp.body = decoded.error + "\n";
        return resp;
      }
      const ServeOutcome out = service.Handle(decoded.request, 0.0);
      if (!out.ok) resp.status = 500;
      resp.body = SolveService::RenderReplyJson(
          out, decoded.request.want_multipliers);
      return resp;
    });
    EXPECT_TRUE(server.Start(0));
  }
  ~DaemonFixture() { server.Stop(); }
};

std::string ReplyField(const std::string& json, const std::string& want) {
  for (const auto& [key, value] : obs::JsonObjectFields(json))
    if (key == want) return value;
  return "";
}

TEST(ServeDaemon, SolvesBinaryAndJsonOverHttp) {
  DaemonFixture daemon;
  const SolveRequest req = FixedRequest(6, 6, 99, 1.2);

  const auto bin = net::HttpPost("127.0.0.1", daemon.server.port(), "/solve",
                                 serve::EncodeRequestFrame(req));
  ASSERT_TRUE(bin.ok) << bin.error;
  ASSERT_EQ(bin.status, 200) << bin.body;
  EXPECT_EQ(ReplyField(bin.body, "status"), "\"converged\"");
  EXPECT_EQ(ReplyField(bin.body, "cache_tier"), "\"cold\"");

  const auto json = net::HttpPost("127.0.0.1", daemon.server.port(),
                                  "/solve", serve::EncodeRequestJson(req),
                                  "application/json");
  ASSERT_TRUE(json.ok) << json.error;
  ASSERT_EQ(json.status, 200) << json.body;
  // Same problem: the JSON re-submission replays the binary solve.
  EXPECT_EQ(ReplyField(json.body, "cache_tier"), "\"exact\"");
  EXPECT_EQ(ReplyField(json.body, "x_fingerprint"),
            ReplyField(bin.body, "x_fingerprint"));
}

TEST(ServeDaemon, HostileBodyIs422NotACrash) {
  DaemonFixture daemon;
  const auto garbage = net::HttpPost("127.0.0.1", daemon.server.port(),
                                     "/solve", "SEASOLV\0garbage");
  ASSERT_TRUE(garbage.ok) << garbage.error;
  EXPECT_EQ(garbage.status, 422);
  // The daemon keeps serving after hostile input.
  const auto ok = net::HttpPost(
      "127.0.0.1", daemon.server.port(), "/solve",
      serve::EncodeRequestFrame(FixedRequest(3, 3, 7, 1.1)));
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.status, 200);
}

TEST(ServeDaemon, ShedsWith503AndRetryAfterWhenSaturated) {
  // One slot, no waiting room. Holding the slot directly from the test
  // makes saturation deterministic: every request sheds until Release.
  DaemonFixture daemon(/*max_concurrent=*/1, /*max_queued=*/0);
  ASSERT_EQ(daemon.admission.Acquire(), AdmissionQueue::Outcome::kAdmitted);

  const std::string frame =
      serve::EncodeRequestFrame(FixedRequest(3, 3, 7, 1.1));
  for (int i = 0; i < 3; ++i) {
    const auto r =
        net::HttpPost("127.0.0.1", daemon.server.port(), "/solve", frame);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status, 503);
    EXPECT_NE(r.head.find("Retry-After: 1"), std::string::npos);
  }
  EXPECT_EQ(daemon.admission.shed(), 3u);

  daemon.admission.Release();
  const auto r =
      net::HttpPost("127.0.0.1", daemon.server.port(), "/solve", frame);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
}

TEST(ServeDaemon, ConcurrentMixedLoadAllAnswered) {
  DaemonFixture daemon(/*max_concurrent=*/4, /*max_queued=*/64);
  const std::string repeat_frame =
      serve::EncodeRequestFrame(FixedRequest(6, 6, 123, 1.2));
  std::atomic<int> ok_count{0};
  std::vector<std::thread> fleet;
  for (int t = 0; t < 4; ++t)
    fleet.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        const std::string frame =
            (i % 2 == 0) ? repeat_frame
                         : serve::EncodeRequestFrame(FixedRequest(
                               6, 6, 1000 + t * 100 + i, 1.2));
        const auto r = net::HttpPost("127.0.0.1", daemon.server.port(),
                                     "/solve", frame);
        if (r.ok && r.status == 200) ok_count.fetch_add(1);
      }
    });
  for (auto& th : fleet) th.join();
  EXPECT_EQ(ok_count.load(), 40);
  const auto stats = daemon.cache.Stats();
  EXPECT_GT(stats.hits_exact, 0u);  // the repeats hit
  EXPECT_EQ(daemon.service.errors(), 0u);
  // Each request's solve commits through its own metrics observer; one
  // shared across workers would mix their per-solve deltas.
  const auto snap = daemon.metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("sea.iterations"),
            snap.CounterValue("sea.serve.iterations"));
  EXPECT_EQ(snap.CounterValue("sea.solves"),
            snap.CounterValue("sea.serve.warm_solves") +
                snap.CounterValue("sea.serve.cold_solves"));
}

}  // namespace
}  // namespace sea
