// Telemetry-plane end-to-end suite: the embedded HTTP server
// (net/http_server.hpp) and its protocol limits — including concurrent
// scrapes against a LIVE solve, which is the configuration the whole plane
// exists for. The suite runs under TSan in CI (.github/workflows/ci.yml):
// handler threads, the accept loop, and the solve thread all overlap here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/diagonal_sea.hpp"
#include "core/engine_observer.hpp"
#include "net/http_client.hpp"
#include "net/http_server.hpp"
#include "obs/metrics.hpp"
#include "obs/status_file.hpp"
#include "obs/trace_reader.hpp"
#include "support/cancel.hpp"

namespace sea {
namespace {

constexpr const char* kLoopback = "127.0.0.1";

net::HttpResponse Text(std::string body) {
  net::HttpResponse resp;
  resp.body = std::move(body);
  return resp;
}

// ---------------------------------------------------------------- server

TEST(HttpServer, PortZeroBindsEphemeralAndServes) {
  net::HttpServer server;
  server.Handle("/healthz", [](const net::HttpRequest&) {
    return Text("ok\n");
  });
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;
  ASSERT_NE(server.port(), 0);  // kernel-assigned, recovered by getsockname
  const auto r = net::HttpGet(kLoopback, server.port(), "/healthz");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "ok\n");
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServer, QueryParametersAreDecoded) {
  net::HttpServer server;
  server.Handle("/echo", [](const net::HttpRequest& req) {
    return Text(req.Param("a") + "|" + req.Param("b") + "|" +
                req.Param("missing", "fallback"));
  });
  ASSERT_TRUE(server.Start(0));
  const auto r =
      net::HttpGet(kLoopback, server.port(), "/echo?a=1&b=hello%20world");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.body, "1|hello world|fallback");
  server.Stop();
}

TEST(HttpServer, UnknownPathIs404) {
  net::HttpServer server;
  server.Handle("/known", [](const net::HttpRequest&) { return Text("y"); });
  ASSERT_TRUE(server.Start(0));
  const auto r = net::HttpGet(kLoopback, server.port(), "/unknown");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 404);
  EXPECT_EQ(server.requests_error(), 1u);
  server.Stop();
}

TEST(HttpServer, NonGetIs405WithAllowHeader) {
  net::HttpServer server;
  server.Handle("/x", [](const net::HttpRequest&) { return Text("y"); });
  ASSERT_TRUE(server.Start(0));
  const auto r = net::HttpRaw(kLoopback, server.port(),
                              "POST /x HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 405);
  server.Stop();
}

TEST(HttpServer, MalformedRequestLineIs400) {
  net::HttpServer server;
  ASSERT_TRUE(server.Start(0));
  const auto r =
      net::HttpRaw(kLoopback, server.port(), "complete nonsense\r\n\r\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 400);
  server.Stop();
}

TEST(HttpServer, OversizedRequestLineIs431) {
  net::HttpServer server;
  ASSERT_TRUE(server.Start(0));
  // The cap trips when no line end appears within kMaxRequestBytes, so the
  // target must overshoot the cap by more than one read chunk.
  const std::string huge =
      "GET /" + std::string(2 * net::HttpServer::kMaxRequestBytes, 'a') +
      " HTTP/1.1\r\n\r\n";
  const auto r = net::HttpRaw(kLoopback, server.port(), huge);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 431);
  server.Stop();
}

TEST(HttpServer, HeadStripsBodyButKeepsStatus) {
  net::HttpServer server;
  server.Handle("/x", [](const net::HttpRequest&) { return Text("body"); });
  ASSERT_TRUE(server.Start(0));
  const auto r = net::HttpRaw(kLoopback, server.port(),
                              "HEAD /x HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  EXPECT_TRUE(r.body.empty());
  server.Stop();
}

// ------------------------------------------------------------- POST body

TEST(HttpServer, PostBodyReachesTheHandler) {
  net::HttpServer server;
  server.HandlePost("/solve", [](const net::HttpRequest& req) {
    return Text(req.Header("content-type") + "|" +
                std::to_string(req.body.size()) + "|" + req.body);
  });
  ASSERT_TRUE(server.Start(0));
  constexpr char kBytes[] = "binary\0payload with \xff bytes";
  const std::string body(kBytes, sizeof(kBytes) - 1);  // keeps the NUL
  const auto r = net::HttpPost(kLoopback, server.port(), "/solve", body,
                               "application/octet-stream");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "application/octet-stream|" +
                        std::to_string(body.size()) + "|" + body);
  server.Stop();
}

TEST(HttpServer, GetOnPostOnlyRouteIs405WithAllowPost) {
  net::HttpServer server;
  server.HandlePost("/solve", [](const net::HttpRequest&) {
    return Text("y");
  });
  ASSERT_TRUE(server.Start(0));
  const auto r = net::HttpGet(kLoopback, server.port(), "/solve");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 405);
  EXPECT_NE(r.head.find("Allow: POST"), std::string::npos);
  server.Stop();
}

TEST(HttpServer, PostWithoutContentLengthIs411) {
  net::HttpServer server;
  server.HandlePost("/solve", [](const net::HttpRequest&) {
    return Text("y");
  });
  ASSERT_TRUE(server.Start(0));
  const auto r = net::HttpRaw(kLoopback, server.port(),
                              "POST /solve HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 411);
  const auto bad = net::HttpRaw(
      kLoopback, server.port(),
      "POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: banana\r\n\r\n");
  ASSERT_TRUE(bad.ok) << bad.error;
  EXPECT_EQ(bad.status, 411);
  server.Stop();
}

TEST(HttpServer, OversizedPostBodyIs413BeforeTheBodyIsRead) {
  net::HttpServer server;
  std::atomic<int> calls{0};
  server.HandlePost("/solve", [&calls](const net::HttpRequest&) {
    calls.fetch_add(1);
    return Text("y");
  });
  server.set_max_body_bytes(64);
  ASSERT_TRUE(server.Start(0));
  const auto r = net::HttpPost(kLoopback, server.port(), "/solve",
                               std::string(65, 'x'));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 413);
  EXPECT_EQ(calls.load(), 0);  // rejected before dispatch
  // A body exactly at the cap passes.
  const auto fit = net::HttpPost(kLoopback, server.port(), "/solve",
                                 std::string(64, 'x'));
  ASSERT_TRUE(fit.ok) << fit.error;
  EXPECT_EQ(fit.status, 200);
  server.Stop();
}

TEST(HttpServer, TruncatedPostBodyIs400) {
  net::HttpServer server;
  std::atomic<int> calls{0};
  server.HandlePost("/solve", [&calls](const net::HttpRequest&) {
    calls.fetch_add(1);
    return Text("y");
  });
  ASSERT_TRUE(server.Start(0));
  // Declare 100 bytes, deliver 5, then half-close so the server sees EOF
  // instead of waiting out the socket timeout.
  const auto r = net::HttpRawHalfClose(
      kLoopback, server.port(),
      "POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\nhello");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 400);
  EXPECT_EQ(calls.load(), 0);  // the handler never sees a short payload
  server.Stop();
}

TEST(HttpServer, StopIsIdempotentAndRestartable) {
  net::HttpServer server;
  server.Handle("/x", [](const net::HttpRequest&) { return Text("y"); });
  ASSERT_TRUE(server.Start(0));
  server.Stop();
  server.Stop();  // second Stop is a no-op, not a crash
  // A stopped server can Start again (fresh ephemeral port).
  ASSERT_TRUE(server.Start(0));
  const auto r = net::HttpGet(kLoopback, server.port(), "/x");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  server.Stop();
}

TEST(HttpServer, CancelTokenStopsTheAcceptLoop) {
  CancelToken cancel;
  net::HttpServer server(/*handler_threads=*/1, &cancel);
  server.Handle("/x", [](const net::HttpRequest&) { return Text("y"); });
  ASSERT_TRUE(server.Start(0));
  cancel.Cancel();
  // The accept loop polls the token a few times per second; Stop() then
  // joins whatever is left. The real assertion is that this returns (no
  // hang) and TSan sees a clean join.
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServer, ConcurrentClientsAllGetAnswers) {
  net::HttpServer server(/*handler_threads=*/3);
  std::atomic<int> calls{0};
  server.Handle("/work", [&calls](const net::HttpRequest&) {
    calls.fetch_add(1);
    return Text("done");
  });
  ASSERT_TRUE(server.Start(0));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    clients.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto r = net::HttpGet(kLoopback, server.port(), "/work");
        if (r.ok && r.status == 200 && r.body == "done") ok.fetch_add(1);
      }
    });
  for (auto& c : clients) c.join();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_EQ(calls.load(), kThreads * kPerThread);
  EXPECT_EQ(server.requests_ok(), static_cast<std::uint64_t>(ok.load()));
  server.Stop();
}

// ------------------------------------------------------- live-solve e2e

DiagonalProblem ScrapeProblem() {
  // Big enough that the solve spans many checks while clients scrape.
  const std::size_t m = 60, n = 50;
  DenseMatrix x0(m, n), gamma(m, n);
  std::size_t k = 0;
  for (double& c : x0.Flat()) c = 1.0 + 0.01 * static_cast<double>(k++ % 13);
  k = 0;
  for (double& c : gamma.Flat())
    c = 0.5 + 0.37 * static_cast<double>(k++ % 11) / 11.0;
  // Scaling both total vectors keeps sum(s0) == sum(d0) (feasibility).
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& t : s0) t *= 1.25;
  for (double& t : d0) t *= 1.25;
  return DiagonalProblem::MakeFixed(std::move(x0), std::move(gamma),
                                    std::move(s0), std::move(d0));
}

// sea_iterations_total in a /metrics scrape; 0 before the counter exists.
double ScrapedIterations(const std::string& prom) {
  const std::string key = "\nsea_iterations_total ";
  const std::size_t at = prom.find(key);
  return at == std::string::npos ? 0.0
                                 : std::stod(prom.substr(at + key.size()));
}

// Routes sea_solve's /metrics and /statusz endpoints to a registry and a
// status writer.
void ServeTelemetry(net::HttpServer& server, obs::MetricsRegistry& metrics,
                    obs::StatusFileWriter& status) {
  server.Handle("/metrics", [&metrics](const net::HttpRequest&) {
    std::ostringstream out;
    metrics.WritePrometheus(out);
    return Text(out.str());
  });
  server.Handle("/statusz", [&status](const net::HttpRequest&) {
    return Text(status.LatestJson());
  });
}

// Before the first check, /metrics has no iteration counter and /statusz
// already answers "starting": the baseline a live scrape polls up from.
TEST(TelemetryPlane, ScrapesBeforeTheSolveShowNoIterations) {
  obs::MetricsRegistry metrics;
  obs::StatusFileWriter status("", /*epsilon=*/1e-8);
  net::HttpServer server;
  ServeTelemetry(server, metrics, status);
  ASSERT_TRUE(server.Start(0));

  const auto prom = net::HttpGet(kLoopback, server.port(), "/metrics");
  ASSERT_TRUE(prom.ok) << prom.error;
  EXPECT_EQ(prom.status, 200);
  EXPECT_EQ(prom.body.find("sea_iterations_total"), std::string::npos);
  EXPECT_EQ(ScrapedIterations(prom.body), 0.0);

  const auto statusz = net::HttpGet(kLoopback, server.port(), "/statusz");
  ASSERT_TRUE(statusz.ok) << statusz.error;
  const auto snap = obs::ParseTraceLine(statusz.body);
  EXPECT_EQ(snap.strings.at("phase"), "starting");
  EXPECT_EQ(snap.numbers.at("iter"), 0.0);
  server.Stop();
}

// After the solve, a /metrics scrape's sea_iterations_total and the final
// /statusz snapshot both report the solve's iteration count.
TEST(TelemetryPlane, ScrapesAfterTheSolveReportItsIterations) {
  const auto problem = ScrapeProblem();
  obs::MetricsRegistry metrics;
  obs::StatusFileWriter status("", /*epsilon=*/1e-8);
  net::HttpServer server;
  ServeTelemetry(server, metrics, status);
  ASSERT_TRUE(server.Start(0));

  SeaOptions opts;
  opts.epsilon = 1e-8;
  obs::MetricsObserver metrics_observer(metrics);
  opts.observers.push_back(&metrics_observer);
  opts.observers.push_back(&status);
  const auto run = SolveDiagonal(problem, opts);
  ASSERT_GT(run.result.iterations, 0u);

  const auto prom = net::HttpGet(kLoopback, server.port(), "/metrics");
  ASSERT_TRUE(prom.ok) << prom.error;
  EXPECT_EQ(ScrapedIterations(prom.body),
            static_cast<double>(run.result.iterations));

  const auto statusz = net::HttpGet(kLoopback, server.port(), "/statusz");
  ASSERT_TRUE(statusz.ok) << statusz.error;
  const auto snap = obs::ParseTraceLine(statusz.body);
  EXPECT_EQ(snap.strings.at("phase"), "terminated");
  EXPECT_EQ(snap.numbers.at("iter"),
            static_cast<double>(run.result.iterations));
  server.Stop();
}

TEST(TelemetryPlane, ConcurrentScrapesDuringLiveSolve) {
  const auto problem = ScrapeProblem();
  obs::MetricsRegistry metrics;
  obs::StatusFileWriter status("", /*epsilon=*/1e-12);

  net::HttpServer server(/*handler_threads=*/2);
  ServeTelemetry(server, metrics, status);
  ASSERT_TRUE(server.Start(0));

  SeaOptions opts;
  opts.epsilon = 1e-12;  // unreachable fast: the solve outlives the scrapes
  opts.criterion = StopCriterion::kResidualAbs;
  opts.max_iterations = 20000;
  opts.stall_checks = 0;  // run the full iteration budget
  obs::MetricsObserver metrics_observer(metrics);
  opts.observers.push_back(&metrics_observer);
  opts.observers.push_back(&status);

  // Hold the solve at its checks until both endpoints have answered and a
  // later /metrics scrape has seen sea_iterations_total rise above the
  // first one, so the scrapes overlap the live solve however fast the solve
  // runs (bounded, so a server that never answers fails the expectations
  // below, not the test's time limit). The metrics observer commits the
  // check's iteration count before the gate runs.
  std::atomic<int> per_target_ok[2] = {0, 0};
  std::atomic<double> first_iterations{-1.0};
  std::atomic<bool> iterations_moved{false};
  const auto gate_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  CheckObserver gate([&](const IterationEvent& ev) {
    auto released = [&] {
      return per_target_ok[0] > 0 && per_target_ok[1] > 0 &&
             (iterations_moved ||
              static_cast<double>(ev.iteration) <= first_iterations);
    };
    while (!released() && std::chrono::steady_clock::now() < gate_deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  opts.observers.push_back(&gate);

  std::atomic<bool> solving{true};
  DiagonalSeaRun run;
  std::thread solve_thread([&] {
    run = SolveDiagonal(problem, opts);
    solving.store(false);
  });

  std::atomic<int> scrapes_ok{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t)
    clients.emplace_back([&, t] {
      const char* target = t == 0 ? "/metrics" : "/statusz";
      while (solving.load()) {
        const auto r = net::HttpGet(kLoopback, server.port(), target);
        if (r.ok && r.status == 200 && !r.body.empty()) {
          if (t == 0) {
            const double iterations = ScrapedIterations(r.body);
            if (first_iterations < 0.0)
              first_iterations = iterations;
            else if (iterations > first_iterations)
              iterations_moved = true;
          }
          scrapes_ok.fetch_add(1);
          per_target_ok[t].fetch_add(1);
        }
      }
    });
  for (auto& c : clients) c.join();
  solve_thread.join();
  server.Stop();

  EXPECT_GT(scrapes_ok.load(), 0);
  for (const auto& c : per_target_ok) EXPECT_GT(c.load(), 0);
  EXPECT_TRUE(iterations_moved.load());
  EXPECT_GT(run.result.iterations, 0u);
  // /statusz is flat JSON at every point in time — parse the final state.
  const auto snap = obs::ParseTraceLine(status.LatestJson());
  EXPECT_EQ(snap.Type(), "status");
  EXPECT_EQ(snap.strings.at("phase"), "terminated");
}

}  // namespace
}  // namespace sea
