// Minimal embedded HTTP/1.1 server — the live telemetry plane's wire seam
// (docs/OBSERVABILITY.md, "Live endpoints") and the request door of the
// sea_serve solve daemon (docs/SERVING.md).
//
// Scope is deliberately tiny and dependency-free: loopback-only
// (127.0.0.1), GET/HEAD plus POST with a bounded body, one request per
// connection (`Connection: close`), handlers registered by exact path
// before Start. That is all a metrics scraper, a dashboard poll, a CI
// curl, or a solve client needs.
//
// Threading: Start() spawns one accept thread; each accepted connection is
// dispatched onto a TaskQueue (parallel/task_queue.hpp) of handler workers,
// so a slow client never blocks accept and concurrent exchanges are served
// concurrently — without touching the solver's ParallelFor region pool,
// which a running solve owns. Handlers run on queue workers and must be
// thread-safe against each other and the solve thread (the telemetry
// sources already are: MetricsRegistry snapshots and the status writer's
// latest snapshot are internally synchronized; the serve layer's cache and
// admission queue are synchronized in src/serve/).
//
// Shutdown: Stop() — or a tripped CancelToken, polled by the accept loop —
// stops accepting, drains in-flight handlers, and joins both the accept
// thread and the handler queue, so process exit is clean under TSan. The
// sea_solve SIGINT/SIGTERM path reuses the solver's token
// (docs/ROBUSTNESS.md, "Signals").
//
// Protocol limits (tested in tests/test_net.cpp and tests/test_fuzz.cpp):
// request head capped at kMaxRequestBytes (431 on overflow), request body
// capped at max_body_bytes (413 on overflow, answered without reading the
// body), POST without a parseable Content-Length -> 411, a body shorter
// than its declared length -> 400 after the socket read timeout, unknown
// path -> 404, method not registered for the path -> 405 with an Allow
// header, unparsable request -> 400, 5s socket read timeout.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "support/cancel.hpp"

namespace sea {
class TaskQueue;
}  // namespace sea

namespace sea::net {

// Parsed request of one exchange. `params` holds the query string split on
// '&'/'=' with %XX sequences decoded; duplicate keys keep the last value.
// `headers` holds the request header fields with lowercased names; `body`
// holds the POST payload (empty for GET/HEAD).
struct HttpRequest {
  std::string method;
  std::string path;   // before '?'
  std::string query;  // after '?', raw
  std::map<std::string, std::string> params;
  std::map<std::string, std::string> headers;  // lowercased field names
  std::string body;

  // Lookup helper: decoded query parameter or `fallback` when absent.
  std::string Param(const std::string& key,
                    const std::string& fallback = "") const;
  // Lookup helper: header value by lowercased name, or `fallback`.
  std::string Header(const std::string& name,
                     const std::string& fallback = "") const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  // Extra response header lines ("Retry-After: 1", "Allow: GET, HEAD").
  std::vector<std::string> headers;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  // Request head (request line + header fields) size cap; longer heads are
  // answered 431 without reading the rest.
  static constexpr std::size_t kMaxRequestBytes = 4096;
  // Default request-body cap (override with set_max_body_bytes): generous
  // enough for a dense binary solve frame of a few hundred x a few hundred
  // cells, small enough that a hostile Content-Length cannot balloon a
  // handler worker.
  static constexpr std::size_t kDefaultMaxBodyBytes = 8u << 20;

  // `handler_threads` sizes the TaskQueue the exchanges run on; `cancel`
  // (optional) lets the solver's signal machinery stop the server without
  // a Stop() call — the accept loop polls it a few times per second.
  explicit HttpServer(std::size_t handler_threads = 2,
                      CancelToken* cancel = nullptr);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Register `handler` for GET/HEAD of exact-match `path` (e.g.
  // "/metrics"). Must be called before Start; handlers run concurrently on
  // queue workers.
  void Handle(std::string path, Handler handler);

  // Register `handler` for POST of exact-match `path` (e.g. "/solve").
  // The request carries the complete body (already bounds-checked).
  void HandlePost(std::string path, Handler handler);

  // Request-body cap for POST exchanges; bodies whose Content-Length
  // exceeds it are answered 413 without being read. Set before Start.
  void set_max_body_bytes(std::size_t bytes) { max_body_bytes_ = bytes; }
  std::size_t max_body_bytes() const { return max_body_bytes_; }

  // Bind 127.0.0.1:`port` (0 = kernel-assigned ephemeral port, readable
  // via port() after Start returns) and start serving. Returns false with
  // `*error` filled on bind/listen failure; never throws.
  bool Start(std::uint16_t port, std::string* error = nullptr);

  // Stop accepting, drain in-flight exchanges, join all threads.
  // Idempotent; called by the destructor.
  void Stop();

  bool running() const { return running_; }
  std::uint16_t port() const { return port_; }
  // Exchanges fully answered so far, by outcome (monotone; any thread).
  std::uint64_t requests_ok() const;
  std::uint64_t requests_error() const;  // every non-2xx answer

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  std::map<std::string, Handler> handlers_;       // GET/HEAD routes
  std::map<std::string, Handler> post_handlers_;  // POST routes
  std::unique_ptr<TaskQueue> queue_;
  CancelToken* cancel_ = nullptr;
  std::size_t handler_threads_;
  std::size_t max_body_bytes_ = kDefaultMaxBodyBytes;
  std::thread accept_thread_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool running_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_error_{0};
};

// Reason-phrase for the status codes the server emits ("OK", "Not Found",
// ...); "Unknown" otherwise. Exposed for tests.
const char* StatusReason(int status);

}  // namespace sea::net
