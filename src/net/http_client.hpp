// Minimal blocking HTTP/1.1 client for the telemetry plane's tests and
// tools and the sea_serve daemon's load generator. Counterpart of
// net/http_server.hpp and nothing more: connect to a loopback port, send
// one GET or POST, read to EOF (the server closes after each exchange),
// parse the status line. Not a general HTTP client — no TLS, no
// redirects, no keep-alive.
#pragma once

#include <cstdint>
#include <string>

namespace sea::net {

struct FetchResult {
  bool ok = false;         // transport succeeded and a status line parsed
  int status = 0;          // HTTP status code (0 when !ok)
  std::string body;        // response body (headers stripped)
  std::string head;        // raw response head (status line + headers)
  std::string error;       // transport/parse failure detail when !ok
};

// GET http://`host`:`port``target` with a `timeout_seconds` socket
// deadline on connect and reads. `target` must start with '/' and may
// carry a query string.
FetchResult HttpGet(const std::string& host, std::uint16_t port,
                    const std::string& target, double timeout_seconds = 5.0);

// POST `body` to http://`host`:`port``target` with the given
// Content-Type. Used by perfbench and the serve tests to submit solve
// frames; same transport rules as HttpGet.
FetchResult HttpPost(const std::string& host, std::uint16_t port,
                     const std::string& target, const std::string& body,
                     const std::string& content_type =
                         "application/octet-stream",
                     double timeout_seconds = 5.0);

// Sends `raw` bytes verbatim on a fresh connection and returns everything
// the server answers until close — the hostile-input door for tests
// (malformed request lines, oversized heads, non-GET methods).
FetchResult HttpRaw(const std::string& host, std::uint16_t port,
                    const std::string& raw, double timeout_seconds = 5.0);

// HttpRaw plus a write-side shutdown after the send, so the server sees
// EOF where it expects more bytes — exercises truncated-body handling
// without waiting out the server's socket read timeout.
FetchResult HttpRawHalfClose(const std::string& host, std::uint16_t port,
                             const std::string& raw,
                             double timeout_seconds = 5.0);

}  // namespace sea::net
