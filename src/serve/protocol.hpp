// Wire protocol of the sea_serve solve daemon (docs/SERVING.md).
//
// A solve request is one POST /solve body in either of two encodings:
//
//   * Binary frame (Content-Type: application/octet-stream) — the compact
//     form for production clients, following the checkpoint codec's
//     conventions (core/checkpoint.hpp): 8-byte magic, u32 version,
//     native-endian fixed-width fields, length-prefixed double vectors,
//     and a trailing CRC-32 over every preceding byte. Layout (version 1):
//
//       "SEASOLV\0"  8-byte magic
//       u32   format version
//       u32   totals mode       (problems/types.hpp TotalsMode)
//       u32   stop criterion    (core/options.hpp StopCriterion)
//       u32   flags             (bit 0: response carries lambda/mu arrays)
//       u64   m, u64 n
//       f64   epsilon
//       f64   time_budget_seconds   (0 = server default)
//       u64   max_iterations        (0 = server default)
//       u64 count + f64[]  x0     (m*n, row-major)
//       u64 count + f64[]  gamma  (m*n, row-major)
//       u64 count + f64[]  s0
//       u64 count + f64[]  alpha  (empty unless elastic/SAM/interval)
//       u64 count + f64[]  d0     (empty for SAM)
//       u64 count + f64[]  beta   (empty unless elastic/interval)
//       u64 count + f64[]  s_lo, s_hi, d_lo, d_hi  (empty unless interval)
//       u32   CRC-32 of all preceding bytes
//
//   * JSON (Content-Type: application/json, or any body whose first
//     non-space byte is '{') — the debuggable form for small problems and
//     curl: a flat object with scalars {"mode","criterion","epsilon",
//     "time_budget_seconds","max_iterations","want_multipliers","m","n"}
//     and number arrays {"x0","gamma","s0","alpha","d0","beta","s_lo",
//     "s_hi","d_lo","d_hi"} (matrices row-major; the same emptiness rules
//     as the binary frame).
//
// Decoding never throws on hostile bytes: every defect — bad magic,
// version skew, CRC mismatch, inconsistent lengths, shapes that fail
// DiagonalProblem::Validate — comes back as a DecodedRequest with a
// non-empty error string, which the daemon answers as 400/422.
//
// The response is always JSON (one flat object; schema 4): solve outcome
// scalars, the cache tier that served the request ("cold", "exact",
// "warm"), and FNV-1a fingerprints of the problem and the returned primal
// so clients and tests can assert bit-identity without shipping the
// matrix. `want_multipliers` additionally inlines lambda/mu as arrays.
#pragma once

#include <cstdint>
#include <string>

#include "core/options.hpp"
#include "problems/diagonal_problem.hpp"

namespace sea::serve {

inline constexpr std::uint32_t kProtocolVersion = 1;

// Response flag: client wants lambda/mu arrays inlined in the reply.
inline constexpr std::uint32_t kFlagWantMultipliers = 1u << 0;

// One decoded solve request: the problem plus the per-request solver knobs
// a client may set. Server-side policy (pool, metrics, cancellation)
// stays out of the wire format.
struct SolveRequest {
  DiagonalProblem problem;
  double epsilon = 1e-6;
  StopCriterion criterion = StopCriterion::kResidualRel;
  double time_budget_seconds = 0.0;  // 0 = server default
  std::uint64_t max_iterations = 0;  // 0 = server default
  bool want_multipliers = false;
};

struct DecodedRequest {
  SolveRequest request;  // meaningful only when ok()
  std::string error;     // non-empty on any decode/validation defect

  bool ok() const { return error.empty(); }
};

// Binary frame codec. Encode is used by clients (perfbench, tests);
// Decode by the daemon.
std::string EncodeRequestFrame(const SolveRequest& request);
DecodedRequest DecodeRequestFrame(std::string_view bytes);

// JSON request codec (the curl-friendly fallback).
std::string EncodeRequestJson(const SolveRequest& request);
DecodedRequest DecodeRequestJson(const std::string& body);

// Dispatches on the body's first non-space byte: '{' -> JSON, otherwise
// the binary frame decoder.
DecodedRequest DecodeRequest(const std::string& body);

}  // namespace sea::serve
