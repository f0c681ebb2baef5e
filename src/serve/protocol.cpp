#include "serve/protocol.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <utility>

#include "obs/bench_reader.hpp"
#include "obs/json_export.hpp"
#include "support/byte_io.hpp"
#include "support/check.hpp"
#include "support/crc32.hpp"

namespace sea::serve {

namespace {

constexpr char kMagic[8] = {'S', 'E', 'A', 'S', 'O', 'L', 'V', '\0'};

// Dimension sanity cap: a request whose declared shape implies more cells
// than this is rejected before any allocation — the HTTP body cap bounds
// honest requests long before here, so anything larger is hostile or
// corrupt. 16M cells = 128 MiB of doubles per matrix.
constexpr std::uint64_t kMaxCells = 16ull << 20;

using support::ByteReader;
using support::PutDoubles;
using support::PutF64;
using support::PutU32;
using support::PutU64;

DecodedRequest Fail(std::string why) {
  DecodedRequest r;
  r.error = std::move(why);
  return r;
}

DenseMatrix MatrixFromFlat(std::size_t m, std::size_t n,
                           std::vector<double>&& flat) {
  DenseMatrix out(m, n);
  std::memcpy(out.data(), flat.data(), flat.size() * sizeof(double));
  return out;
}

// Assembles the problem through the mode's factory (which enforces the
// argument shapes) and validates it; any defect becomes the error string.
DecodedRequest Assemble(TotalsMode mode, std::size_t m, std::size_t n,
                        std::vector<double>&& x0, std::vector<double>&& gamma,
                        Vector&& s0, Vector&& alpha, Vector&& d0,
                        Vector&& beta, Vector&& s_lo, Vector&& s_hi,
                        Vector&& d_lo, Vector&& d_hi, SolveRequest&& partial) {
  if (x0.size() != m * n || gamma.size() != m * n)
    return Fail("x0/gamma length disagrees with the declared m*n shape");
  DecodedRequest out;
  out.request = std::move(partial);
  try {
    DenseMatrix x0m = MatrixFromFlat(m, n, std::move(x0));
    DenseMatrix gm = MatrixFromFlat(m, n, std::move(gamma));
    switch (mode) {
      case TotalsMode::kFixed:
        out.request.problem = DiagonalProblem::MakeFixed(
            std::move(x0m), std::move(gm), std::move(s0), std::move(d0));
        break;
      case TotalsMode::kElastic:
        out.request.problem = DiagonalProblem::MakeElastic(
            std::move(x0m), std::move(gm), std::move(s0), std::move(alpha),
            std::move(d0), std::move(beta));
        break;
      case TotalsMode::kSam:
        out.request.problem = DiagonalProblem::MakeSam(
            std::move(x0m), std::move(gm), std::move(s0), std::move(alpha));
        break;
      case TotalsMode::kInterval:
        out.request.problem = DiagonalProblem::MakeInterval(
            std::move(x0m), std::move(gm), std::move(s0), std::move(alpha),
            std::move(s_lo), std::move(s_hi), std::move(d0), std::move(beta),
            std::move(d_lo), std::move(d_hi));
        break;
    }
    out.request.problem.Validate();
  } catch (const std::exception& e) {
    return Fail(std::string("invalid problem: ") + e.what());
  }
  return out;
}

bool ValidEnumRanges(std::uint32_t mode, std::uint32_t criterion) {
  return mode <= static_cast<std::uint32_t>(TotalsMode::kInterval) &&
         criterion <= static_cast<std::uint32_t>(StopCriterion::kResidualRel);
}

bool SaneScalars(double epsilon, double budget, std::uint64_t m,
                 std::uint64_t n) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) return false;
  if (budget < 0.0 || !std::isfinite(budget)) return false;
  if (m == 0 || n == 0) return false;
  if (m > kMaxCells || n > kMaxCells || m * n > kMaxCells) return false;
  return true;
}

}  // namespace

std::string EncodeRequestFrame(const SolveRequest& req) {
  const DiagonalProblem& p = req.problem;
  std::string out;
  out.reserve(128 + sizeof(double) * (2 * p.m() * p.n() + 4 * (p.m() + p.n())));
  out.append(kMagic, sizeof(kMagic));
  PutU32(out, kProtocolVersion);
  PutU32(out, static_cast<std::uint32_t>(p.mode()));
  PutU32(out, static_cast<std::uint32_t>(req.criterion));
  PutU32(out, req.want_multipliers ? kFlagWantMultipliers : 0u);
  PutU64(out, p.m());
  PutU64(out, p.n());
  PutF64(out, req.epsilon);
  PutF64(out, req.time_budget_seconds);
  PutU64(out, req.max_iterations);
  PutDoubles(out, p.x0().Flat());
  PutDoubles(out, p.gamma().Flat());
  PutDoubles(out, p.s0());
  PutDoubles(out, p.alpha());
  PutDoubles(out, p.d0());
  PutDoubles(out, p.beta());
  PutDoubles(out, p.s_lo());
  PutDoubles(out, p.s_hi());
  PutDoubles(out, p.d_lo());
  PutDoubles(out, p.d_hi());
  PutU32(out, support::Crc32(out));
  return out;
}

DecodedRequest DecodeRequestFrame(std::string_view bytes) {
  // Same rejection order as the checkpoint codec: magic, version, CRC,
  // then fields — so "wrong protocol" / "incompatible revision" /
  // "corrupt" are distinguishable from the error text alone.
  if (bytes.size() < sizeof(kMagic) + 2 * sizeof(std::uint32_t) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    return Fail("not a SEA solve frame (bad magic or too short)");
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
  if (version != kProtocolVersion)
    return Fail("solve frame version " + std::to_string(version) +
                "; this server speaks " + std::to_string(kProtocolVersion));
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  if (stored_crc !=
      support::Crc32(bytes.data(), bytes.size() - sizeof(stored_crc)))
    return Fail("CRC mismatch (corrupt or truncated solve frame)");

  ByteReader r(bytes.substr(
      sizeof(kMagic) + sizeof(std::uint32_t),
      bytes.size() - sizeof(kMagic) - 2 * sizeof(std::uint32_t)));
  std::uint32_t mode = 0, criterion = 0, flags = 0;
  std::uint64_t m = 0, n = 0;
  SolveRequest req;
  std::vector<double> x0, gamma;
  Vector s0, alpha, d0, beta, s_lo, s_hi, d_lo, d_hi;
  const bool parsed =
      r.GetU32(&mode) && r.GetU32(&criterion) && r.GetU32(&flags) &&
      r.GetU64(&m) && r.GetU64(&n) && r.GetF64(&req.epsilon) &&
      r.GetF64(&req.time_budget_seconds) && r.GetU64(&req.max_iterations) &&
      r.GetDoubles(&x0) && r.GetDoubles(&gamma) && r.GetDoubles(&s0) &&
      r.GetDoubles(&alpha) && r.GetDoubles(&d0) && r.GetDoubles(&beta) &&
      r.GetDoubles(&s_lo) && r.GetDoubles(&s_hi) && r.GetDoubles(&d_lo) &&
      r.GetDoubles(&d_hi);
  if (!parsed || r.Remaining() != 0)
    return Fail("inconsistent solve frame field lengths");
  if (!ValidEnumRanges(mode, criterion))
    return Fail("solve frame names an unknown mode or criterion");
  if (!SaneScalars(req.epsilon, req.time_budget_seconds, m, n))
    return Fail("solve frame scalars out of range (epsilon/budget/shape)");
  req.criterion = static_cast<StopCriterion>(criterion);
  req.want_multipliers = (flags & kFlagWantMultipliers) != 0;
  return Assemble(static_cast<TotalsMode>(mode), static_cast<std::size_t>(m),
                  static_cast<std::size_t>(n), std::move(x0), std::move(gamma),
                  std::move(s0), std::move(alpha), std::move(d0),
                  std::move(beta), std::move(s_lo), std::move(s_hi),
                  std::move(d_lo), std::move(d_hi), std::move(req));
}

std::string EncodeRequestJson(const SolveRequest& req) {
  const DiagonalProblem& p = req.problem;
  const auto arr = [](std::span<const double> v) {
    obs::JsonArr a;
    for (double x : v) a.Add(x);
    return a.Str();
  };
  obs::JsonObj doc;
  doc.Field("mode", ToString(p.mode()))
      .Field("criterion", ToString(req.criterion))
      .Field("epsilon", req.epsilon)
      .Field("time_budget_seconds", req.time_budget_seconds)
      .Field("max_iterations", req.max_iterations)
      .Field("want_multipliers", req.want_multipliers)
      .Field("m", static_cast<std::uint64_t>(p.m()))
      .Field("n", static_cast<std::uint64_t>(p.n()))
      .Raw("x0", arr(p.x0().Flat()))
      .Raw("gamma", arr(p.gamma().Flat()))
      .Raw("s0", arr(p.s0()))
      .Raw("alpha", arr(p.alpha()))
      .Raw("d0", arr(p.d0()))
      .Raw("beta", arr(p.beta()))
      .Raw("s_lo", arr(p.s_lo()))
      .Raw("s_hi", arr(p.s_hi()))
      .Raw("d_lo", arr(p.d_lo()))
      .Raw("d_hi", arr(p.d_hi()));
  return doc.Str();
}

DecodedRequest DecodeRequestJson(const std::string& body) {
  std::vector<std::pair<std::string, std::string>> fields;
  try {
    fields = obs::JsonObjectFields(body);
  } catch (const std::exception& e) {
    return Fail(std::string("malformed JSON request: ") + e.what());
  }
  std::string mode_name = "fixed", criterion_name = "residual-rel";
  std::uint64_t m = 0, n = 0;
  SolveRequest req;
  std::vector<double> x0, gamma;
  Vector s0, alpha, d0, beta, s_lo, s_hi, d_lo, d_hi;
  const auto unquote = [](const std::string& v) {
    return v.size() >= 2 && v.front() == '"' ? v.substr(1, v.size() - 2) : v;
  };
  for (const auto& [key, value] : fields) {
    if (key == "mode") {
      mode_name = unquote(value);
    } else if (key == "criterion") {
      criterion_name = unquote(value);
    } else if (key == "epsilon") {
      req.epsilon = std::atof(value.c_str());
    } else if (key == "time_budget_seconds") {
      req.time_budget_seconds = std::atof(value.c_str());
    } else if (key == "max_iterations") {
      req.max_iterations =
          static_cast<std::uint64_t>(std::atoll(value.c_str()));
    } else if (key == "want_multipliers") {
      req.want_multipliers = value == "true";
    } else if (key == "m") {
      m = static_cast<std::uint64_t>(std::atoll(value.c_str()));
    } else if (key == "n") {
      n = static_cast<std::uint64_t>(std::atoll(value.c_str()));
    } else if (key == "x0") {
      x0 = obs::JsonNumberArray(value);
    } else if (key == "gamma") {
      gamma = obs::JsonNumberArray(value);
    } else if (key == "s0") {
      s0 = obs::JsonNumberArray(value);
    } else if (key == "alpha") {
      alpha = obs::JsonNumberArray(value);
    } else if (key == "d0") {
      d0 = obs::JsonNumberArray(value);
    } else if (key == "beta") {
      beta = obs::JsonNumberArray(value);
    } else if (key == "s_lo") {
      s_lo = obs::JsonNumberArray(value);
    } else if (key == "s_hi") {
      s_hi = obs::JsonNumberArray(value);
    } else if (key == "d_lo") {
      d_lo = obs::JsonNumberArray(value);
    } else if (key == "d_hi") {
      d_hi = obs::JsonNumberArray(value);
    }
    // Unknown fields are ignored (append-only schema tolerance).
  }
  TotalsMode mode;
  if (mode_name == "fixed") {
    mode = TotalsMode::kFixed;
  } else if (mode_name == "elastic") {
    mode = TotalsMode::kElastic;
  } else if (mode_name == "sam") {
    mode = TotalsMode::kSam;
  } else if (mode_name == "interval") {
    mode = TotalsMode::kInterval;
  } else {
    return Fail("unknown mode '" + mode_name + "'");
  }
  if (criterion_name == "x-change") {
    req.criterion = StopCriterion::kXChange;
  } else if (criterion_name == "residual-abs") {
    req.criterion = StopCriterion::kResidualAbs;
  } else if (criterion_name == "residual-rel") {
    req.criterion = StopCriterion::kResidualRel;
  } else {
    return Fail("unknown criterion '" + criterion_name + "'");
  }
  if (!SaneScalars(req.epsilon, req.time_budget_seconds, m, n))
    return Fail("JSON request scalars out of range (epsilon/budget/shape)");
  return Assemble(mode, static_cast<std::size_t>(m),
                  static_cast<std::size_t>(n), std::move(x0), std::move(gamma),
                  std::move(s0), std::move(alpha), std::move(d0),
                  std::move(beta), std::move(s_lo), std::move(s_hi),
                  std::move(d_lo), std::move(d_hi), std::move(req));
}

DecodedRequest DecodeRequest(const std::string& body) {
  for (char c : body) {
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') continue;
    if (c == '{') return DecodeRequestJson(body);
    break;
  }
  return DecodeRequestFrame(body);
}

}  // namespace sea::serve
