#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/extrapolation.hpp"
#include "problems/diagonal_problem.hpp"
#include "support/byte_io.hpp"
#include "support/crc32.hpp"
#include "support/hash.hpp"

namespace sea {

namespace {

constexpr char kMagic[8] = {'S', 'E', 'A', 'C', 'K', 'P', 'T', '\0'};

using support::ByteReader;
using support::PutDoubles;
using support::PutF64;
using support::PutU32;
using support::PutU64;

CheckpointLoadResult Fail(DiagnosisCode code, std::string message) {
  CheckpointLoadResult r;
  r.diagnosis = Diagnosis{code, Diagnosis::kNoIndex, Diagnosis::kNoIndex,
                          std::move(message)};
  return r;
}

}  // namespace

std::string EncodeCheckpoint(const CheckpointState& s) {
  std::string out;
  out.reserve(192 + sizeof(double) * (s.lambda.size() + s.mu.size() +
                                      s.snapshot.size() + s.accel_f.size() +
                                      s.accel_g.size() + s.accel_df.size() +
                                      s.accel_dg.size()) +
              s.recovery_rungs.size());
  out.append(kMagic, sizeof(kMagic));
  PutU32(out, kCheckpointVersion);
  PutU32(out, static_cast<std::uint32_t>(s.criterion));
  PutU64(out, s.fingerprint);
  PutU64(out, s.m);
  PutU64(out, s.n);
  PutU64(out, s.iteration);
  PutU64(out, s.checks_compared);
  PutU64(out, s.stall_streak);
  PutF64(out, s.stall_prev);
  PutF64(out, s.final_residual);
  out.push_back(s.have_snapshot ? '\1' : '\0');
  out.push_back(static_cast<char>(s.rung));
  PutU64(out, s.rung_attempts);
  PutU64(out, s.damp_iters_left);
  PutU64(out, s.recovered_count);
  PutU64(out, s.recovery_rungs.size());
  out.append(reinterpret_cast<const char*>(s.recovery_rungs.data()),
             s.recovery_rungs.size());
  PutDoubles(out, s.lambda);
  PutDoubles(out, s.mu);
  PutDoubles(out, s.snapshot);
  PutU64(out, s.extrapolations_accepted);
  PutU64(out, s.extrapolations_rejected);
  PutF64(out, s.accel_zeta);
  PutDoubles(out, s.accel_f);
  PutDoubles(out, s.accel_g);
  PutDoubles(out, s.accel_df);
  PutDoubles(out, s.accel_dg);
  PutU32(out, support::Crc32(out));
  return out;
}

CheckpointLoadResult DecodeCheckpoint(std::string_view bytes) {
  // Order matters: magic identifies the file family, version decides
  // whether this build can read it at all, the CRC separates "incompatible
  // revision" from "corrupt or truncated", and only then are fields parsed.
  if (bytes.size() < sizeof(kMagic) + 2 * sizeof(std::uint32_t) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    return Fail(DiagnosisCode::kCheckpointMalformed,
                "not a SEA checkpoint (bad magic or too short)");
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
  if (version != kCheckpointVersion) {
    std::ostringstream msg;
    msg << "checkpoint format version " << version << "; this build reads "
        << kCheckpointVersion;
    return Fail(DiagnosisCode::kCheckpointVersionSkew, msg.str());
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  const std::uint32_t computed_crc =
      support::Crc32(bytes.data(), bytes.size() - sizeof(stored_crc));
  if (stored_crc != computed_crc)
    return Fail(DiagnosisCode::kCheckpointMalformed,
                "CRC mismatch (corrupt or truncated checkpoint)");

  ByteReader r(bytes.substr(sizeof(kMagic) + sizeof(std::uint32_t),
                            bytes.size() - sizeof(kMagic) -
                                2 * sizeof(std::uint32_t)));
  CheckpointLoadResult out;
  CheckpointState& s = out.state;
  std::uint32_t criterion = 0;
  std::uint8_t have_snapshot = 0;
  std::uint8_t rung = 0;
  const bool parsed =
      r.GetU32(&criterion) && r.GetU64(&s.fingerprint) && r.GetU64(&s.m) &&
      r.GetU64(&s.n) && r.GetU64(&s.iteration) &&
      r.GetU64(&s.checks_compared) && r.GetU64(&s.stall_streak) &&
      r.GetF64(&s.stall_prev) && r.GetF64(&s.final_residual) &&
      r.GetU8(&have_snapshot) && r.GetU8(&rung) &&
      r.GetU64(&s.rung_attempts) && r.GetU64(&s.damp_iters_left) &&
      r.GetU64(&s.recovered_count) && r.GetBytes(&s.recovery_rungs) &&
      r.GetDoubles(&s.lambda) && r.GetDoubles(&s.mu) &&
      r.GetDoubles(&s.snapshot) && r.GetU64(&s.extrapolations_accepted) &&
      r.GetU64(&s.extrapolations_rejected) && r.GetF64(&s.accel_zeta) &&
      r.GetDoubles(&s.accel_f) && r.GetDoubles(&s.accel_g) &&
      r.GetDoubles(&s.accel_df) && r.GetDoubles(&s.accel_dg);
  if (!parsed || r.Remaining() != 0 || s.accel_g.size() != s.accel_f.size() ||
      s.accel_dg.size() != s.accel_df.size())
    return Fail(DiagnosisCode::kCheckpointMalformed,
                "inconsistent checkpoint field lengths");
  if (criterion > static_cast<std::uint32_t>(StopCriterion::kResidualRel))
    return Fail(DiagnosisCode::kCheckpointMalformed,
                "checkpoint names an unknown stop criterion");
  s.criterion = static_cast<StopCriterion>(criterion);
  s.have_snapshot = have_snapshot != 0;
  s.rung = rung;
  return out;
}

CheckpointLoadResult LoadCheckpoint(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.is_open())
    return Fail(DiagnosisCode::kCheckpointMalformed,
                "cannot open checkpoint file: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  if (f.bad())
    return Fail(DiagnosisCode::kCheckpointMalformed,
                "cannot read checkpoint file: " + path);
  return DecodeCheckpoint(buf.str());
}

std::optional<Diagnosis> ValidateCheckpointFor(const CheckpointState& state,
                                               std::uint64_t fingerprint,
                                               std::size_t m, std::size_t n,
                                               StopCriterion criterion) {
  const auto mismatch = [](std::string message) {
    return Diagnosis{DiagnosisCode::kCheckpointMismatch, Diagnosis::kNoIndex,
                     Diagnosis::kNoIndex, std::move(message)};
  };
  if (state.m != m || state.n != n) {
    std::ostringstream msg;
    msg << "checkpoint is for a " << state.m << "x" << state.n
        << " problem; this problem is " << m << "x" << n;
    return mismatch(msg.str());
  }
  if (state.fingerprint != fingerprint) {
    std::ostringstream msg;
    msg << "checkpoint fingerprint " << std::hex << state.fingerprint
        << " does not match this problem's " << fingerprint
        << " (different data)";
    return mismatch(msg.str());
  }
  if (state.criterion != criterion) {
    std::ostringstream msg;
    msg << "checkpoint was taken under criterion "
        << ToString(state.criterion) << "; this solve uses "
        << ToString(criterion);
    return mismatch(msg.str());
  }
  if (state.lambda.size() != m || state.mu.size() != n)
    return mismatch("checkpoint multiplier lengths disagree with its shape");
  const std::size_t base = state.accel_f.size();
  if ((base != 0 && base != n) || (base == 0 && !state.accel_df.empty()) ||
      state.accel_df.size() % std::max<std::size_t>(n, 1) != 0 ||
      state.accel_df.size() > AndersonWindow::kDepth * n)
    return mismatch("checkpoint extrapolation window disagrees with its shape");
  return std::nullopt;
}

ProblemKeys FingerprintProblemKeys(const DiagonalProblem& p) {
  // The two chains differ in their tag, share the shape and the O(mn) data,
  // and end in their own tails.
  support::Fnv1a full, structure;
  full.MixU64('D');       // dense-problem tag; sparse uses 'S'
  structure.MixU64('d');  // lowercase: disjoint from the full dense print
  support::Fnv1aPair both(full, structure);
  both.MixU64(static_cast<std::uint64_t>(p.mode()));
  both.MixU64(p.m());
  both.MixU64(p.n());
  both.MixDoubles(p.x0().Flat());
  both.MixDoubles(p.gamma().Flat());
  full = both.first();
  full.MixDoubles(p.s0());
  full.MixDoubles(p.alpha());
  full.MixDoubles(p.d0());
  full.MixDoubles(p.beta());
  full.MixDoubles(p.s_lo());
  full.MixDoubles(p.s_hi());
  full.MixDoubles(p.d_lo());
  full.MixDoubles(p.d_hi());
  structure = both.second();
  structure.MixDoubles(p.alpha());
  structure.MixDoubles(p.beta());
  return {full.value(), structure.value()};
}

std::uint64_t FingerprintProblem(const DiagonalProblem& p) {
  return FingerprintProblemKeys(p).full;
}

namespace {

void MixPattern(support::Fnv1a& h, const SparseMatrix& a) {
  h.MixU64(a.rows());
  h.MixU64(a.nnz());
  for (std::size_t p : a.RowPtr()) h.MixU64(p);
  for (std::size_t c : a.ColIdx()) h.MixU64(c);
  h.MixDoubles(a.Values());
}

}  // namespace

std::uint64_t FingerprintProblem(const SparseDiagonalProblem& p) {
  support::Fnv1a h;
  h.MixBytes("S", 1);  // domain-separate from the dense fingerprint
  h.MixU64(static_cast<std::uint64_t>(p.mode()));
  h.MixU64(p.m());
  h.MixU64(p.n());
  MixPattern(h, p.x0());
  MixPattern(h, p.gamma());
  h.MixDoubles(p.s0());
  h.MixDoubles(p.alpha());
  h.MixDoubles(p.d0());
  h.MixDoubles(p.beta());
  if (p.mode() == TotalsMode::kInterval) {
    h.MixDoubles(p.s_lo());
    h.MixDoubles(p.s_hi());
    h.MixDoubles(p.d_lo());
    h.MixDoubles(p.d_hi());
  }
  return h.value();
}

bool CheckpointWriter::Write(const CheckpointState& state) {
  if (last_written_iteration_.has_value() &&
      *last_written_iteration_ == state.iteration)
    return true;
  const std::string bytes = EncodeCheckpoint(state);
  const bool ok = writer_.Write(
      path_, [&](std::ostream& f) { f.write(bytes.data(), bytes.size()); });
  if (ok) {
    ++writes_;
    last_written_iteration_ = state.iteration;
  } else {
    ++write_failures_;
  }
  return ok;
}

}  // namespace sea
