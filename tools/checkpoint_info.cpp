// checkpoint_info — inspect a sea_solve resume checkpoint
// (core/checkpoint.hpp; docs/ROBUSTNESS.md).
//
// Usage:
//   checkpoint_info <checkpoint-file> [--json]
//
// Prints the checkpoint header (format version, problem fingerprint, shape,
// stop criterion), engine progress, stall-detector and recovery-ladder
// state, the extrapolation window's depth and tally, and FNV-1a digests of
// the iterate vectors — the digests let two
// checkpoints (or a checkpoint and a reference run) be compared for
// bit-identity without dumping megabytes of doubles. --json emits the same
// facts as one JSON document for scripting.
//
// A malformed, truncated, version-skewed, or CRC-corrupt file is reported
// as a structured diagnosis on stderr and exit code 3 — never a crash
// (the loader is fuzzed on hostile bytes; see tests/test_fuzz.cpp).
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <string>

#include "core/checkpoint.hpp"
#include "obs/json_export.hpp"
#include "problems/validate.hpp"
#include "support/hash.hpp"

namespace {

using namespace sea;

std::string Hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

std::uint64_t Digest(const std::vector<double>& v) {
  support::Fnv1a h;
  h.MixDoubles(v);
  return h.value();
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (path.empty() && arg.rfind("--", 0) != 0) {
      path = arg;
    } else {
      std::cerr << "usage: " << argv[0] << " <checkpoint-file> [--json]\n";
      return 2;
    }
  }
  if (path.empty()) {
    std::cerr << "usage: " << argv[0] << " <checkpoint-file> [--json]\n";
    return 2;
  }

  const CheckpointLoadResult loaded = LoadCheckpoint(path);
  if (!loaded.ok()) {
    std::cerr << "error: " << ToString(loaded.diagnosis->code) << ": "
              << loaded.diagnosis->message << '\n';
    return 3;
  }
  const CheckpointState& st = loaded.state;
  // Pairs in the Anderson window (core/extrapolation.hpp): depth x n values.
  const std::uint64_t window_depth =
      st.n == 0 ? 0 : st.accel_df.size() / st.n;

  if (json) {
    obs::JsonArr rungs;
    for (std::uint8_t rung : st.recovery_rungs)
      rungs.Add(static_cast<std::uint64_t>(rung));
    obs::JsonObj doc;
    doc.Field("version", static_cast<std::uint64_t>(kCheckpointVersion))
        .Field("fingerprint", Hex64(st.fingerprint))
        .Field("m", st.m)
        .Field("n", st.n)
        .Field("criterion", ToString(st.criterion))
        .Field("iteration", st.iteration)
        .Field("checks_compared", st.checks_compared)
        .Field("final_residual", st.final_residual)
        .Field("stall_streak", st.stall_streak)
        .Field("stall_prev", st.stall_prev)
        .Field("rung", static_cast<std::uint64_t>(st.rung))
        .Field("rung_attempts", st.rung_attempts)
        .Field("damp_iters_left", st.damp_iters_left)
        .Field("recovered_count", st.recovered_count)
        .Raw("recovery_rungs", rungs.Str())
        .Field("window_depth", window_depth)
        .Field("extrapolations_accepted", st.extrapolations_accepted)
        .Field("extrapolations_rejected", st.extrapolations_rejected)
        .Field("have_snapshot", st.have_snapshot)
        .Field("lambda_len", static_cast<std::uint64_t>(st.lambda.size()))
        .Field("mu_len", static_cast<std::uint64_t>(st.mu.size()))
        .Field("snapshot_len", static_cast<std::uint64_t>(st.snapshot.size()))
        .Field("lambda_digest", Hex64(Digest(st.lambda)))
        .Field("mu_digest", Hex64(Digest(st.mu)))
        .Field("snapshot_digest", Hex64(Digest(st.snapshot)));
    std::cout << doc.Str() << '\n';
    return 0;
  }

  std::cout << "checkpoint:      " << path << '\n'
            << "format version:  " << kCheckpointVersion << '\n'
            << "fingerprint:     " << Hex64(st.fingerprint) << '\n'
            << "problem:         " << st.m << " x " << st.n << " ("
            << ToString(st.criterion) << ")\n"
            << "iteration:       " << st.iteration << '\n'
            << "checks compared: " << st.checks_compared << '\n'
            << "last measure:    " << st.final_residual << '\n'
            << "stall streak:    " << st.stall_streak
            << " (prev measure " << st.stall_prev << ")\n"
            << "recovery:        rung " << static_cast<unsigned>(st.rung)
            << ", " << st.rung_attempts << " attempts, "
            << st.damp_iters_left << " damped iters left\n"
            << "rescues so far:  " << st.recovered_count << " (rungs:";
  for (std::uint8_t rung : st.recovery_rungs)
    std::cout << ' ' << static_cast<unsigned>(rung);
  std::cout << ")\n"
            << "extrapolation:   window depth " << window_depth << ", "
            << st.extrapolations_accepted << " accepted, "
            << st.extrapolations_rejected << " rejected\n"
            << "lambda:          " << st.lambda.size() << " values, digest "
            << Hex64(Digest(st.lambda)) << '\n'
            << "mu:              " << st.mu.size() << " values, digest "
            << Hex64(Digest(st.mu)) << '\n'
            << "snapshot:        "
            << (st.have_snapshot ? std::to_string(st.snapshot.size()) +
                                       " values, digest " +
                                       Hex64(Digest(st.snapshot))
                                 : std::string("none"))
            << '\n';
  return 0;
}
