// Checkpoint/resume suite (core/checkpoint.hpp; docs/ROBUSTNESS.md).
//
// The durability contract under test: a checkpoint captures the complete
// cross-iteration state of the engine, so a run interrupted at any compared
// check and resumed from disk finishes **bit-identically** to the
// uninterrupted run — same iterate bytes, same iteration count, same final
// measure — at any thread count and sort policy, for the dense and the
// sparse backend, under the residual and the kXChange criteria. The loader
// side: hostile bytes (truncation, corruption, version skew, wrong problem)
// come back as structured diagnoses, never crashes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/diagonal_sea.hpp"
#include "core/extrapolation.hpp"
#include "core/engine_observer.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "problems/validate.hpp"
#include "sparse/sparse_sea.hpp"
#include "support/hash.hpp"

namespace sea {
namespace {

// Bitwise equality: `==` would also pass for -0.0 vs 0.0; the resume proof
// is about identical bytes, so compare the representations.
bool BitEqual(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Large enough that the solve takes dozens of iterations — an interruption
// point in the middle of the run exists for every configuration.
DiagonalProblem DenseFixedProblem() {
  DenseMatrix x0(6, 5), gamma(6, 5);
  double v = 1.0;
  for (double& c : x0.Flat()) c = v++;
  v = 0.0;
  for (double& c : gamma.Flat()) {
    v += 1.0;
    c = 0.4 + 0.31 * (v * v / 30.0);
  }
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& t : s0) t *= 1.3;
  for (double& t : d0) t *= 1.3;
  return DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
}

SparseDiagonalProblem SparseFixedProblem() {
  const std::size_t m = 6, n = 7;
  DenseMatrix x0(m, n, 0.0), gamma(m, n, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      // ~2/3 dense pattern; the j % m == i band keeps every row and column
      // covered so the totals stay reachable on the pattern.
      if ((i * 3 + j * 5) % 4 == 1 && j % m != i) continue;
      x0(i, j) = 1.0 + static_cast<double>(i + 2 * j);
      gamma(i, j) = 0.5 + 0.07 * static_cast<double>(i * n + j);
    }
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& t : s0) t *= 1.25;
  for (double& t : d0) t *= 1.25;
  return SparseDiagonalProblem::MakeFixed(SparseMatrix::FromDense(x0),
                                          SparseMatrix::FromDense(gamma), s0,
                                          d0);
}

// Elastic versions of the two problems above: their solves extrapolate
// (core/extrapolation.hpp), so the checkpoint carries a window too.
DiagonalProblem DenseElasticProblem() {
  const auto f = DenseFixedProblem();
  Vector alpha(f.m()), beta(f.n());
  for (std::size_t i = 0; i < f.m(); ++i) alpha[i] = 0.2 + 0.15 * double(i);
  for (std::size_t j = 0; j < f.n(); ++j) beta[j] = 1.1 - 0.17 * double(j);
  return DiagonalProblem::MakeElastic(f.x0(), f.gamma(), f.s0(), alpha,
                                      f.d0(), beta);
}

SparseDiagonalProblem SparseElasticProblem() {
  const auto f = SparseFixedProblem();
  Vector alpha(f.m()), beta(f.n());
  for (std::size_t i = 0; i < f.m(); ++i) alpha[i] = 0.3 + 0.11 * double(i);
  for (std::size_t j = 0; j < f.n(); ++j) beta[j] = 0.9 - 0.09 * double(j);
  return SparseDiagonalProblem::MakeElastic(f.x0(), f.gamma(), f.s0(), alpha,
                                            f.d0(), beta);
}

SeaOptions BaseOptions() {
  SeaOptions o;
  o.epsilon = 1e-10;
  o.criterion = StopCriterion::kResidualAbs;
  return o;
}

CheckpointState NonTrivialState() {
  CheckpointState st;
  st.fingerprint = 0x0123456789abcdefull;
  st.m = 3;
  st.n = 4;
  st.criterion = StopCriterion::kXChange;
  st.iteration = 42;
  st.checks_compared = 21;
  st.final_residual = 3.5e-7;
  st.stall_streak = 5;
  st.stall_prev = 4.0e-7;
  st.have_snapshot = true;
  st.rung = 2;
  st.rung_attempts = 1;
  st.damp_iters_left = 6;
  st.recovered_count = 3;
  st.recovery_rungs = {1, 1, 2};
  st.lambda = {1.5, -2.25, 0.0};
  st.mu = {0.125, -0.5, 3.75, -0.0};
  st.snapshot = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  st.extrapolations_accepted = 17;
  st.extrapolations_rejected = 4;
  st.accel_zeta = -2.5e6;
  st.accel_f = {0.5, -1.5, 2.5, -0.0};
  st.accel_g = {4.0, 3.0, -2.0, 1.0};
  st.accel_df = {0.1, 0.2, 0.3, 0.4, -0.1, -0.2, -0.3, -0.4};
  st.accel_dg = {1.1, 1.2, 1.3, 1.4, -1.1, -1.2, -1.3, -1.4};
  return st;
}

// ---------------------------------------------------------------------------
// Serialization round trip + the structured-diagnosis loader contract.

TEST(CheckpointCodec, RoundTripPreservesEveryField) {
  const CheckpointState st = NonTrivialState();
  const auto loaded = DecodeCheckpoint(EncodeCheckpoint(st));
  ASSERT_TRUE(loaded.ok());
  const CheckpointState& r = loaded.state;
  EXPECT_EQ(r.fingerprint, st.fingerprint);
  EXPECT_EQ(r.m, st.m);
  EXPECT_EQ(r.n, st.n);
  EXPECT_EQ(r.criterion, st.criterion);
  EXPECT_EQ(r.iteration, st.iteration);
  EXPECT_EQ(r.checks_compared, st.checks_compared);
  EXPECT_EQ(r.final_residual, st.final_residual);
  EXPECT_EQ(r.stall_streak, st.stall_streak);
  EXPECT_EQ(r.stall_prev, st.stall_prev);
  EXPECT_EQ(r.have_snapshot, st.have_snapshot);
  EXPECT_EQ(r.rung, st.rung);
  EXPECT_EQ(r.rung_attempts, st.rung_attempts);
  EXPECT_EQ(r.damp_iters_left, st.damp_iters_left);
  EXPECT_EQ(r.recovered_count, st.recovered_count);
  EXPECT_EQ(r.recovery_rungs, st.recovery_rungs);
  EXPECT_TRUE(BitEqual(r.lambda, st.lambda));
  EXPECT_TRUE(BitEqual(r.mu, st.mu));
  EXPECT_TRUE(BitEqual(r.snapshot, st.snapshot));
  EXPECT_EQ(r.extrapolations_accepted, st.extrapolations_accepted);
  EXPECT_EQ(r.extrapolations_rejected, st.extrapolations_rejected);
  EXPECT_EQ(r.accel_zeta, st.accel_zeta);
  EXPECT_TRUE(BitEqual(r.accel_f, st.accel_f));
  EXPECT_TRUE(BitEqual(r.accel_g, st.accel_g));
  EXPECT_TRUE(BitEqual(r.accel_df, st.accel_df));
  EXPECT_TRUE(BitEqual(r.accel_dg, st.accel_dg));
}

TEST(CheckpointCodec, RoundTripPreservesNonFiniteStallPrev) {
  // stall_prev is +inf until the first compared check; a checkpoint written
  // before one must restore that sentinel exactly.
  CheckpointState st = NonTrivialState();
  st.stall_prev = std::numeric_limits<double>::infinity();
  const auto loaded = DecodeCheckpoint(EncodeCheckpoint(st));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(std::isinf(loaded.state.stall_prev));
}

TEST(CheckpointCodec, EncodedTrailerIsPinned) {
  // The CRC trailer of a known encoding, as earlier releases wrote it: a
  // change to the checksum (or to the byte stream it covers) shows here.
  const std::string bytes = EncodeCheckpoint(NonTrivialState());
  std::uint32_t trailer = 0;
  std::memcpy(&trailer, bytes.data() + bytes.size() - sizeof(trailer),
              sizeof(trailer));
  EXPECT_EQ(trailer, 0x48838477u);
}

TEST(CheckpointCodec, RejectsBadMagic) {
  std::string bytes = EncodeCheckpoint(NonTrivialState());
  bytes[0] = 'X';
  const auto loaded = DecodeCheckpoint(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.diagnosis->code, DiagnosisCode::kCheckpointMalformed);
}

TEST(CheckpointCodec, RejectsEveryTruncationWithDiagnosis) {
  const std::string bytes = EncodeCheckpoint(NonTrivialState());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto loaded =
        DecodeCheckpoint(std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(loaded.ok()) << "prefix length " << len;
    EXPECT_EQ(loaded.diagnosis->code, DiagnosisCode::kCheckpointMalformed)
        << "prefix length " << len;
  }
}

TEST(CheckpointCodec, CrcCatchesEverySingleByteCorruption) {
  const std::string bytes = EncodeCheckpoint(NonTrivialState());
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    const auto loaded = DecodeCheckpoint(bad);
    EXPECT_FALSE(loaded.ok()) << "corrupted byte " << pos;
  }
}

TEST(CheckpointCodec, RejectsTrailingBytes) {
  std::string bytes = EncodeCheckpoint(NonTrivialState());
  bytes += '\0';
  EXPECT_FALSE(DecodeCheckpoint(bytes).ok());
}

TEST(CheckpointCodec, VersionSkewIsItsOwnDiagnosis) {
  // The version field sits right after the 8-byte magic (little-endian u32).
  // Version 1 predates the extrapolation fields; version 3 is a future one.
  for (char version : {'\1', '\3'}) {
    std::string bytes = EncodeCheckpoint(NonTrivialState());
    ASSERT_EQ(bytes[8], static_cast<char>(kCheckpointVersion));
    bytes[8] = version;
    const auto loaded = DecodeCheckpoint(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.diagnosis->code, DiagnosisCode::kCheckpointVersionSkew);
  }
}

TEST(CheckpointCodec, MismatchedWindowLengthsAreMalformed) {
  CheckpointState st = NonTrivialState();
  st.accel_dg.pop_back();
  const auto loaded = DecodeCheckpoint(EncodeCheckpoint(st));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.diagnosis->code, DiagnosisCode::kCheckpointMalformed);
}

TEST(CheckpointCodec, LoadOfMissingFileIsMalformed) {
  const auto loaded =
      LoadCheckpoint(::testing::TempDir() + "/no_such_checkpoint.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.diagnosis->code, DiagnosisCode::kCheckpointMalformed);
}

TEST(CheckpointCodec, ValidateRejectsEveryIdentityMismatch) {
  const CheckpointState st = NonTrivialState();
  EXPECT_FALSE(ValidateCheckpointFor(st, st.fingerprint, st.m, st.n,
                                     st.criterion)
                   .has_value());
  const auto wrong_fp =
      ValidateCheckpointFor(st, st.fingerprint + 1, st.m, st.n, st.criterion);
  ASSERT_TRUE(wrong_fp.has_value());
  EXPECT_EQ(wrong_fp->code, DiagnosisCode::kCheckpointMismatch);
  EXPECT_TRUE(
      ValidateCheckpointFor(st, st.fingerprint, st.m + 1, st.n, st.criterion)
          .has_value());
  EXPECT_TRUE(
      ValidateCheckpointFor(st, st.fingerprint, st.m, st.n + 1, st.criterion)
          .has_value());
  EXPECT_TRUE(ValidateCheckpointFor(st, st.fingerprint, st.m, st.n,
                                    StopCriterion::kResidualRel)
                  .has_value());
  CheckpointState deep = st;  // one pair more than a window holds
  deep.accel_df.resize((AndersonWindow::kDepth + 1) * st.n, 0.0);
  deep.accel_dg = deep.accel_df;
  EXPECT_TRUE(ValidateCheckpointFor(deep, st.fingerprint, st.m, st.n,
                                    st.criterion)
                  .has_value());
}

TEST(CheckpointCodec, FingerprintSeparatesProblems) {
  const auto base = DenseFixedProblem();
  const std::uint64_t fp = FingerprintProblem(base);
  EXPECT_EQ(fp, FingerprintProblem(DenseFixedProblem()));  // deterministic
  DenseMatrix x0(6, 5), gamma(6, 5);
  double v = 1.0;
  for (double& c : x0.Flat()) c = v++;
  v = 0.0;
  for (double& c : gamma.Flat()) {
    v += 1.0;
    c = 0.4 + 0.31 * (v * v / 30.0);
  }
  x0(2, 3) += 1e-9;  // one cell nudged: different problem, different print
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& t : s0) t *= 1.3;
  for (double& t : d0) t *= 1.3;
  EXPECT_NE(fp, FingerprintProblem(
                    DiagonalProblem::MakeFixed(x0, gamma, s0, d0)));
  // Dense and sparse fingerprints are domain-separated by the tag byte.
  EXPECT_NE(FingerprintProblem(SparseFixedProblem()), fp);
  // Pinned: checkpoints and warm-cache keys written before stay valid, so
  // a change to either byte stream must show here.
  EXPECT_EQ(fp, 0x2bcb566becd87108u);
  EXPECT_EQ(FingerprintProblem(SparseFixedProblem()), 0x953cbe792deb8dc9u);
  EXPECT_EQ(FingerprintProblemKeys(base).structure, 0xa793c2ed925dce60u);

  // Sparse interval problems mix their box bounds: two that differ in one
  // bound only must print differently.
  const auto f = SparseFixedProblem();
  const Vector alpha(f.m(), 1.0), beta(f.n(), 1.0);
  Vector s_lo = f.s0(), s_hi = f.s0(), d_lo = f.d0(), d_hi = f.d0();
  for (double& t : s_lo) t *= 0.9;
  for (double& t : s_hi) t *= 1.1;
  for (double& t : d_lo) t *= 0.9;
  for (double& t : d_hi) t *= 1.1;
  const auto interval = [&](const Vector& hi) {
    return SparseDiagonalProblem::MakeInterval(
        f.x0(), f.gamma(), f.s0(), alpha, s_lo, s_hi, f.d0(), beta, d_lo, hi);
  };
  Vector d_hi_nudged = d_hi;
  d_hi_nudged[2] += 0.5;
  EXPECT_NE(FingerprintProblem(interval(d_hi)),
            FingerprintProblem(interval(d_hi_nudged)));
}

// The two dense prints as separate chains, each over its own byte stream:
// the references the one-pass keys must reproduce.
std::uint64_t SeparateFullPrint(const DiagonalProblem& p) {
  support::Fnv1a h;
  h.MixU64('D');
  h.MixU64(static_cast<std::uint64_t>(p.mode()));
  h.MixU64(p.m());
  h.MixU64(p.n());
  for (const std::span<const double> v :
       {p.x0().Flat(), p.gamma().Flat(), std::span<const double>(p.s0()),
        std::span<const double>(p.alpha()), std::span<const double>(p.d0()),
        std::span<const double>(p.beta()), std::span<const double>(p.s_lo()),
        std::span<const double>(p.s_hi()), std::span<const double>(p.d_lo()),
        std::span<const double>(p.d_hi())})
    h.MixDoubles(v);
  return h.value();
}

std::uint64_t SeparateStructurePrint(const DiagonalProblem& p) {
  support::Fnv1a h;
  h.MixU64('d');
  h.MixU64(static_cast<std::uint64_t>(p.mode()));
  h.MixU64(p.m());
  h.MixU64(p.n());
  for (const std::span<const double> v :
       {p.x0().Flat(), p.gamma().Flat(), std::span<const double>(p.alpha()),
        std::span<const double>(p.beta())})
    h.MixDoubles(v);
  return h.value();
}

TEST(CheckpointCodec, OnePassKeysMatchTheSeparateChains) {
  std::vector<DiagonalProblem> problems;
  for (const std::size_t side : {1u, 4u}) {
    DenseMatrix x0(side, side), gamma(side, side);
    double v = 0.0;
    for (double& c : x0.Flat()) c = 1.5 + (v += 1.0);
    for (double& c : gamma.Flat()) c = 0.25 + 0.125 * (v += 1.0);
    const Vector s0 = x0.RowSums(), d0 = x0.ColSums();
    const Vector alpha(side, 2.0), beta(side, 0.5);
    Vector s_lo = s0, s_hi = s0, d_lo = d0, d_hi = d0;
    for (double& t : s_lo) t *= 0.9;
    for (double& t : s_hi) t *= 1.1;
    for (double& t : d_lo) t *= 0.8;
    for (double& t : d_hi) t *= 1.2;
    problems.push_back(DiagonalProblem::MakeFixed(x0, gamma, s0, d0));
    problems.push_back(
        DiagonalProblem::MakeElastic(x0, gamma, s0, alpha, d0, beta));
    problems.push_back(DiagonalProblem::MakeSam(x0, gamma, s0, alpha));
    problems.push_back(DiagonalProblem::MakeInterval(
        x0, gamma, s0, alpha, s_lo, s_hi, d0, beta, d_lo, d_hi));
  }
  problems.push_back(DenseFixedProblem());
  for (const DiagonalProblem& p : problems) {
    const ProblemKeys keys = FingerprintProblemKeys(p);
    const std::string label =
        std::string(ToString(p.mode())) + " " + std::to_string(p.m()) + "x" +
        std::to_string(p.n());
    EXPECT_EQ(keys.full, SeparateFullPrint(p)) << label;
    EXPECT_EQ(keys.structure, SeparateStructurePrint(p)) << label;
    EXPECT_EQ(keys.full, FingerprintProblem(p)) << label;
    EXPECT_NE(keys.full, keys.structure) << label;
  }
}

TEST(CheckpointWriterUnit, CadenceGateFiresEveryNthCheck) {
  CheckpointWriter w(::testing::TempDir() + "/cadence.bin", 3);
  std::vector<bool> fired;
  for (int i = 0; i < 7; ++i) fired.push_back(w.ShouldWrite());
  EXPECT_EQ(fired, std::vector<bool>(
                       {false, false, true, false, false, true, false}));
}

TEST(CheckpointWriterUnit, DuplicateIterationIsWrittenOnce) {
  CheckpointWriter w(::testing::TempDir() + "/dedup.bin");
  const CheckpointState st = NonTrivialState();
  EXPECT_TRUE(w.Write(st));
  EXPECT_TRUE(w.Write(st));  // same iteration: skipped, still a success
  EXPECT_EQ(w.writes(), 1u);
  CheckpointState next = st;
  next.iteration += 1;
  EXPECT_TRUE(w.Write(next));
  EXPECT_EQ(w.writes(), 2u);
}

// ---------------------------------------------------------------------------
// The resume proof: interrupt mid-run, restore, finish bit-identically.
// Parameterized over thread count — the checkpoint is oblivious to it by
// design. Checkpoints do not store breakpoint orders: the resumed run starts
// with cold orders while the uninterrupted run repairs warm ones; the
// tie-by-index total order makes both clear every market to the same bits.

class ResumeConfig : public ::testing::TestWithParam<std::size_t> {
 protected:
  std::size_t threads() const { return GetParam(); }

  SeaOptions Options(ThreadPool& pool) const {
    SeaOptions o = BaseOptions();
    if (threads() > 1) o.pool = &pool;
    return o;
  }

  std::string CheckpointPath(const char* tag) const {
    return ::testing::TempDir() + "/resume_" + std::string(tag) + "_" +
           std::to_string(threads()) + ".bin";
  }
};

std::string ResumeConfigName(
    const ::testing::TestParamInfo<ResumeConfig::ParamType>& info) {
  return "t" + std::to_string(info.param);
}

TEST_P(ResumeConfig, DenseResumeContinuesBitIdentically) {
  const auto p = DenseFixedProblem();
  ThreadPool pool(threads());
  const SeaOptions base = Options(pool);

  const auto ref = SolveDiagonal(p, base);
  ASSERT_TRUE(ref.result.converged());
  ASSERT_GE(ref.result.iterations, 4u);

  // Interrupt at the midpoint via the iteration cap; the final checkpoint
  // lands at exactly that iteration.
  const std::string path = CheckpointPath("dense");
  CheckpointWriter writer(path);
  SeaOptions interrupted = base;
  interrupted.checkpoint = &writer;
  interrupted.max_iterations = ref.result.iterations / 2;
  const auto partial = SolveDiagonal(p, interrupted);
  EXPECT_EQ(partial.result.status, SolveStatus::kMaxIterations);
  EXPECT_GE(writer.writes(), 1u);
  EXPECT_EQ(writer.write_failures(), 0u);

  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.state.iteration, interrupted.max_iterations);
  EXPECT_LT(loaded.state.iteration, ref.result.iterations);
  EXPECT_FALSE(ValidateCheckpointFor(loaded.state, FingerprintProblem(p),
                                     p.m(), p.n(), base.criterion)
                   .has_value());

  SeaOptions resumed_opts = base;
  resumed_opts.resume = &loaded.state;
  const auto resumed = SolveDiagonal(p, resumed_opts);
  EXPECT_TRUE(resumed.result.converged());
  EXPECT_EQ(resumed.result.iterations, ref.result.iterations);
  EXPECT_EQ(resumed.result.checks_compared, ref.result.checks_compared);
  EXPECT_EQ(resumed.result.final_residual, ref.result.final_residual);
  EXPECT_TRUE(BitEqual(resumed.solution.lambda, ref.solution.lambda));
  EXPECT_TRUE(BitEqual(resumed.solution.mu, ref.solution.mu));
  EXPECT_TRUE(BitEqual(resumed.solution.x.Flat(), ref.solution.x.Flat()));
}

TEST_P(ResumeConfig, SparseResumeContinuesBitIdentically) {
  const auto p = SparseFixedProblem();
  ThreadPool pool(threads());
  const SeaOptions base = Options(pool);

  const auto ref = SolveSparse(p, base);
  ASSERT_TRUE(ref.result.converged());
  ASSERT_GE(ref.result.iterations, 4u);

  const std::string path = CheckpointPath("sparse");
  CheckpointWriter writer(path);
  SeaOptions interrupted = base;
  interrupted.checkpoint = &writer;
  interrupted.max_iterations = ref.result.iterations / 2;
  const auto partial = SolveSparse(p, interrupted);
  EXPECT_EQ(partial.result.status, SolveStatus::kMaxIterations);

  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_LT(loaded.state.iteration, ref.result.iterations);
  EXPECT_FALSE(ValidateCheckpointFor(loaded.state, FingerprintProblem(p),
                                     p.m(), p.n(), base.criterion)
                   .has_value());

  SeaOptions resumed_opts = base;
  resumed_opts.resume = &loaded.state;
  const auto resumed = SolveSparse(p, resumed_opts);
  EXPECT_TRUE(resumed.result.converged());
  EXPECT_EQ(resumed.result.iterations, ref.result.iterations);
  EXPECT_EQ(resumed.result.final_residual, ref.result.final_residual);
  EXPECT_TRUE(BitEqual(resumed.solution.lambda, ref.solution.lambda));
  EXPECT_TRUE(BitEqual(resumed.solution.mu, ref.solution.mu));
}

TEST_P(ResumeConfig, XChangeResumeRestoresTheSnapshot) {
  // kXChange carries extra cross-check state (the previous materialized
  // iterate); the checkpoint must restore it or the first resumed measure
  // diverges from the uninterrupted run.
  const auto p = DenseFixedProblem();
  ThreadPool pool(threads());
  SeaOptions base = Options(pool);
  base.criterion = StopCriterion::kXChange;
  base.epsilon = 1e-9;

  const auto ref = SolveDiagonal(p, base);
  ASSERT_TRUE(ref.result.converged());
  ASSERT_GE(ref.result.iterations, 4u);

  const std::string path = CheckpointPath("xchange");
  CheckpointWriter writer(path);
  SeaOptions interrupted = base;
  interrupted.checkpoint = &writer;
  interrupted.max_iterations = ref.result.iterations / 2;
  const auto partial = SolveDiagonal(p, interrupted);
  EXPECT_EQ(partial.result.status, SolveStatus::kMaxIterations);

  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.state.have_snapshot);
  EXPECT_EQ(loaded.state.snapshot.size(), p.m() * p.n());

  SeaOptions resumed_opts = base;
  resumed_opts.resume = &loaded.state;
  const auto resumed = SolveDiagonal(p, resumed_opts);
  EXPECT_TRUE(resumed.result.converged());
  EXPECT_EQ(resumed.result.iterations, ref.result.iterations);
  EXPECT_EQ(resumed.result.final_residual, ref.result.final_residual);
  EXPECT_TRUE(BitEqual(resumed.solution.lambda, ref.solution.lambda));
  EXPECT_TRUE(BitEqual(resumed.solution.mu, ref.solution.mu));
}

TEST_P(ResumeConfig, SparseXChangeResumeRestoresTheSnapshot) {
  // The sparse snapshot is the transposed pattern's values; the engine
  // records that it exists, the shared backend core saves and restores it.
  const auto p = SparseFixedProblem();
  ThreadPool pool(threads());
  SeaOptions base = Options(pool);
  base.criterion = StopCriterion::kXChange;
  base.epsilon = 1e-9;

  const auto ref = SolveSparse(p, base);
  ASSERT_TRUE(ref.result.converged());
  ASSERT_GE(ref.result.iterations, 4u);

  const std::string path = CheckpointPath("sparse_xchange");
  CheckpointWriter writer(path);
  SeaOptions interrupted = base;
  interrupted.checkpoint = &writer;
  interrupted.max_iterations = ref.result.iterations / 2;
  const auto partial = SolveSparse(p, interrupted);
  EXPECT_EQ(partial.result.status, SolveStatus::kMaxIterations);

  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.state.have_snapshot);
  EXPECT_EQ(loaded.state.snapshot.size(), p.nnz());

  SeaOptions resumed_opts = base;
  resumed_opts.resume = &loaded.state;
  const auto resumed = SolveSparse(p, resumed_opts);
  EXPECT_TRUE(resumed.result.converged());
  EXPECT_EQ(resumed.result.iterations, ref.result.iterations);
  EXPECT_EQ(resumed.result.final_residual, ref.result.final_residual);
  EXPECT_TRUE(BitEqual(resumed.solution.lambda, ref.solution.lambda));
  EXPECT_TRUE(BitEqual(resumed.solution.mu, ref.solution.mu));
  EXPECT_TRUE(
      BitEqual(resumed.solution.x.Values(), ref.solution.x.Values()));
}

// Elastic solves keep an Anderson window across iterations; a checkpoint
// taken once it holds its full kDepth pairs must carry it, or the resumed
// run extrapolates from an empty window and leaves the reference's
// trajectory. The interruption is the latest iteration before convergence
// (the reference took `iterations`) whose checkpoint holds a full window
// (a refused step empties it).
template <class Solve>
CheckpointState InterruptWithFullWindow(const Solve& solve,
                                        const SeaOptions& base,
                                        std::size_t iterations, std::size_t n,
                                        const std::string& path) {
  for (std::size_t stop = iterations - 1; stop >= AndersonWindow::kDepth + 2;
       --stop) {
    std::remove(path.c_str());
    CheckpointWriter writer(path);
    SeaOptions interrupted = base;
    interrupted.checkpoint = &writer;
    interrupted.max_iterations = stop;
    EXPECT_EQ(solve(interrupted), SolveStatus::kMaxIterations);
    auto loaded = LoadCheckpoint(path);
    EXPECT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.state.iteration, stop);
    if (loaded.state.accel_df.size() == AndersonWindow::kDepth * n)
      return loaded.state;
  }
  ADD_FAILURE() << "no checkpoint before convergence holds a full window";
  return {};
}

TEST_P(ResumeConfig, DenseElasticResumeCarriesTheWindow) {
  const auto p = DenseElasticProblem();
  ThreadPool pool(threads());
  const SeaOptions base = Options(pool);

  const auto ref = SolveDiagonal(p, base);
  ASSERT_TRUE(ref.result.converged());
  ASSERT_GT(ref.result.extrapolations_accepted, 0u);
  const CheckpointState ck = InterruptWithFullWindow(
      [&p](const SeaOptions& o) { return SolveDiagonal(p, o).result.status; },
      base, ref.result.iterations, p.n(), CheckpointPath("dense_elastic"));
  ASSERT_EQ(ck.accel_f.size(), p.n());

  SeaOptions resumed_opts = base;
  resumed_opts.resume = &ck;
  const auto resumed = SolveDiagonal(p, resumed_opts);
  EXPECT_TRUE(resumed.result.converged());
  EXPECT_EQ(resumed.result.iterations, ref.result.iterations);
  EXPECT_EQ(resumed.result.extrapolations_accepted,
            ref.result.extrapolations_accepted);
  EXPECT_EQ(resumed.result.extrapolations_rejected,
            ref.result.extrapolations_rejected);
  EXPECT_EQ(resumed.result.final_residual, ref.result.final_residual);
  EXPECT_TRUE(BitEqual(resumed.solution.lambda, ref.solution.lambda));
  EXPECT_TRUE(BitEqual(resumed.solution.mu, ref.solution.mu));
  EXPECT_TRUE(BitEqual(resumed.solution.x.Flat(), ref.solution.x.Flat()));
}

TEST_P(ResumeConfig, SparseElasticResumeCarriesTheWindow) {
  const auto p = SparseElasticProblem();
  ThreadPool pool(threads());
  const SeaOptions base = Options(pool);

  const auto ref = SolveSparse(p, base);
  ASSERT_TRUE(ref.result.converged());
  ASSERT_GT(ref.result.extrapolations_accepted, 0u);
  const CheckpointState ck = InterruptWithFullWindow(
      [&p](const SeaOptions& o) { return SolveSparse(p, o).result.status; },
      base, ref.result.iterations, p.n(), CheckpointPath("sparse_elastic"));
  ASSERT_EQ(ck.accel_f.size(), p.n());

  SeaOptions resumed_opts = base;
  resumed_opts.resume = &ck;
  const auto resumed = SolveSparse(p, resumed_opts);
  EXPECT_TRUE(resumed.result.converged());
  EXPECT_EQ(resumed.result.iterations, ref.result.iterations);
  EXPECT_EQ(resumed.result.extrapolations_accepted,
            ref.result.extrapolations_accepted);
  EXPECT_EQ(resumed.result.extrapolations_rejected,
            ref.result.extrapolations_rejected);
  EXPECT_EQ(resumed.result.final_residual, ref.result.final_residual);
  EXPECT_TRUE(BitEqual(resumed.solution.lambda, ref.solution.lambda));
  EXPECT_TRUE(BitEqual(resumed.solution.mu, ref.solution.mu));
  EXPECT_TRUE(
      BitEqual(resumed.solution.x.Values(), ref.solution.x.Values()));
}

INSTANTIATE_TEST_SUITE_P(
    Checkpoint, ResumeConfig,
    ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3},
                      std::size_t{4}),
    ResumeConfigName);

// ---------------------------------------------------------------------------
// Final-checkpoint exits: cancellation leaves a resumable state behind.

TEST(CheckpointResume, CancelMidRunLeavesResumableCheckpoint) {
  const auto p = DenseFixedProblem();
  SeaOptions base = BaseOptions();
  const auto ref = SolveDiagonal(p, base);
  ASSERT_TRUE(ref.result.converged());
  ASSERT_GE(ref.result.iterations, 4u);

  const std::string path = ::testing::TempDir() + "/resume_cancel.bin";
  CancelToken cancel;
  // Cadence deliberately larger than the run so only the termination-path
  // write can produce the file.
  CheckpointWriter writer(path, 1000000);
  SeaOptions interrupted = base;
  interrupted.checkpoint = &writer;
  interrupted.cancel = &cancel;
  const std::size_t stop_at = ref.result.iterations / 2;
  CheckObserver progress([&](const IterationEvent& ev) {
    if (ev.iteration >= stop_at) cancel.Cancel();
  });
  interrupted.observers.push_back(&progress);
  const auto partial = SolveDiagonal(p, interrupted);
  EXPECT_EQ(partial.result.status, SolveStatus::kCancelled);
  EXPECT_EQ(writer.writes(), 1u);

  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_LT(loaded.state.iteration, ref.result.iterations);

  SeaOptions resumed_opts = base;
  resumed_opts.resume = &loaded.state;
  const auto resumed = SolveDiagonal(p, resumed_opts);
  EXPECT_TRUE(resumed.result.converged());
  EXPECT_EQ(resumed.result.iterations, ref.result.iterations);
  EXPECT_EQ(resumed.result.final_residual, ref.result.final_residual);
  EXPECT_TRUE(BitEqual(resumed.solution.lambda, ref.solution.lambda));
  EXPECT_TRUE(BitEqual(resumed.solution.mu, ref.solution.mu));
}

TEST(CheckpointResume, ResidualCriterionCheckpointCarriesNoSnapshot) {
  // Only kXChange snapshots the iterate; under a residual criterion both
  // backends checkpoint the duals alone, and the engine says so.
  const std::string dense_path = ::testing::TempDir() + "/resume_nosnap_d.bin";
  const std::string sparse_path =
      ::testing::TempDir() + "/resume_nosnap_s.bin";
  SeaOptions o = BaseOptions();
  o.max_iterations = 3;
  CheckpointWriter dense_writer(dense_path);
  o.checkpoint = &dense_writer;
  SolveDiagonal(DenseFixedProblem(), o);
  CheckpointWriter sparse_writer(sparse_path);
  o.checkpoint = &sparse_writer;
  SolveSparse(SparseFixedProblem(), o);
  for (const std::string& path : {dense_path, sparse_path}) {
    const auto loaded = LoadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << path;
    EXPECT_EQ(loaded.state.iteration, 3u) << path;
    EXPECT_FALSE(loaded.state.have_snapshot) << path;
    EXPECT_TRUE(loaded.state.snapshot.empty()) << path;
  }
}

TEST(CheckpointResume, ResumedMetricsCountOnlyThisProcess) {
  const auto p = DenseFixedProblem();
  const std::string path = ::testing::TempDir() + "/resume_metrics.bin";
  std::remove(path.c_str());
  CheckpointWriter writer(path);
  SeaOptions partial_opts = BaseOptions();
  partial_opts.max_iterations = 3;  // the iteration cap checkpoints too
  partial_opts.checkpoint = &writer;
  ASSERT_EQ(SolveDiagonal(p, partial_opts).result.status,
            SolveStatus::kMaxIterations);
  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  const std::uint64_t k = loaded.state.iteration;
  ASSERT_EQ(k, 3u);

  obs::MetricsRegistry metrics;
  obs::MetricsObserver metrics_observer(metrics);
  SeaOptions o = BaseOptions();
  o.resume = &loaded.state;
  o.observers.push_back(&metrics_observer);
  const auto resumed = SolveDiagonal(p, o);
  ASSERT_TRUE(resumed.result.converged());

  // The first k iterations and their checks ran in the earlier process.
  const auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("sea.iterations"), resumed.result.iterations - k);
  EXPECT_EQ(snap.CounterValue("sea.checks_compared"),
            resumed.result.checks_compared - loaded.state.checks_compared);
  EXPECT_EQ(snap.CounterValue("sea.checkpoint.resumes"), 1u);
  const auto* interval = snap.FindHistogram("sea.check.interval_iters");
  ASSERT_NE(interval, nullptr);
  EXPECT_EQ(interval->sum,
            static_cast<double>(snap.CounterValue("sea.iterations")));
  const auto* residual = snap.FindHistogram("sea.check.residual");
  ASSERT_NE(residual, nullptr);
  EXPECT_EQ(residual->total_count, snap.CounterValue("sea.checks_compared"));
}

TEST(CheckpointResume, ConvergedSolveWritesNoFinalCheckpoint) {
  const auto p = DenseFixedProblem();
  const std::string path = ::testing::TempDir() + "/resume_converged.bin";
  std::remove(path.c_str());
  CheckpointWriter writer(path, 1000000);  // cadence never fires
  SeaOptions o = BaseOptions();
  o.checkpoint = &writer;
  const auto run = SolveDiagonal(p, o);
  EXPECT_TRUE(run.result.converged());
  EXPECT_EQ(writer.writes(), 0u);
  std::ifstream check(path);
  EXPECT_FALSE(check.good());
}

}  // namespace
}  // namespace sea
