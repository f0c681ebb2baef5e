#include "workloads.hpp"

#include "core/checkpoint.hpp"
#include "datasets/io_tables.hpp"
#include "datasets/weights.hpp"
#include "spe/spe_generator.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace sea;

std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream) {
  return SplitMix64(seed * 0x9e3779b97f4a7c15ULL + stream).Next();
}

std::vector<SpeInstance> MakeSpeInstances(std::uint64_t seed,
                                          std::size_t count) {
  std::vector<SpeInstance> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    Rng rng(Mix(seed, 0x5E0000 + k));
    const std::size_t m = 116 + rng.NextIndex(9);
    const std::size_t n = 116 + rng.NextIndex(9);
    SpeInstance inst;
    inst.spe = spe::Generate(m, n, rng);
    inst.problem = inst.spe.ToDiagonalProblem();
    out.push_back(std::move(inst));
  }
  return out;
}

namespace {

// The Table 2 problem restricted to the nonzero pattern of its centers.
SparseDiagonalProblem OnPattern(const DiagonalProblem& dense) {
  DenseMatrix gamma = datasets::ChiSquareWeights(dense.x0());
  auto g = gamma.Flat();
  const auto x0 = dense.x0().Flat();
  for (std::size_t k = 0; k < g.size(); ++k)
    if (x0[k] == 0.0) g[k] = 0.0;
  return SparseDiagonalProblem::MakeFixed(SparseMatrix::FromDense(dense.x0()),
                                          SparseMatrix::FromDense(gamma),
                                          dense.s0(), dense.d0());
}

}  // namespace

std::vector<IoInstance> MakeIoInstances(std::uint64_t seed) {
  std::vector<IoInstance> out;
  for (auto spec : datasets::Table2Specs()) {
    spec.base_seed = Mix(seed, spec.base_seed);
    const std::size_t replication =
        spec.replications > 1 ? Mix(seed, 0xC) % spec.replications : 0;
    IoInstance inst;
    inst.sparse = spec.density < 0.5;
    DiagonalProblem dense = datasets::MakeIoTable(spec, replication);
    if (inst.sparse)
      inst.pattern = OnPattern(dense);
    else
      inst.dense = std::move(dense);
    out.push_back(std::move(inst));
  }
  return out;
}

ServeScript::Kind ServeScript::KindOf(std::size_t request) {
  const std::size_t r = request % 100;
  return r < 40 ? kRepeat : r < 80 ? kPerturb : kCold;
}

std::size_t ServeScript::FrameOf(std::size_t request) {
  // Requests of one kind before `request`, in the 100-request pattern.
  const std::size_t cycles = request / 100, r = request % 100;
  switch (KindOf(request)) {
    case kRepeat:
      return (cycles * 40 + r) % kBases;
    case kPerturb:
      return kBases + (cycles * 40 + r - 40) % kCycle;
    case kCold:
      break;
  }
  return kBases + kCycle + (cycles * 20 + r - 80) % kCycle;
}

namespace {

// serve_load's problem: positive centers, weights in [0.5, 2], totals the
// centers' own margins scaled by `totals_scale` (always feasible).
DiagonalProblem MakeServeProblem(std::uint64_t seed, double totals_scale) {
  constexpr std::size_t kSide = 12;
  Rng rng(seed);
  DenseMatrix x0(kSide, kSide);
  DenseMatrix gamma(kSide, kSide);
  for (std::size_t i = 0; i < kSide; ++i)
    for (std::size_t j = 0; j < kSide; ++j) {
      x0(i, j) = rng.Uniform(1.0, 10.0);
      gamma(i, j) = rng.Uniform(0.5, 2.0);
    }
  Vector s0 = x0.RowSums();
  Vector d0 = x0.ColSums();
  for (double& v : s0) v *= totals_scale;
  for (double& v : d0) v *= totals_scale;
  return DiagonalProblem::MakeFixed(std::move(x0), std::move(gamma),
                                    std::move(s0), std::move(d0));
}

}  // namespace

ServeScript MakeServeScript(std::uint64_t seed) {
  constexpr std::size_t kBases = ServeScript::kBases;
  ServeScript script;
  const auto base_seed = [seed](std::size_t b) {
    return Mix(seed, 0x5E7E0000 + b);
  };
  const auto add = [&script](DiagonalProblem problem) {
    serve::SolveRequest req;
    req.problem = std::move(problem);
    req.epsilon = script.epsilon;
    script.fingerprints.push_back(FingerprintProblem(req.problem));
    script.frames.push_back(serve::EncodeRequestFrame(req));
  };
  // Totals are scaled away from the centers' margins so every solve does
  // real work.
  for (std::size_t b = 0; b < kBases; ++b)
    add(MakeServeProblem(base_seed(b), 1.1));
  // Perturbed frame j rescales base j % kBases; each base's scales span
  // serve_load's [1.11, 1.27].
  constexpr std::size_t kPerBase = ServeScript::kCycle / kBases;
  for (std::size_t j = 0; j < ServeScript::kCycle; ++j)
    add(MakeServeProblem(
        base_seed(j % kBases),
        1.1 + 0.17 * static_cast<double>(j / kBases + 1) /
                  static_cast<double>(kPerBase)));
  for (std::size_t k = 0; k < ServeScript::kCycle; ++k)
    add(MakeServeProblem(Mix(seed, 0xC01D0000 + k), 1.1));
  return script;
}

}  // namespace perfbench
