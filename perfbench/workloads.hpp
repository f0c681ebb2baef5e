// Seeded inputs of the benchmark workloads (perfbench/README.md). Every
// generator is a pure function of the seed: the same seed rebuilds
// byte-identical problems, another seed gives other problems.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "problems/diagonal_problem.hpp"
#include "serve/protocol.hpp"
#include "spe/spatial_price.hpp"
#include "sparse/sparse_problem.hpp"

namespace perfbench {

// Independent 64-bit stream `stream` of a run seed (SplitMix64 finalizer).
std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream);

// spe_elastic: SPE instances of 116..124 supply and demand markets (paper
// Table 5 generator) and their elastic constrained-matrix forms.
struct SpeInstance {
  sea::spe::SpatialPriceProblem spe;
  sea::DiagonalProblem problem;
};
std::vector<SpeInstance> MakeSpeInstances(std::uint64_t seed,
                                          std::size_t count);

// io_update: the nine Table 2 families. The 205-sector IOC tables are
// dense problems; the 485-sector 16%-dense IO72 tables are posed on their
// nonzero pattern.
struct IoInstance {
  bool sparse = false;
  sea::DiagonalProblem dense;          // when !sparse
  sea::SparseDiagonalProblem pattern;  // when sparse
};
std::vector<IoInstance> MakeIoInstances(std::uint64_t seed);

// serve_mix: serve_load's traffic mix — 12x12 fixed problems, 40% exact
// repeats of a base problem, 40% a base problem with perturbed totals, 20%
// cold problems — as pre-encoded binary frames.
struct ServeScript {
  // Repeats and perturbations take turns over this many base problems.
  // serve_load has one; with one, a warm solve's iteration count depends
  // on that single seeded problem, and p50 moved by a fifth between seeds.
  static constexpr std::size_t kBases = 16;
  // Perturbed and cold requests each cycle through this many distinct
  // frames: four times the daemon's 1024-entry cache. Each base has
  // kCycle / kBases = 256 perturbed frames, twice a 128-entry cache shard,
  // and a structure's entries all land in one shard, so a frame has been
  // evicted before it comes round again. A perturbed request therefore
  // misses the exact tier and hits the nearby (warm) tier, and a cold one
  // misses both, in every run.
  static constexpr std::size_t kCycle = 4096;

  enum Kind { kRepeat, kPerturb, kCold };

  double epsilon = 1e-6;
  // frames [0, kBases) = bases, then kCycle perturbed, then kCycle cold.
  std::vector<std::string> frames;
  std::vector<std::uint64_t> fingerprints;  // FingerprintProblem per frame

  static Kind KindOf(std::size_t request);
  static std::size_t FrameOf(std::size_t request);
};
ServeScript MakeServeScript(std::uint64_t seed);

}  // namespace perfbench
