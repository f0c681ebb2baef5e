// Unit tests of the benchmark's own logic: the percentile rule, the layer
// split, and seeded input generation.
#include <gtest/gtest.h>

#include <set>

#include "core/checkpoint.hpp"
#include "sparse/sparse_sea.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, TenSamplesBeyond) {
  EXPECT_TRUE(HasTenBeyond(20, 50));
  EXPECT_FALSE(HasTenBeyond(19, 50));
  EXPECT_TRUE(HasTenBeyond(100, 90));
  EXPECT_FALSE(HasTenBeyond(99, 90));
  EXPECT_TRUE(HasTenBeyond(1000, 99));
  EXPECT_FALSE(HasTenBeyond(999, 99));
}

TEST(PercentileRule, HighestQualifyingPercentileUnderTheCap) {
  // spe_elastic: a few dozen solves per run, so no p90.
  EXPECT_EQ(TailPercent(36, 99), 50);
  EXPECT_EQ(TailPercent(99, 99), 50);
  // io_update: hundreds of operations give p90 but not p99.
  EXPECT_EQ(TailPercent(450, 99), 90);
  EXPECT_EQ(TailPercent(999, 99), 90);
  // serve_mix: p99 from 1000 samples on.
  EXPECT_EQ(TailPercent(1000, 99), 99);
  EXPECT_EQ(TailPercent(200000, 99), 99);
  // The cap wins over sample count.
  EXPECT_EQ(TailPercent(200000, 90), 90);
  EXPECT_EQ(TailPercent(200000, 50), 50);
  // Too few samples even for the median: the median is still reported.
  EXPECT_EQ(TailPercent(5, 99), 50);
}

TEST(Quantile, InterpolatesSortedSamples) {
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0}, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
}

TEST(LayerSplit, PartsAddUpToTheOperationWithANamedRemainder) {
  LayerSplit op(0.010);
  op.Add("core.construct", 0.002);
  op.Add("core.row_sweep", 0.004);
  op.Add("core.col_sweep", 0.003);
  op.Finish("core.other");
  ASSERT_EQ(op.parts().size(), 4u);
  EXPECT_EQ(op.parts().back().first, "core.other");
  EXPECT_NEAR(op.parts().back().second, 0.001, 1e-15);
  EXPECT_NEAR(op.Sum(), op.total(), 1e-15);

  LayerTotals totals;
  totals.Add(op);
  totals.Add(op);
  EXPECT_NEAR(totals.Get("core.row_sweep"), 0.008, 1e-15);
  EXPECT_NEAR(totals.Get("core.other"), 0.002, 1e-15);
  EXPECT_EQ(totals.Get("absent"), 0.0);
}

TEST(LayerSplit, NegativeRemainderIsKeptNotHidden) {
  // Layers measured on another clock can overrun the total; the remainder
  // then goes negative and the parts still re-sum.
  LayerSplit op(1.0);
  op.Add("serve.handle", 1.25);
  op.Finish("net.transport");
  EXPECT_DOUBLE_EQ(op.parts().back().second, -0.25);
  EXPECT_DOUBLE_EQ(op.Sum(), 1.0);
}

std::vector<std::uint64_t> SpeFingerprints(std::uint64_t seed) {
  std::vector<std::uint64_t> out;
  for (const auto& inst : MakeSpeInstances(seed, 3))
    out.push_back(sea::FingerprintProblem(inst.problem));
  return out;
}

std::vector<std::uint64_t> IoFingerprints(std::uint64_t seed) {
  std::vector<std::uint64_t> out;
  for (const auto& inst : MakeIoInstances(seed))
    out.push_back(inst.sparse ? sea::FingerprintProblem(inst.pattern)
                              : sea::FingerprintProblem(inst.dense));
  return out;
}

TEST(Inputs, SpeSeedRegeneratesAndAnotherSeedChanges) {
  const auto a = SpeFingerprints(7);
  EXPECT_EQ(a, SpeFingerprints(7));
  const auto b = SpeFingerprints(8);
  for (std::size_t k = 0; k < a.size(); ++k) EXPECT_NE(a[k], b[k]);
  // Instances of one run are distinct.
  EXPECT_NE(a[0], a[1]);
}

TEST(Inputs, IoSeedRegeneratesAndAnotherSeedChanges) {
  const auto a = IoFingerprints(7);
  ASSERT_EQ(a.size(), 9u);
  EXPECT_EQ(a, IoFingerprints(7));
  const auto b = IoFingerprints(8);
  for (std::size_t k = 0; k < a.size(); ++k) EXPECT_NE(a[k], b[k]);
}

TEST(Inputs, IoTablesKeepThePaperShapes) {
  const auto io = MakeIoInstances(1);
  std::size_t sparse = 0;
  for (const auto& inst : io) {
    if (inst.sparse) {
      ++sparse;
      EXPECT_EQ(inst.pattern.m(), 485u);
      // 16% dense pattern.
      EXPECT_NEAR(double(inst.pattern.nnz()) / (485.0 * 485.0), 0.16, 0.01);
    } else {
      EXPECT_EQ(inst.dense.m(), 205u);
    }
  }
  EXPECT_EQ(sparse, 3u);
}

TEST(Inputs, ServeScriptSeedRegeneratesAndAnotherSeedChanges) {
  const ServeScript a = MakeServeScript(7);
  const ServeScript again = MakeServeScript(7);
  const ServeScript b = MakeServeScript(8);
  ASSERT_EQ(a.frames.size(), ServeScript::kBases + 2 * ServeScript::kCycle);
  EXPECT_EQ(a.fingerprints, again.fingerprints);
  EXPECT_EQ(a.frames, again.frames);
  EXPECT_NE(a.fingerprints[0], b.fingerprints[0]);
  EXPECT_NE(a.fingerprints.back(), b.fingerprints.back());
  // Every frame is a distinct problem.
  const std::set<std::uint64_t> distinct(a.fingerprints.begin(),
                                         a.fingerprints.end());
  EXPECT_EQ(distinct.size(), a.fingerprints.size());
}

TEST(Inputs, ServeScriptFollowsTheServeLoadMix) {
  constexpr std::size_t kBases = ServeScript::kBases;
  constexpr std::size_t kCycle = ServeScript::kCycle;
  std::size_t repeat = 0, perturb = 0, cold = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    const std::size_t frame = ServeScript::FrameOf(i);
    switch (ServeScript::KindOf(i)) {
      case ServeScript::kRepeat:
        // Repeats take the bases in turn.
        EXPECT_EQ(frame, repeat % kBases);
        ++repeat;
        break;
      case ServeScript::kPerturb:
        // Perturbed requests walk their frames in order.
        EXPECT_EQ(frame, kBases + perturb);
        ++perturb;
        break;
      case ServeScript::kCold:
        EXPECT_EQ(frame, kBases + kCycle + cold);
        ++cold;
        break;
    }
  }
  EXPECT_EQ(repeat, 400u);
  EXPECT_EQ(perturb, 400u);
  EXPECT_EQ(cold, 200u);
  // Each cycle wraps only after every one of its frames was used once.
  const std::size_t perturb_wrap = kCycle / 40 * 100 + 40 + kCycle % 40;
  EXPECT_EQ(ServeScript::KindOf(perturb_wrap), ServeScript::kPerturb);
  EXPECT_EQ(ServeScript::FrameOf(perturb_wrap), kBases);
  const std::size_t cold_wrap = kCycle / 20 * 100 + 80 + kCycle % 20;
  EXPECT_EQ(ServeScript::KindOf(cold_wrap), ServeScript::kCold);
  EXPECT_EQ(ServeScript::FrameOf(cold_wrap), kBases + kCycle);
}

}  // namespace
}  // namespace perfbench
