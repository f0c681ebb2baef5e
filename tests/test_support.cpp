#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "support/atomic_file.hpp"
#include "support/check.hpp"
#include "support/crc32.hpp"
#include "support/hash.hpp"
#include "support/op_counter.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace sea {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.NextU64() == b.NextU64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.Uniform(-3.5, 12.25);
    EXPECT_GE(v, -3.5);
    EXPECT_LT(v, 12.25);
  }
}

TEST(Rng, UniformMeanApproximatelyCentered) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.Uniform(0.0, 10.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.05);
}

TEST(Rng, NextIndexStaysInRange) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.NextIndex(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, NextIndexOneIsAlwaysZero) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextIndex(1), 0u);
}

TEST(Rng, NormalMomentsAreSane) {
  Rng rng(23);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.Normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.03);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(31);
  Rng child = a.Split();
  // The child stream should not reproduce the parent's continuation.
  Rng parent_copy = a;
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (child.NextU64() == parent_copy.NextU64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformVectorHasRequestedShape) {
  Rng rng(37);
  const auto v = rng.UniformVector(1000, 2.0, 3.0);
  ASSERT_EQ(v.size(), 1000u);
  for (double x : v) {
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Check, CheckThrowsInvalidArgument) {
  EXPECT_THROW(SEA_CHECK(1 == 2), InvalidArgument);
  EXPECT_NO_THROW(SEA_CHECK(1 == 1));
}

TEST(Check, CheckMsgCarriesMessage) {
  try {
    SEA_CHECK_MSG(false, "the details");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("the details"), std::string::npos);
  }
}

TEST(Check, InternalCheckThrowsInternalError) {
  EXPECT_THROW(SEA_INTERNAL_CHECK(false), InternalError);
}

TEST(OpCounts, Accumulates) {
  OpCounts a;
  a.comparisons = 3;
  a.flops = 5;
  a.breakpoints = 1;
  OpCounts b;
  b.comparisons = 10;
  b.flops = 20;
  b.breakpoints = 2;
  a += b;
  EXPECT_EQ(a.comparisons, 13u);
  EXPECT_EQ(a.flops, 25u);
  EXPECT_EQ(a.breakpoints, 3u);
  EXPECT_DOUBLE_EQ(a.Work(), 13.0 + 25.0);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + 1e-9;
  EXPECT_GT(sw.Seconds(), 0.0);
}

TEST(Stopwatch, CpuClockAdvances) {
  const double c0 = ProcessCpuSeconds();
  volatile double sink = 0.0;
  for (int i = 0; i < 5000000; ++i) sink = sink + 1e-9;
  EXPECT_GE(ProcessCpuSeconds(), c0);
}

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(support::Crc32("123456789"), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(support::Crc32(""), 0u); }

TEST(Crc32, SeedChainingEqualsOneShot) {
  const std::string a = "the splitting ";
  const std::string b = "equilibration algorithm";
  EXPECT_EQ(support::Crc32(b, support::Crc32(a)), support::Crc32(a + b));
}

TEST(Crc32, SingleBitFlipChangesTheChecksum) {
  std::string bytes = "checkpoint payload bytes";
  const std::uint32_t clean = support::Crc32(bytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] ^= 0x01;
    EXPECT_NE(support::Crc32(corrupt), clean) << "flip at byte " << i;
  }
}

// CRC-32 bit by bit, straight from the reflected polynomial: the reference
// the table-driven loops must reproduce.
std::uint32_t BitwiseCrc32(const unsigned char* p, std::size_t len,
                           std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
  }
  return ~c;
}

TEST(Crc32, SlicedMatchesBytewiseReference) {
  // Lengths 0-300 (the word loop, its tail, and both together) from every
  // start offset 0-7, so every alignment of the 8-byte loads is covered.
  std::vector<unsigned char> buf(8 + 300);
  Rng rng(32);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.NextU64());
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 300; ++len)
      ASSERT_EQ(support::Crc32(buf.data() + offset, len),
                BitwiseCrc32(buf.data() + offset, len))
          << "offset " << offset << ", length " << len;
  // Chained at every split point of a 64-byte buffer.
  const std::uint32_t whole = BitwiseCrc32(buf.data(), 64);
  for (std::size_t split = 0; split <= 64; ++split)
    ASSERT_EQ(support::Crc32(buf.data() + split, 64 - split,
                             support::Crc32(buf.data(), split)),
              whole)
        << "split at " << split;
}

TEST(Fnv1a, MatchesTheCanonicalTestVector) {
  // FNV-1a 64 of "a" per the reference implementation.
  support::Fnv1a h;
  h.MixBytes("a", 1);
  EXPECT_EQ(h.value(), 0xaf63dc4c8601ec8cull);
}

TEST(Fnv1a, DeterministicAcrossInstances) {
  support::Fnv1a a, b;
  const std::vector<double> v = {1.0, -2.5, 3.25};
  a.MixDoubles(v);
  b.MixDoubles(v);
  EXPECT_EQ(a.value(), b.value());
}

TEST(Fnv1a, LengthPrefixSeparatesVectorBoundaries) {
  // {1.0} then {} must hash differently from {} then {1.0} — without the
  // length prefix both would mix the same byte stream.
  support::Fnv1a a, b;
  a.MixDoubles(std::vector<double>{1.0});
  a.MixDoubles(std::vector<double>{});
  b.MixDoubles(std::vector<double>{});
  b.MixDoubles(std::vector<double>{1.0});
  EXPECT_NE(a.value(), b.value());
}

TEST(Fnv1a, PairEndsWhereTwoSingleChainsEnd) {
  support::Fnv1a a, b;
  a.MixU64('a');
  b.MixU64('b');
  support::Fnv1aPair both(a, b);
  const std::vector<double> v = {1.0, -2.5, 3.25};
  for (support::Fnv1a* h : {&a, &b}) {
    h->MixU64(7);
    h->MixDoubles(v);
    h->MixBytes("xyz", 3);
  }
  both.MixU64(7);
  both.MixDoubles(v);
  both.MixBytes("xyz", 3);
  EXPECT_EQ(both.first().value(), a.value());
  EXPECT_EQ(both.second().value(), b.value());
}

TEST(AtomicFileWriter, HappyPathIsOneAttempt) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sea_atomic_happy.txt")
          .string();
  std::remove(path.c_str());
  support::AtomicFileWriter writer;
  ASSERT_TRUE(
      writer.Write(path, [](std::ostream& out) { out << "payload\n"; }));
  EXPECT_EQ(writer.attempts(), 1u);
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "payload");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicFileWriter, BodyStreamFailureReportsFalse) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sea_atomic_fail.txt")
          .string();
  std::remove(path.c_str());
  support::AtomicFileWriter writer;
  EXPECT_FALSE(writer.Write(
      path, [](std::ostream& out) { out.setstate(std::ios::badbit); }));
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

}  // namespace
}  // namespace sea
