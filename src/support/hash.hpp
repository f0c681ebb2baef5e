// FNV-1a 64-bit accumulator, used for problem fingerprints: a checkpoint
// records the fingerprint of the problem it was captured from, and resume
// refuses to graft an iterate onto different data
// (src/core/checkpoint.hpp). Not cryptographic — it guards against
// operator error, not adversaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace sea::support {

class Fnv1a {
 public:
  void MixBytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= kPrime;
    }
  }

  void MixU64(std::uint64_t v) { MixBytes(&v, sizeof(v)); }

  // Length-prefixed, so {1.0} followed by {} hashes differently from {}
  // followed by {1.0}.
  void MixDoubles(std::span<const double> v) {
    MixU64(v.size());
    MixBytes(v.data(), v.size() * sizeof(double));
  }

  std::uint64_t value() const { return h_; }

 private:
  friend class Fnv1aPair;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  std::uint64_t h_ = 14695981039346656037ull;  // FNV offset basis
};

// Two FNV-1a accumulators fed the same bytes in one pass. Their multiply
// chains are independent, so the second runs in the first one's latency and
// the pair costs about one chain; each ends with exactly the value it would
// reach mixing the bytes alone. Take the halves out to continue them apart.
class Fnv1aPair {
 public:
  Fnv1aPair(const Fnv1a& first, const Fnv1a& second)
      : first_(first), second_(second) {}

  void MixBytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t a = first_.h_, b = second_.h_;
    for (std::size_t i = 0; i < len; ++i) {
      a = (a ^ p[i]) * Fnv1a::kPrime;
      b = (b ^ p[i]) * Fnv1a::kPrime;
    }
    first_.h_ = a;
    second_.h_ = b;
  }

  void MixU64(std::uint64_t v) { MixBytes(&v, sizeof(v)); }

  // Length-prefixed, as Fnv1a::MixDoubles.
  void MixDoubles(std::span<const double> v) {
    MixU64(v.size());
    MixBytes(v.data(), v.size() * sizeof(double));
  }

  const Fnv1a& first() const { return first_; }
  const Fnv1a& second() const { return second_; }

 private:
  Fnv1a first_, second_;
};

}  // namespace sea::support
