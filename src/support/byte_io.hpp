// Little helpers for the binary codecs (core/checkpoint.cpp,
// serve/protocol.cpp): append fixed-width fields in host byte order, and a
// bounds-checked sequential reader over the decoded range. Internal header:
// not part of the public surface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sea::support {

inline void PutU32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void PutU64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void PutF64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// Length-prefixed array of doubles.
inline void PutDoubles(std::string& out, std::span<const double> v) {
  PutU64(out, v.size());
  out.append(reinterpret_cast<const char*>(v.data()),
             v.size() * sizeof(double));
}

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool GetU32(std::uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU64(std::uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetF64(double* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU8(std::uint8_t* v) { return GetRaw(v, sizeof(*v)); }

  bool GetDoubles(std::vector<double>* v) {
    std::uint64_t count = 0;
    if (!GetU64(&count)) return false;
    if (count > Remaining() / sizeof(double)) return false;
    v->resize(static_cast<std::size_t>(count));
    return GetRaw(v->data(), v->size() * sizeof(double));
  }

  bool GetBytes(std::vector<std::uint8_t>* v) {
    std::uint64_t count = 0;
    if (!GetU64(&count)) return false;
    if (count > Remaining()) return false;
    v->resize(static_cast<std::size_t>(count));
    return GetRaw(v->data(), v->size());
  }

  std::size_t Remaining() const { return bytes_.size() - pos_; }

 private:
  bool GetRaw(void* dst, std::size_t len) {
    if (len > Remaining()) return false;
    // An empty vector's data() may be null, and memcpy's pointers must not
    // be, even for a zero length.
    if (len == 0) return true;
    std::memcpy(dst, bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace sea::support
