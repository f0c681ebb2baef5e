// Lightweight precondition / invariant checking for the SEA library.
//
// SEA_CHECK is always on (public-API argument validation); SEA_DCHECK compiles
// away in release builds and guards internal invariants on hot paths.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace sea {

// Thrown when a public-API precondition is violated.
class InvalidArgument : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// Thrown when an internal invariant fails (indicates a library bug).
class InternalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

[[noreturn]] inline void ThrowInvalidArgument(const char* expr,
                                              const char* file, int line,
                                              const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw InvalidArgument(os.str());
}

[[noreturn]] inline void ThrowInternal(const char* expr, const char* file,
                                       int line, const std::string& msg) {
  std::ostringstream os;
  os << "invariant failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw InternalError(os.str());
}

}  // namespace detail

}  // namespace sea

#define SEA_CHECK(cond)                                                   \
  do {                                                                    \
    if (!(cond))                                                          \
      ::sea::detail::ThrowInvalidArgument(#cond, __FILE__, __LINE__, ""); \
  } while (0)

#define SEA_CHECK_MSG(cond, msg)                                             \
  do {                                                                       \
    if (!(cond))                                                             \
      ::sea::detail::ThrowInvalidArgument(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)

#define SEA_INTERNAL_CHECK(cond)                                     \
  do {                                                               \
    if (!(cond))                                                     \
      ::sea::detail::ThrowInternal(#cond, __FILE__, __LINE__, "");   \
  } while (0)

#ifdef NDEBUG
#define SEA_DCHECK(cond) \
  do {                   \
  } while (0)
#else
#define SEA_DCHECK(cond) SEA_INTERNAL_CHECK(cond)
#endif
