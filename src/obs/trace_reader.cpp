#include "obs/trace_reader.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>

#include "support/check.hpp"

namespace sea::obs {

std::string TraceEvent::Type() const {
  const auto it = strings.find("type");
  return it == strings.end() ? std::string() : it->second;
}

double TraceEvent::Number(const std::string& key, double fallback) const {
  const auto it = numbers.find(key);
  return it == numbers.end() ? fallback : it->second;
}

bool TraceEvent::Flag(const std::string& key, bool fallback) const {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

bool TraceEvent::Has(const std::string& key) const {
  return numbers.count(key) || flags.count(key) || strings.count(key);
}

namespace {

// Minimal recursive-descent parser over the flat-object subset.
class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  TraceEvent ParseObject() {
    TraceEvent ev;
    SkipWs();
    Expect('{');
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return ev;
    }
    for (;;) {
      SkipWs();
      const std::string key = ParseString();
      SkipWs();
      Expect(':');
      SkipWs();
      ParseValue(ev, key);
      SkipWs();
      const char c = Next();
      if (c == '}') break;
      SEA_CHECK_MSG(c == ',', "trace line: expected ',' or '}'");
    }
    SkipWs();
    SEA_CHECK_MSG(pos_ == s_.size(), "trace line: trailing characters");
    return ev;
  }

 private:
  char Peek() const {
    SEA_CHECK_MSG(pos_ < s_.size(), "trace line: unexpected end of input");
    return s_[pos_];
  }
  char Next() {
    const char c = Peek();
    ++pos_;
    return c;
  }
  void Expect(char c) {
    SEA_CHECK_MSG(Next() == c,
                  std::string("trace line: expected '") + c + "'");
  }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    for (;;) {
      const char c = Next();
      if (c == '"') return out;
      if (c == '\\') {
        const char e = Next();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            SEA_CHECK_MSG(pos_ + 4 <= s_.size(),
                          "trace line: truncated \\u escape");
            const unsigned code =
                std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16);
            pos_ += 4;
            // Trace fields are ASCII; anything else degrades to '?'.
            out += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default:
            SEA_CHECK_MSG(false, "trace line: unsupported escape");
        }
      } else {
        out += c;
      }
    }
  }

  void ParseValue(TraceEvent& ev, const std::string& key) {
    const char c = Peek();
    if (c == '"') {
      ev.strings[key] = ParseString();
    } else if (c == 't' || c == 'f') {
      const char* word = (c == 't') ? "true" : "false";
      for (const char* p = word; *p; ++p) Expect(*p);
      ev.flags[key] = (c == 't');
    } else if (c == 'n') {
      for (const char* p = "null"; *p; ++p) Expect(*p);
      // A null measure stays absent — Number() returns the fallback.
    } else {
      const std::size_t start = pos_;
      while (pos_ < s_.size() &&
             (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
              s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
              s_[pos_] == 'e' || s_[pos_] == 'E'))
        ++pos_;
      SEA_CHECK_MSG(pos_ > start, "trace line: expected a value");
      char* end = nullptr;
      const std::string tok = s_.substr(start, pos_ - start);
      const double v = std::strtod(tok.c_str(), &end);
      SEA_CHECK_MSG(end && *end == '\0',
                    "trace line: malformed number '" + tok + "'");
      ev.numbers[key] = v;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

TraceEvent ParseTraceLine(const std::string& line) {
  return Parser(line).ParseObject();
}

std::vector<TraceEvent> ReadTraceJsonl(const std::string& path,
                                       std::size_t* lines_skipped) {
  std::ifstream f(path);
  SEA_CHECK_MSG(f.good(), "cannot open trace file: " + path);
  std::vector<TraceEvent> events;
  std::string line;
  std::size_t lineno = 0;
  if (lines_skipped != nullptr) *lines_skipped = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty()) continue;
    try {
      events.push_back(ParseTraceLine(line));
    } catch (const std::exception& e) {
      if (lines_skipped != nullptr) {
        ++*lines_skipped;
        continue;
      }
      SEA_CHECK_MSG(false, path + ":" + std::to_string(lineno) + ": " +
                               e.what());
    }
  }
  return events;
}

}  // namespace sea::obs
