#include "obs/bench_reader.hpp"

#include <fstream>

#include "support/check.hpp"

namespace sea::obs {

namespace {

// Advances i past the JSON string starting at s[i] == '"'. Escape-aware.
void SkipString(const std::string& s, std::size_t& i) {
  SEA_CHECK_MSG(i < s.size() && s[i] == '"', "expected string");
  ++i;
  while (i < s.size()) {
    if (s[i] == '\\') {
      i += 2;
    } else if (s[i] == '"') {
      ++i;
      return;
    } else {
      ++i;
    }
  }
  throw InvalidArgument("unterminated string in bench document");
}

// Advances i past a balanced bracket run starting at s[i] (one of '[','{').
// Strings inside are escape-aware; returns [start, i) as the fragment.
std::string SkipBalanced(const std::string& s, std::size_t& i) {
  const std::size_t start = i;
  int depth = 0;
  while (i < s.size()) {
    const char c = s[i];
    if (c == '"') {
      SkipString(s, i);
      continue;
    }
    if (c == '[' || c == '{') ++depth;
    if (c == ']' || c == '}') {
      --depth;
      if (depth == 0) {
        ++i;
        return s.substr(start, i - start);
      }
    }
    ++i;
  }
  throw InvalidArgument("unbalanced brackets in bench document");
}

void SkipWs(const std::string& s, std::size_t& i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' || s[i] == '\n'))
    ++i;
}

// Splits an "[ {..}, {..} ]" fragment into its flat-object elements.
std::vector<std::string> ArrayElements(const std::string& arr) {
  std::vector<std::string> out;
  std::size_t i = 0;
  SkipWs(arr, i);
  SEA_CHECK_MSG(i < arr.size() && arr[i] == '[', "expected array");
  ++i;
  for (;;) {
    SkipWs(arr, i);
    if (i >= arr.size())
      throw InvalidArgument("unterminated array in bench document");
    if (arr[i] == ']') break;
    if (arr[i] == ',') {
      ++i;
      continue;
    }
    if (arr[i] == '{') {
      out.push_back(SkipBalanced(arr, i));
    } else {
      // Scalar element (not produced by bench_common; tolerate and skip).
      while (i < arr.size() && arr[i] != ',' && arr[i] != ']') {
        if (arr[i] == '"')
          SkipString(arr, i);
        else
          ++i;
      }
    }
  }
  return out;
}

std::string StringField(const TraceEvent& ev, const std::string& key) {
  auto it = ev.strings.find(key);
  return it != ev.strings.end() ? it->second : std::string();
}

}  // namespace

std::vector<std::pair<std::string, std::string>> JsonObjectFields(
    const std::string& json) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 0;
  SkipWs(json, i);
  SEA_CHECK_MSG(i < json.size() && json[i] == '{', "expected JSON object");
  ++i;
  for (;;) {
    SkipWs(json, i);
    if (i >= json.size()) throw InvalidArgument("unterminated JSON object");
    if (json[i] == '}') break;
    if (json[i] == ',') {
      ++i;
      continue;
    }
    const std::size_t key_start = i;
    SkipString(json, i);
    std::string key = json.substr(key_start + 1, i - key_start - 2);
    SkipWs(json, i);
    SEA_CHECK_MSG(i < json.size() && json[i] == ':',
                  "expected ':' in JSON object");
    ++i;
    SkipWs(json, i);
    if (i >= json.size()) throw InvalidArgument("truncated JSON value");
    std::string value;
    if (json[i] == '[' || json[i] == '{') {
      value = SkipBalanced(json, i);
    } else if (json[i] == '"') {
      const std::size_t start = i;
      SkipString(json, i);
      value = json.substr(start, i - start);
    } else {
      const std::size_t start = i;
      while (i < json.size() && json[i] != ',' && json[i] != '}') ++i;
      value = json.substr(start, i - start);
      while (!value.empty() && (value.back() == ' ' || value.back() == '\t'))
        value.pop_back();
    }
    out.emplace_back(std::move(key), std::move(value));
  }
  return out;
}

std::vector<double> JsonNumberArray(const std::string& json) {
  std::vector<double> out;
  std::size_t i = 0;
  SkipWs(json, i);
  SEA_CHECK_MSG(i < json.size() && json[i] == '[', "expected JSON array");
  ++i;
  std::string token;
  auto flush = [&out, &token] {
    if (token.empty()) return;
    try {
      out.push_back(std::stod(token));
    } catch (const std::exception&) {
      // Non-numeric element: skipped, per the header contract.
    }
    token.clear();
  };
  while (i < json.size() && json[i] != ']') {
    const char c = json[i];
    if (c == ',') {
      flush();
      ++i;
    } else if (c == '"') {
      SkipString(json, i);
    } else if (c == ' ' || c == '\t') {
      ++i;
    } else {
      token += c;
      ++i;
    }
  }
  if (i >= json.size()) throw InvalidArgument("unterminated JSON array");
  flush();
  return out;
}

BenchDoc ParseBenchDoc(const std::string& line) {
  // Partition on each value's first character: scalars reassemble into one
  // flat object for the trace parser, the "records" and "phases" arrays
  // hold flat elements, and unknown arrays and nested objects are skipped
  // (append-only schema tolerance).
  BenchDoc doc;
  std::string flat;
  for (const auto& [key, value] : JsonObjectFields(line)) {
    if (value.starts_with('{')) continue;
    if (!value.starts_with('[')) {
      flat += (flat.empty() ? "\"" : ",\"") + key + "\":" + value;
    } else if (key == "records") {
      for (const auto& elem : ArrayElements(value)) {
        const TraceEvent ev = ParseTraceLine(elem);
        BenchRecord r;
        r.experiment = StringField(ev, "experiment");
        r.dataset = StringField(ev, "dataset");
        r.metric = StringField(ev, "metric");
        r.measured = ev.Number("measured");
        if (ev.Has("paper")) r.paper = ev.Number("paper");
        r.note = StringField(ev, "note");
        doc.records.push_back(std::move(r));
      }
    } else if (key == "phases") {
      for (const auto& elem : ArrayElements(value)) {
        const TraceEvent ev = ParseTraceLine(elem);
        BenchPhase p;
        p.phase = StringField(ev, "phase");
        p.count = ev.Number("count");
        p.total_seconds = ev.Number("total_seconds");
        p.self_seconds = ev.Number("self_seconds");
        p.mean_seconds = ev.Number("mean_seconds");
        p.max_seconds = ev.Number("max_seconds");
        doc.phases.push_back(std::move(p));
      }
    }
  }
  doc.meta = ParseTraceLine("{" + flat + "}");
  return doc;
}

std::vector<BenchDoc> ReadBenchJsonl(const std::string& path) {
  std::ifstream in(path);
  SEA_CHECK_MSG(in.good(), "cannot open bench json: " + path);
  std::vector<BenchDoc> docs;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    bool blank = true;
    for (char c : line)
      if (c != ' ' && c != '\t' && c != '\r') blank = false;
    if (blank) continue;
    try {
      docs.push_back(ParseBenchDoc(line));
    } catch (const InvalidArgument& err) {
      throw InvalidArgument(path + " line " + std::to_string(line_no) + ": " +
                            err.what());
    }
  }
  return docs;
}

}  // namespace sea::obs
