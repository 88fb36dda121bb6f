// Shared helpers of the benchmark tool: file I/O, timing, RSS, and the reference
// route table every output check compares against.
//
// The reference is deliberately independent of the program under test: it parses
// the route text itself (cost TAB name TAB route) into a std::unordered_map and
// walks domain suffixes with plain string operations, instead of reusing the
// route_db or image code it checks.

#ifndef PERFBENCH_TOOL_COMMON_H_
#define PERFBENCH_TOOL_COMMON_H_

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// `--flag value` pairs after the subcommand (argv[1]).
inline std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    flags[argv[i]] = argv[i + 1];
  }
  return flags;
}

inline bool ReadWholeFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = std::move(buffer).str();
  return true;
}

inline bool WriteWholeFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

inline std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

inline std::vector<std::string_view> SplitOn(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (true) {
    size_t at = text.find(sep, start);
    parts.push_back(text.substr(start, at == std::string_view::npos ? at : at - start));
    if (at == std::string_view::npos) {
      return parts;
    }
    start = at + 1;
  }
}

// Current resident set of this process, from /proc/self/statm.
inline double CurrentRssMib() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// One line of `pathalias -c` output.
struct RefRoute {
  long cost = 0;
  std::string route;
};

enum class RefKind { kExact, kSuffix, kMiss };

struct RefAnswer {
  RefKind kind = RefKind::kMiss;
  std::string_view via;    // the key that matched; empty on a miss
  const RefRoute* route = nullptr;
};

// The benchmark's reference resolver: a hash table over the route text plus its
// own domain-suffix walk (exact name, then each dotted suffix, longest first).
class RouteTable {
 public:
  // Parses `cost\tname\troute` lines.  Returns false (with *error) on a line that
  // does not have that shape.  Duplicate names are counted, the first one kept.
  bool Parse(std::string_view text, std::string* error) {
    size_t line_number = 0;
    size_t start = 0;
    while (start < text.size()) {
      size_t end = text.find('\n', start);
      if (end == std::string_view::npos) {
        end = text.size();
      }
      std::string_view line = text.substr(start, end - start);
      start = end + 1;
      ++line_number;
      if (line.empty()) {
        continue;
      }
      std::vector<std::string_view> fields = SplitOn(line, '\t');
      if (fields.size() != 3 || fields[0].empty() || fields[1].empty()) {
        *error =
            "route line " + std::to_string(line_number) + " is not cost<TAB>name<TAB>route";
        return false;
      }
      long cost = 0;
      for (char c : fields[0]) {
        if (c < '0' || c > '9') {
          *error = "route line " + std::to_string(line_number) + " has a non-numeric cost";
          return false;
        }
        cost = cost * 10 + (c - '0');
      }
      auto [it, inserted] =
          routes_.try_emplace(std::string(fields[1]), RefRoute{cost, std::string(fields[2])});
      if (!inserted) {
        ++duplicates_;
      }
    }
    return true;
  }

  bool ParseFile(const std::string& path, std::string* error) {
    std::string text;
    if (!ReadWholeFile(path, &text)) {
      *error = "cannot read " + path;
      return false;
    }
    return Parse(text, error);
  }

  const RefRoute* Find(std::string_view name) const {
    auto it = routes_.find(std::string(name));
    return it == routes_.end() ? nullptr : &it->second;
  }

  RefAnswer Resolve(std::string_view host) const {
    RefAnswer answer;
    auto it = routes_.find(std::string(host));
    if (it != routes_.end()) {
      answer.kind = RefKind::kExact;
      answer.via = it->first;
      answer.route = &it->second;
      return answer;
    }
    for (size_t dot = host.find('.', 1); dot != std::string_view::npos;
         dot = host.find('.', dot + 1)) {
      auto suffix = routes_.find(std::string(host.substr(dot)));
      if (suffix != routes_.end()) {
        answer.kind = RefKind::kSuffix;
        answer.via = suffix->first;
        answer.route = &suffix->second;
        return answer;
      }
    }
    return answer;
  }

  const std::unordered_map<std::string, RefRoute>& routes() const { return routes_; }
  size_t duplicates() const { return duplicates_; }

 private:
  std::unordered_map<std::string, RefRoute> routes_;
  size_t duplicates_ = 0;
};

// A query as the generator recorded it: the expected kind is part of the input.
struct Query {
  char kind = 'h';  // 'h' hit, 's' suffix fallback, 'm' miss
  std::string name;
};

inline RefKind KindOf(char kind) {
  return kind == 'h' ? RefKind::kExact : kind == 's' ? RefKind::kSuffix : RefKind::kMiss;
}

// requests.txt: one request per line, queries separated by spaces, each `k:name`.
inline std::vector<std::vector<Query>> ReadRequests(const std::string& path) {
  std::vector<std::vector<Query>> requests;
  for (const std::string& line : ReadLines(path)) {
    std::vector<Query> request;
    for (std::string_view token : SplitOn(line, ' ')) {
      if (token.size() > 2 && token[1] == ':') {
        request.push_back(Query{token[0], std::string(token.substr(2))});
      }
    }
    if (!request.empty()) {
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_COMMON_H_
