// Output checks of the benchmark tool.
//
//   check-build --routes R --hosts H --local L [--image I]
//       The properties the paper's method guarantees of `pathalias -c` output:
//       every emitted host has exactly one route; the local host's route is %s at
//       cost 0; every route holds exactly one %s; every multi-hop route minus its
//       last hop is itself a printed route of no greater cost (the shortest-path
//       tree); and, with --image, every image lookup returns the text's route bytes
//       and cost.
//   check-batch --routes R --queries Q --kinds K --output O
//       Every `routedb batch` output line agrees with the reference resolver and
//       with the generator's record of hits, fallbacks and misses.
//
// Both print one summary line `key=value ...` and exit 1 when any check fails.

#include <iostream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/tool/common.h"
#include "src/image/frozen_route_set.h"

namespace perfbench {
namespace {

class Failures {
 public:
  void Add(const std::string& check, const std::string& detail) {
    if (++counts_[check] <= 3) {
      std::cerr << "check failed: " << check << ": " << detail << "\n";
    }
  }
  void Declare(const std::string& check) { counts_.try_emplace(check, 0); }
  size_t total() const {
    size_t sum = 0;
    for (const auto& [check, count] : counts_) {
      sum += count;
    }
    return sum;
  }
  std::string Summary() const {
    std::string text;
    for (const auto& [check, count] : counts_) {
      text += " " + check + "=" + std::to_string(count);
    }
    return text;
  }

 private:
  std::map<std::string, size_t> counts_;
};

// The route with its last hop removed, or "" for a route of fewer than two hops.
// A hop is a `name!` before the %s or an `@name` after it; the @ hops are the last
// ones taken.
std::string Parent(std::string_view route) {
  size_t splice = route.find("%s");
  size_t bangs = 0;
  for (size_t i = 0; i < splice; ++i) {
    bangs += route[i] == '!' ? 1 : 0;
  }
  size_t ats = 0;
  for (size_t i = splice + 2; i < route.size(); ++i) {
    ats += route[i] == '@' ? 1 : 0;
  }
  if (bangs + ats < 2) {
    return "";
  }
  if (ats > 0) {
    return std::string(route.substr(0, route.rfind('@')));
  }
  size_t previous = splice >= 2 ? route.rfind('!', splice - 2) : std::string_view::npos;
  size_t keep = previous == std::string_view::npos ? 0 : previous + 1;
  return std::string(route.substr(0, keep)) + std::string(route.substr(splice));
}

size_t Occurrences(std::string_view text, std::string_view needle) {
  size_t count = 0;
  for (size_t at = text.find(needle); at != std::string_view::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

}  // namespace

int RunCheckBuild(int argc, char** argv) {
  std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  RouteTable table;
  std::string error;
  if (!table.ParseFile(flags["--routes"], &error)) {
    std::cerr << "check-build: " << error << "\n";
    return 1;
  }
  Failures failures;
  for (const char* check : {"one_route_per_host", "local_route", "one_splice", "tree",
                            "image_lookup"}) {
    failures.Declare(check);
  }
  if (table.duplicates() > 0) {
    failures.Add("one_route_per_host", std::to_string(table.duplicates()) + " duplicate names");
  }
  std::vector<std::string> hosts = ReadLines(flags["--hosts"]);
  for (const std::string& host : hosts) {
    if (table.Find(host) == nullptr) {
      failures.Add("one_route_per_host", "no route for " + host);
    }
  }
  const RefRoute* local = table.Find(flags["--local"]);
  if (local == nullptr || local->route != "%s" || local->cost != 0) {
    failures.Add("local_route", "local host " + flags["--local"] + " is not %s at cost 0");
  }
  std::unordered_map<std::string_view, long> cheapest;
  cheapest.reserve(table.routes().size());
  for (const auto& [name, route] : table.routes()) {
    auto [it, inserted] = cheapest.try_emplace(route.route, route.cost);
    if (!inserted && route.cost < it->second) {
      it->second = route.cost;
    }
  }
  for (const auto& [name, route] : table.routes()) {
    if (Occurrences(route.route, "%s") != 1) {
      failures.Add("one_splice", name + " -> " + route.route);
      continue;
    }
    std::string parent = Parent(route.route);
    if (parent.empty()) {
      continue;
    }
    auto it = cheapest.find(parent);
    if (it == cheapest.end() || it->second > route.cost) {
      failures.Add("tree", name + " -> " + route.route + " has no printed parent " + parent +
                               " of cost <= " + std::to_string(route.cost));
    }
  }
  size_t lookups = 0;
  if (flags.count("--image") != 0) {
    std::optional<pathalias::FrozenImage> image = pathalias::FrozenImage::Open(
        flags["--image"], pathalias::image::ImageView::Verify::kStructure, &error);
    if (!image) {
      failures.Add("image_lookup", "cannot open image: " + error);
    } else {
      if (image->routes().size() != table.routes().size()) {
        failures.Add("image_lookup", "image holds " + std::to_string(image->routes().size()) +
                                         " routes, text " + std::to_string(table.routes().size()));
      }
      for (const auto& [name, route] : table.routes()) {
        ++lookups;
        pathalias::RouteView view = image->routes().FindRouteView(std::string_view(name));
        if (!view.ok() || view.route != route.route || view.cost != route.cost) {
          failures.Add("image_lookup", name + " differs between image and text");
        }
      }
    }
  }
  std::cout << "check-build: routes=" << table.routes().size() << " hosts=" << hosts.size()
            << " image_lookups=" << lookups << failures.Summary() << "\n";
  return failures.total() == 0 ? 0 : 1;
}

int RunCheckBatch(int argc, char** argv) {
  std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  RouteTable table;
  std::string error;
  if (!table.ParseFile(flags["--routes"], &error)) {
    std::cerr << "check-batch: " << error << "\n";
    return 1;
  }
  std::vector<std::string> queries = ReadLines(flags["--queries"]);
  std::vector<std::string> kinds = ReadLines(flags["--kinds"]);
  std::vector<std::string> output = ReadLines(flags["--output"]);
  Failures failures;
  failures.Declare("answer");
  failures.Declare("record");
  if (output.size() != queries.size() || kinds.size() != queries.size()) {
    failures.Add("answer", std::to_string(output.size()) + " output lines for " +
                               std::to_string(queries.size()) + " queries");
  }
  size_t counts[3] = {0, 0, 0};
  for (size_t i = 0; i < output.size() && i < queries.size() && i < kinds.size(); ++i) {
    std::vector<std::string_view> fields = SplitOn(output[i], '\t');
    RefAnswer answer = table.Resolve(queries[i]);
    std::string_view expected = answer.kind == RefKind::kMiss ? "*miss*" : answer.via;
    if (fields.size() != 2 || fields[0] != queries[i] || fields[1] != expected) {
      failures.Add("answer", "line " + std::to_string(i + 1) + ": " + output[i] +
                                 " (expected " + std::string(expected) + ")");
    }
    if (answer.kind != KindOf(kinds[i][0])) {
      failures.Add("record", queries[i] + " recorded as " + kinds[i]);
    }
    ++counts[static_cast<int>(answer.kind)];
  }
  std::cout << "check-batch: queries=" << queries.size() << " exact=" << counts[0]
            << " suffix=" << counts[1] << " miss=" << counts[2] << failures.Summary() << "\n";
  return failures.total() == 0 ? 0 : 1;
}

}  // namespace perfbench
