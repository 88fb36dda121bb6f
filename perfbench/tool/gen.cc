// `perfbench_tool gen`: the benchmark's seeded inputs.
//
//   gen --hosts N --seed S --dir D [--requests R] [--queries Q] [--edits E]
//
// Writes into D:
//   maps/*.map     the usenet-scale map mapgen's library emits for N hosts and seed S
//   hosts.txt      every host name mapgen reports emitting (one route each expected)
//   local.txt      the suggested local host (the Dijkstra source)
//   requests.txt   R serve requests, 1-4 queries each, `k:name` tokens where k is the
//                  generator's record: h = known host, s = domain-suffix fallback,
//                  m = unknown host
//   queries.txt    Q batch query lines (names only); queries.kind holds the records
//   edits.tsv      E single-file edits: id, file, kind, marker host, declaring host;
//   edits/ID.map   the edited file's full new content
//   inputs.json    the make-up of all of the above
//
// Query mix: 80% hits, 12% suffix fallbacks, 8% misses.  Hits are a Zipf(1.0) draw
// over a seeded permutation of all hosts; a fallback is a fresh label prepended to a
// Zipf-drawn domain member; a miss is a name with an upper-case letter, which no
// generated host has.  The mix, the skew and the 1-4 names per request are
// assumptions, not taken from any trace of real lookups (see perfbench/README.md).  Every edit touches a different file, so each one applies to
// that file's original text, and each adds one marker link `X marker(DAILY)`.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "perfbench/tool/common.h"
#include "src/mapgen/mapgen.h"

namespace perfbench {
namespace {

constexpr double kZipfExponent = 1.0;
constexpr int kHitPercent = 80;
constexpr int kSuffixPercent = 12;  // the rest are misses

// Zipf(s) over `pool`, ranked by a seeded permutation.
class ZipfDraw {
 public:
  ZipfDraw(const std::vector<std::string>* pool, std::mt19937_64* rng) : pool_(pool) {
    rank_.resize(pool->size());
    for (size_t i = 0; i < rank_.size(); ++i) {
      rank_[i] = static_cast<uint32_t>(i);
    }
    std::shuffle(rank_.begin(), rank_.end(), *rng);
    cdf_.resize(pool->size());
    double total = 0;
    for (size_t i = 0; i < cdf_.size(); ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
      cdf_[i] = total;
    }
    for (double& value : cdf_) {
      value /= total;
    }
  }

  const std::string& Next(std::mt19937_64* rng) {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
    size_t i = static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return (*pool_)[rank_[std::min(i, rank_.size() - 1)]];
  }

 private:
  const std::vector<std::string>* pool_;
  std::vector<uint32_t> rank_;
  std::vector<double> cdf_;
};

std::string RandomLabel(std::mt19937_64* rng, size_t length) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string label;
  for (size_t i = 0; i < length; ++i) {
    label.push_back(kAlphabet[(*rng)() % 36]);
  }
  return label;
}

struct QueryMix {
  size_t hits = 0;
  size_t suffixes = 0;
  size_t misses = 0;
};

class QueryMaker {
 public:
  QueryMaker(const pathalias::GeneratedMap& map, const std::vector<std::string>& hosts,
             uint64_t seed)
      : rng_(seed), hosts_(&hosts, &rng_), members_(&map.domain_members, &rng_) {}

  Query Next(QueryMix* mix) {
    int roll = static_cast<int>(rng_() % 100);
    if (roll < kHitPercent) {
      ++mix->hits;
      return Query{'h', hosts_.Next(&rng_)};
    }
    if (roll < kHitPercent + kSuffixPercent) {
      ++mix->suffixes;
      return Query{'s', "fbQ" + RandomLabel(&rng_, 6) + "." + members_.Next(&rng_)};
    }
    ++mix->misses;
    return Query{'m', "nxQ" + RandomLabel(&rng_, 8)};
  }

  size_t RequestSize() { return 1 + rng_() % 4; }

 private:
  std::mt19937_64 rng_;
  ZipfDraw hosts_;
  ZipfDraw members_;
};

// One single-link declaration line `from<TAB>to(cost)` of a site file.
struct LinkLine {
  size_t index;
  std::string from;
  std::string to;
  std::string cost;
};

bool IsPlainName(std::string_view name) {
  return !name.empty() && std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
  });
}

std::vector<LinkLine> LinkLines(const std::vector<std::string>& lines) {
  std::vector<LinkLine> links;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    size_t tab = line.find('\t');
    size_t open = line.find('(');
    if (tab == std::string::npos || open == std::string::npos || line.back() != ')' ||
        open < tab) {
      continue;
    }
    std::string from = line.substr(0, tab);
    std::string to = line.substr(tab + 1, open - tab - 1);
    std::string cost = line.substr(open + 1, line.size() - open - 2);
    if (IsPlainName(from) && IsPlainName(to) && !cost.empty() &&
        cost.find_first_of(", ()") == std::string::npos) {
      links.push_back(LinkLine{i, from, to, cost});
    }
  }
  return links;
}

constexpr const char* kEditKinds[] = {"recost", "add-link", "remove-link", "new-host",
                                      "alias",  "dead"};
constexpr const char* kCostSymbols[] = {"DEDICATED", "DIRECT", "DEMAND", "HOURLY",
                                        "EVENING",   "DAILY",  "WEEKLY"};

struct EditRecord {
  std::string id;
  std::string file;
  std::string kind;
  std::string marker;
  std::string declarer;
};

// Builds `count` edits: rounds of the six plain kinds in seeded order, plus one net
// edit per round (a new net over three of the file's hosts).
std::vector<EditRecord> MakeEdits(const pathalias::GeneratedMap& map, uint64_t seed, int count,
                                  const std::string& dir) {
  std::mt19937_64 rng(seed);
  std::vector<size_t> candidates;
  for (size_t f = 0; f < map.files.size(); ++f) {
    std::vector<std::string> lines;
    for (std::string_view line : SplitOn(map.files[f].content, '\n')) {
      lines.emplace_back(line);
    }
    std::vector<LinkLine> links = LinkLines(lines);
    size_t distinct = 0;
    for (size_t i = 0; i < links.size(); ++i) {
      distinct += (i == 0 || links[i].from != links[i - 1].from) ? 1 : 0;
    }
    if (links.size() >= 6 && distinct >= 3) {
      candidates.push_back(f);
    }
  }
  std::shuffle(candidates.begin(), candidates.end(), rng);
  std::vector<std::string> kinds;
  while (kinds.size() < static_cast<size_t>(count)) {
    std::vector<std::string> round(std::begin(kEditKinds), std::end(kEditKinds));
    std::shuffle(round.begin(), round.end(), rng);
    round.insert(round.begin() + static_cast<long>(rng() % (round.size() + 1)), "net");
    kinds.insert(kinds.end(), round.begin(), round.end());
  }
  std::filesystem::create_directories(dir + "/edits");
  std::vector<EditRecord> edits;
  for (int k = 0; k < count && static_cast<size_t>(k) < candidates.size(); ++k) {
    const pathalias::InputFile& file = map.files[candidates[static_cast<size_t>(k)]];
    std::vector<std::string> lines;
    for (std::string_view line : SplitOn(file.content, '\n')) {
      lines.emplace_back(line);
    }
    if (!lines.empty() && lines.back().empty()) {
      lines.pop_back();
    }
    std::vector<LinkLine> links = LinkLines(lines);
    const LinkLine& target = links[rng() % links.size()];
    // The marker's declaring host is on another line and is neither end of the
    // edited link, so no edit can cut it off.
    std::vector<const LinkLine*> others;
    for (const LinkLine& link : links) {
      if (link.from != target.from && link.from != target.to) {
        others.push_back(&link);
      }
    }
    const LinkLine& declarer = *others[rng() % others.size()];
    std::string tag = std::to_string(k) + "s" + std::to_string(seed % 100000);
    EditRecord edit{std::to_string(1000 + k).substr(1), file.name, kinds[static_cast<size_t>(k)],
                    "pbmk" + tag, declarer.from};
    std::vector<std::string> appended;
    if (edit.kind == "recost") {
      std::string cost = target.cost;
      while (cost == target.cost) {
        cost = kCostSymbols[rng() % std::size(kCostSymbols)];
      }
      lines[target.index] = target.from + "\t" + target.to + "(" + cost + ")";
    } else if (edit.kind == "remove-link") {
      lines[target.index].clear();
    } else if (edit.kind == "add-link") {
      std::string to = target.from;
      while (to == target.from || to == target.to) {
        to = map.backbone[rng() % map.backbone.size()];
      }
      appended.push_back(target.from + "\t" + to + "(HOURLY)");
    } else if (edit.kind == "new-host") {
      appended.push_back("pbnh" + tag + "\t" + target.from + "(DAILY)");
      appended.push_back(target.from + "\tpbnh" + tag + "(EVENING)");
    } else if (edit.kind == "alias") {
      appended.push_back(target.from + " = pbal" + tag);
    } else if (edit.kind == "dead") {
      appended.push_back("dead {" + target.from + "!" + target.to + "}");
    } else {  // net
      appended.push_back("PBNET" + tag + " = {" + target.from + ", " + target.to + ", " +
                         declarer.to + "}(DEMAND)");
    }
    appended.push_back(declarer.from + "\t" + edit.marker + "(DAILY)");
    std::string content;
    for (const std::string& line : lines) {
      if (!line.empty()) {
        content += line;
        content += '\n';
      }
    }
    for (const std::string& line : appended) {
      content += line;
      content += '\n';
    }
    WriteWholeFile(dir + "/edits/" + edit.id + ".map", content);
    edits.push_back(std::move(edit));
  }
  return edits;
}

// A non-negative count flag; false when present but not a number.
bool Count(const std::map<std::string, std::string>& flags, const char* name, uint64_t* out) {
  auto it = flags.find(name);
  if (it == flags.end()) {
    return true;
  }
  char* end = nullptr;
  *out = std::strtoull(it->second.c_str(), &end, 10);
  return !it->second.empty() && *end == '\0';
}

}  // namespace

int RunGen(int argc, char** argv) {
  std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  uint64_t hosts = 0;
  uint64_t seed = 1;
  uint64_t requests = 0;
  uint64_t queries = 0;
  uint64_t edits = 0;
  const std::string dir = flags["--dir"];
  if (!Count(flags, "--hosts", &hosts) || !Count(flags, "--seed", &seed) ||
      !Count(flags, "--requests", &requests) || !Count(flags, "--queries", &queries) ||
      !Count(flags, "--edits", &edits) || hosts == 0 || dir.empty()) {
    std::cerr << "usage: perfbench_tool gen --hosts N --seed S --dir D [--requests R] "
                 "[--queries Q] [--edits E]\n";
    return 2;
  }
  pathalias::MapGenConfig config = pathalias::MapGenConfig::UsenetScale(static_cast<int>(hosts));
  config.seed = seed;
  pathalias::GeneratedMap map = pathalias::GenerateUsenetMap(config);

  std::filesystem::create_directories(dir + "/maps");
  for (const pathalias::InputFile& file : map.files) {
    WriteWholeFile(dir + "/maps/" + file.name, file.content);
  }
  std::vector<std::string> all_hosts;
  for (const auto* stratum :
       {&map.backbone, &map.regionals, &map.leaves, &map.net_members, &map.domain_members}) {
    all_hosts.insert(all_hosts.end(), stratum->begin(), stratum->end());
  }
  std::string host_text;
  for (const std::string& host : all_hosts) {
    host_text += host;
    host_text += '\n';
  }
  WriteWholeFile(dir + "/hosts.txt", host_text);
  WriteWholeFile(dir + "/local.txt", map.local + "\n");

  QueryMix request_mix;
  size_t request_queries = 0;
  if (requests > 0) {
    QueryMaker maker(map, all_hosts, seed ^ 0x5e7e5e7eULL);
    std::string text;
    for (uint64_t r = 0; r < requests; ++r) {
      size_t size = maker.RequestSize();
      request_queries += size;
      for (size_t q = 0; q < size; ++q) {
        Query query = maker.Next(&request_mix);
        text += (q == 0 ? "" : " ");
        text += query.kind;
        text += ':';
        text += query.name;
      }
      text += '\n';
    }
    WriteWholeFile(dir + "/requests.txt", text);
  }
  QueryMix batch_mix;
  if (queries > 0) {
    QueryMaker maker(map, all_hosts, seed ^ 0xba7cba7cULL);
    std::string names;
    std::string kinds;
    for (uint64_t q = 0; q < queries; ++q) {
      Query query = maker.Next(&batch_mix);
      names += query.name;
      names += '\n';
      kinds += query.kind;
      kinds += '\n';
    }
    WriteWholeFile(dir + "/queries.txt", names);
    WriteWholeFile(dir + "/queries.kind", kinds);
  }
  std::vector<EditRecord> edit_records;
  if (edits > 0) {
    edit_records = MakeEdits(map, seed ^ 0xed17ed17ULL, static_cast<int>(edits), dir);
    std::string text;
    for (const EditRecord& edit : edit_records) {
      text += edit.id + "\t" + edit.file + "\t" + edit.kind + "\t" + edit.marker + "\t" +
              edit.declarer + "\n";
    }
    WriteWholeFile(dir + "/edits.tsv", text);
  }

  size_t map_bytes = 0;
  for (const pathalias::InputFile& file : map.files) {
    map_bytes += file.content.size();
  }
  std::ostringstream json;
  json << "{\"seed\": " << seed << ", \"hosts_requested\": " << hosts
       << ", \"hosts_emitted\": " << map.host_count << ", \"host_names\": " << all_hosts.size()
       << ", \"files\": " << map.files.size() << ", \"map_bytes\": " << map_bytes
       << ", \"link_declarations\": " << map.link_declarations << ", \"nets\": " << map.net_count
       << ", \"domains\": " << map.domain_count << ", \"aliases\": " << map.alias_count
       << ", \"dead_links\": " << map.dead_link_declarations
       << ", \"dead_hosts\": " << map.dead_host_declarations << ", \"local\": \"" << map.local
       << "\", \"zipf_exponent\": " << kZipfExponent << ", \"requests\": " << requests
       << ", \"request_queries\": " << request_queries
       << ", \"request_mix\": {\"hit\": " << request_mix.hits
       << ", \"suffix\": " << request_mix.suffixes << ", \"miss\": " << request_mix.misses
       << "}, \"queries\": " << queries << ", \"query_mix\": {\"hit\": " << batch_mix.hits
       << ", \"suffix\": " << batch_mix.suffixes << ", \"miss\": " << batch_mix.misses
       << "}, \"edits\": {";
  for (size_t i = 0; i < edit_records.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << edit_records[i].id << "\": \""
         << edit_records[i].kind << "\"";
  }
  json << "}}\n";
  WriteWholeFile(dir + "/inputs.json", json.str());
  return 0;
}

}  // namespace perfbench
