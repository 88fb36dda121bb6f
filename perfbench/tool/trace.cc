// `perfbench_tool trace`: the traced, in-process replay of every flow.
//
//   trace --build-dir B --update-dir U --serve-dir S --batch-size N --edits E
//         --spans OUT.json
//
// Calls each module's public functions in the order the tools call them and
// records a span (name, start, end, parent) around each call.  B holds the map
// the build flow replays (maps/, local.txt); U the 100k map and its edit script;
// S the 100k route image plus requests.txt and queries.txt.  N is the daemon's
// observed queries per batch.  Spans stay in memory and are written to OUT.json at
// the end; the last stdout line is the per-layer metrics as one JSON object.
//
// A layer's figure is its spans' self time: duration minus the time its child
// spans cover.  Each flow's own span keeps the part no layer claims, reported as
// trace.<flow>_unattributed_ms.

#include <ext/stdio_sync_filebuf.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/tool/common.h"
#include "src/core/mapper.h"
#include "src/core/route_printer.h"
#include "src/exec/batch_engine.h"
#include "src/graph/graph.h"
#include "src/image/frozen_route_set.h"
#include "src/image/image_writer.h"
#include "src/incr/map_builder.h"
#include "src/incr/state_dir.h"
#include "src/net/rollover.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/parser/lexer.h"
#include "src/parser/parser.h"
#include "src/route_db/route_db.h"
#include "src/support/durable_file.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace net = pathalias::net;

struct Span {
  std::string name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int Begin(std::string name) {
    spans_.push_back(Span{std::move(name), Now(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ns = Now();
    current_ = spans_[static_cast<size_t>(id)].parent;
  }

  // Sum of self time (ms) per span name.
  std::map<std::string, double> SelfMs() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - child_ns[i]) / 1e6;
    }
    return self;
  }
  // Total duration (ms) of spans with this name.
  double WallMs(const std::string& name) const {
    double total = 0;
    for (const Span& span : spans_) {
      total += span.name == name ? static_cast<double>(span.end_ns - span.start_ns) / 1e6 : 0.0;
    }
    return total;
  }

  std::string ToJson() const {
    std::ostringstream out;
    out << "{\"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"id\": " << i << ", \"name\": \"" << span.name
          << "\", \"start_ns\": " << span.start_ns << ", \"end_ns\": " << span.end_ns
          << ", \"parent\": " << span.parent << "}";
    }
    out << "]}\n";
    return out.str();
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

class Scoped {
 public:
  Scoped(Tracer* tracer, std::string name) : tracer_(tracer), id_(tracer->Begin(std::move(name))) {}
  ~Scoped() { tracer_->End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

constexpr double kMiB = 1024.0 * 1024.0;

std::vector<pathalias::InputFile> ReadMaps(const std::string& dir) {
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir + "/maps")) {
    paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<pathalias::InputFile> files;
  for (const std::string& path : paths) {
    pathalias::InputFile file{path, {}};
    ReadWholeFile(path, &file.content);
    files.push_back(std::move(file));
  }
  return files;
}

std::string FirstLine(const std::string& path) {
  std::vector<std::string> lines = ReadLines(path);
  return lines.empty() ? "" : lines.front();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(dir)) {
    total += entry.is_regular_file() ? entry.file_size() : 0;
  }
  return total;
}

using Metrics = std::map<std::string, double>;

// Reports a failed step of the replay; every Trace* function returns its result,
// so no figure is printed for work that did not happen.
bool Fail(const std::string& what) {
  std::cerr << "trace: " << what << "\n";
  return false;
}

// map files -> route text -> image, as `pathalias -c -l` then `routedb freeze`.
bool TraceBuild(Tracer* tracer, const std::string& dir, Metrics* m) {
  const std::string out = dir + "/trace";
  fs::create_directories(out);
  std::string local = FirstLine(dir + "/local.txt");
  Scoped flow(tracer, "flow.build");
  std::vector<pathalias::InputFile> files;
  {
    Scoped span(tracer, "tools.read");
    files = ReadMaps(dir);
  }
  {
    // A lexer-only pass, separate from the parse (the parser lexes again).
    Scoped span(tracer, "parser.lex");
    size_t tokens = 0;
    for (const pathalias::InputFile& file : files) {
      pathalias::Lexer lexer(file.content);
      while (lexer.Next().kind != pathalias::TokenKind::kEnd) {
        ++tokens;
      }
    }
    (*m)["parser.tokens"] = static_cast<double>(tokens);
  }
  pathalias::Diagnostics diag;
  diag.set_sink([](const pathalias::Diagnostic&) {});
  auto graph = std::make_unique<pathalias::Graph>(&diag);
  {
    // Parser::ParseFiles, spelled out: its return value sums each file's running
    // total, so the last ParseFile result is the true declaration count.
    Scoped span(tracer, "parser.parse");
    pathalias::Parser parser(graph.get());
    int declarations = 0;
    for (const pathalias::InputFile& file : files) {
      declarations = parser.ParseFile(file);
    }
    (*m)["parser.declarations"] = declarations;
  }
  (*m)["parser.rss_mib"] = CurrentRssMib();
  (*m)["graph.nodes"] = static_cast<double>(graph->node_count());
  (*m)["graph.links"] = static_cast<double>(graph->link_count());
  (*m)["graph.arena_mib"] = static_cast<double>(graph->arena().stats().bytes_reserved) / kMiB;
  pathalias::Mapper::Result map;
  {
    Scoped span(tracer, "core.map");
    graph->SetLocal(local);
    pathalias::Mapper mapper(graph.get(), pathalias::MapOptions{});
    map = mapper.Run();
  }
  (*m)["core.relaxations"] = static_cast<double>(map.relaxations);
  (*m)["core.heap_pops"] = static_cast<double>(map.heap_pops);
  (*m)["core.invented_links"] = static_cast<double>(map.invented_links);
  (*m)["core.back_link_passes"] = static_cast<double>(map.back_link_passes);
  pathalias::PrintOptions print;
  print.include_costs = true;
  std::vector<pathalias::RouteEntry> entries;
  {
    Scoped span(tracer, "core.route_build");
    entries = pathalias::RoutePrinter(map, print).Build();
  }
  (*m)["core.routes"] = static_cast<double>(entries.size());
  (*m)["core.rss_mib"] = CurrentRssMib();
  std::string text;
  {
    Scoped span(tracer, "core.render");
    text = pathalias::RoutePrinter::Render(entries, print);
  }
  bool written = false;
  {
    Scoped span(tracer, "tools.write");
    written = WriteWholeFile(out + "/routes.txt", text);
  }
  if (!written) {
    return Fail("cannot write " + out + "/routes.txt");
  }
  // The pathalias process ends here; the freeze process starts from the file.
  map = {};
  entries = {};
  graph.reset();
  text.clear();
  bool read = false;
  {
    Scoped span(tracer, "tools.read");
    read = ReadWholeFile(out + "/routes.txt", &text);
  }
  if (!read) {
    return Fail("cannot read " + out + "/routes.txt");
  }
  pathalias::RouteSet routes;
  {
    Scoped span(tracer, "route_db.from_text");
    routes = pathalias::RouteSet::FromText(text, &diag);
  }
  if (static_cast<double>(routes.size()) != (*m)["core.routes"]) {
    return Fail("route text re-parses to " + std::to_string(routes.size()) + " routes, " +
                std::to_string(static_cast<size_t>((*m)["core.routes"])) + " were printed");
  }
  std::string image;
  {
    Scoped span(tracer, "image.freeze");
    image = pathalias::image::ImageWriter::Freeze(routes);
  }
  (*m)["image.bytes"] = static_cast<double>(image.size());
  std::string error;
  bool published = false;
  {
    Scoped span(tracer, "support.publish");
    published = pathalias::support::PublishFileDurably(out + "/routes.pari", image,
                                                       "image.publish", &error);
  }
  if (!published) {
    return Fail("cannot publish " + out + "/routes.pari: " + error);
  }
  std::optional<pathalias::FrozenImage> verified;
  {
    Scoped span(tracer, "image.verify");
    verified = pathalias::FrozenImage::Open(
        out + "/routes.pari", pathalias::image::ImageView::Verify::kChecksum, &error);
  }
  if (!verified) {
    return Fail("published image does not verify: " + error);
  }
  if (verified->routes().size() != routes.size()) {
    return Fail("published image holds " + std::to_string(verified->routes().size()) +
                " routes, the route text " + std::to_string(routes.size()));
  }
  (*m)["image.rss_mib"] = CurrentRssMib();
  return true;
}

// One `routedb update <image> <file>` per edit, then the daemon-side
// RolloverController::CheckImage that adopts the published image.
bool TraceUpdate(Tracer* tracer, const std::string& dir, int edits, Metrics* m) {
  const std::string out = dir + "/trace";
  fs::create_directories(out);
  const std::string image_path = out + "/update.pari";
  const std::string state_dir = image_path + ".state";
  std::vector<pathalias::InputFile> files = ReadMaps(dir);
  pathalias::incr::MapBuilderOptions options;
  options.local = FirstLine(dir + "/local.txt");
  {
    // `routedb update --init`: not part of any edit's time.
    pathalias::incr::MapBuilder builder(options);
    builder.diag().set_sink([](const pathalias::Diagnostic&) {});
    if (!builder.Build(files) || builder.diag().error_count() > 0) {
      return Fail("the map in " + dir + " does not build");
    }
    std::string error;
    if (!pathalias::image::ImageWriter::Refreeze(builder.routes(), image_path, 1, &error)) {
      return Fail("cannot write " + image_path + ": " + error);
    }
    pathalias::incr::StateDirContents contents;
    contents.local = options.local;
    contents.image_generation = 1;
    contents.artifacts = builder.artifacts();
    if (!pathalias::incr::SaveStateDir(state_dir, contents)) {
      return Fail("cannot save " + state_dir);
    }
  }
  (*m)["incr.state_mib"] = static_cast<double>(DirBytes(state_dir)) / kMiB;
  net::RolloverOptions rollover_options;
  rollover_options.image_path = image_path;
  rollover_options.engine.cache_entries = 4096;
  net::RolloverController rollover(rollover_options);
  std::string error;
  if (!rollover.Start(&error)) {
    return Fail("rollover cannot start on " + image_path + ": " + error);
  }

  std::vector<std::string> script = ReadLines(dir + "/edits.tsv");
  double patched = 0;
  double rebuilt = 0;
  double dirty_nodes = 0;
  double routes_changed = 0;
  double dirty_route_ids = 0;
  int applied = 0;
  for (const std::string& line : script) {
    if (applied == edits) {
      break;
    }
    std::vector<std::string_view> fields = SplitOn(line, '\t');
    std::string file_name = dir + "/maps/" + std::string(fields[1]);
    {
      Scoped flow(tracer, "flow.update");
      pathalias::InputFile changed{file_name, {}};
      bool read = false;
      {
        Scoped span(tracer, "tools.edit_read");
        read = ReadWholeFile(dir + "/edits/" + std::string(fields[0]) + ".map",
                             &changed.content);
      }
      if (!read) {
        return Fail("cannot read edit " + std::string(fields[0]));
      }
      std::optional<pathalias::incr::StateDirContents> state;
      {
        Scoped span(tracer, "incr.state_load");
        state = pathalias::incr::LoadStateDir(state_dir, &error);
      }
      if (!state) {
        return Fail("cannot load " + state_dir + ": " + error);
      }
      pathalias::incr::MapBuilder builder(options);
      builder.diag().set_sink([](const pathalias::Diagnostic&) {});
      bool built = false;
      {
        Scoped span(tracer, "incr.replay_build");
        built = builder.BuildFromArtifacts(std::move(state->artifacts));
      }
      if (!built) {
        return Fail("retained state in " + state_dir + " no longer builds");
      }
      pathalias::incr::UpdateStats stats;
      {
        Scoped span(tracer, "incr.update");
        stats = builder.Update({changed});
      }
      if (!builder.valid() || builder.diag().error_count() > 0) {
        return Fail("edit " + std::string(fields[0]) + " left no clean map");
      }
      patched += stats.patched ? 1 : 0;
      rebuilt += stats.patched ? 0 : 1;
      dirty_nodes += static_cast<double>(stats.dirty_nodes);
      routes_changed += static_cast<double>(stats.routes_changed);
      dirty_route_ids += static_cast<double>(builder.dirty_route_ids().size());
      uint64_t generation = state->image_generation + 1;
      bool frozen = false;
      {
        Scoped span(tracer, "image.refreeze");
        frozen = pathalias::image::ImageWriter::Refreeze(builder.routes(), image_path,
                                                         generation, &error);
      }
      if (!frozen) {
        return Fail("cannot rewrite " + image_path + ": " + error);
      }
      bool saved = false;
      {
        Scoped span(tracer, "incr.state_save");
        pathalias::incr::StateDirContents contents;
        contents.local = options.local;
        contents.image_generation = generation;
        contents.artifacts = builder.artifacts();
        saved = pathalias::incr::SaveStateDir(state_dir, contents);
      }
      if (!saved) {
        return Fail("cannot save " + state_dir);
      }
    }
    // Each edit must reach the served engine: a kNoop would time only a stat.
    net::ReloadOutcome outcome;
    std::string detail;
    {
      Scoped flow(tracer, "flow.rollover");
      Scoped span(tracer, "net.check_image");
      outcome = rollover.CheckImage(&detail);
    }
    ++applied;
    if (outcome != net::ReloadOutcome::kApplied ||
        rollover.generation() != static_cast<uint64_t>(applied) ||
        rollover.image_generation() != static_cast<uint64_t>(applied) + 1) {
      return Fail("edit " + std::string(fields[0]) + " was not adopted (" + detail +
                  "; rollover generation " + std::to_string(rollover.generation()) + ")");
    }
  }
  if (applied != edits) {
    return Fail("the edit script holds " + std::to_string(applied) + " edits, " +
                std::to_string(edits) + " were asked for");
  }
  double per_edit = applied == 0 ? 1.0 : static_cast<double>(applied);
  (*m)["incr.edits"] = applied;
  (*m)["incr.patched_edits"] = patched;
  (*m)["incr.rebuilt_edits"] = rebuilt;
  (*m)["incr.dirty_nodes"] = dirty_nodes / per_edit;
  (*m)["incr.routes_changed"] = routes_changed / per_edit;
  (*m)["incr.dirty_route_ids"] = dirty_route_ids / per_edit;
  return true;
}

// Wire codec, socket floor and the serving engine, on the serve workload's
// request shapes.
bool TraceServe(Tracer* tracer, const std::string& dir, size_t batch_size, Metrics* m) {
  std::vector<std::vector<Query>> requests = ReadRequests(dir + "/requests.txt");
  std::string error;
  std::optional<pathalias::FrozenImage> image = pathalias::FrozenImage::Open(
      dir + "/routes.pari", pathalias::image::ImageView::Verify::kStructure, &error, true);
  if (!image) {
    return Fail("cannot open " + dir + "/routes.pari: " + error);
  }
  // The daemon's engine settings: one thread, 4096 cache entries.
  pathalias::exec::BatchEngineOptions engine_options;
  engine_options.cache_entries = 4096;
  pathalias::exec::FrozenBatchEngine engine(&image->routes(), engine_options);
  std::vector<std::string_view> flat;
  size_t expected_resolved = 0;
  for (const std::vector<Query>& request : requests) {
    for (const Query& query : request) {
      flat.push_back(query.name);
      expected_resolved += query.kind == 'm' ? 0 : 1;
    }
  }
  std::vector<pathalias::BatchLookup> lookups(flat.size());
  batch_size = std::max<size_t>(batch_size, 1);
  size_t resolved = 0;
  {
    Scoped span(tracer, "exec.resolve");
    for (size_t first = 0; first < flat.size(); first += batch_size) {
      size_t count = std::min(batch_size, flat.size() - first);
      resolved += engine.ResolveBatch(std::span(flat).subspan(first, count),
                                      std::span(lookups).subspan(first, count));
    }
  }
  if (resolved != expected_resolved) {
    return Fail("the serving engine resolved " + std::to_string(resolved) + " of " +
                std::to_string(flat.size()) + " queries, the generator made " +
                std::to_string(expected_resolved) + " hits and fallbacks");
  }
  (*m)["exec.cache_hit_rate"] = engine.stats().hit_rate();

  // Every codec call must succeed; the failures are counted inside the spans and
  // checked after them.
  size_t codec_failures = 0;
  std::vector<std::string> datagrams(requests.size());
  {
    Scoped span(tracer, "net.encode_request");
    std::vector<std::string_view> names;
    for (size_t r = 0; r < requests.size(); ++r) {
      names.clear();
      for (const Query& query : requests[r]) {
        names.push_back(query.name);
      }
      codec_failures += net::EncodeRequest(r, names, &datagrams[r]) ? 0 : 1;
    }
  }
  {
    Scoped span(tracer, "net.decode_request");
    net::DecodedRequest decoded;
    uint64_t recovered = 0;
    for (const std::string& datagram : datagrams) {
      codec_failures += net::DecodeRequest(datagram, &decoded, &error, &recovered) ? 0 : 1;
    }
  }
  std::vector<std::string> replies(requests.size());
  {
    // Reply entries are assembled from the lookups outside the span; only the
    // encoder is timed.
    std::vector<std::vector<net::ReplyResult>> results(requests.size());
    size_t at = 0;
    for (size_t r = 0; r < requests.size(); ++r) {
      for (size_t q = 0; q < requests[r].size(); ++q, ++at) {
        const pathalias::BatchLookup& lookup = lookups[at];
        net::ReplyResult result;
        if (lookup.route.ok()) {
          result.status = lookup.suffix_match ? net::kResultSuffix : net::kResultExact;
          result.via = image->routes().names().View(lookup.via);
          result.route = lookup.route.route;
        }
        results[r].push_back(result);
      }
    }
    Scoped span(tracer, "net.encode_reply");
    for (size_t r = 0; r < requests.size(); ++r) {
      size_t encoded = net::EncodeReply(r, 0, results[r].size(), results[r],
                                        net::kMaxDatagramBytes, &replies[r]);
      codec_failures += encoded == results[r].size() ? 0 : 1;
    }
  }
  {
    Scoped span(tracer, "net.decode_reply");
    net::DecodedReply decoded;
    for (const std::string& reply : replies) {
      codec_failures += net::DecodeReply(reply, &decoded, &error) ? 0 : 1;
    }
  }
  if (codec_failures != 0) {
    return Fail(std::to_string(codec_failures) + " wire encodes or decodes failed");
  }
  double per_datagram = static_cast<double>(std::max<size_t>(requests.size(), 1));
  (*m)["net.encode_request_ns"] = tracer->WallMs("net.encode_request") * 1e6 / per_datagram;
  (*m)["net.decode_request_ns"] = tracer->WallMs("net.decode_request") * 1e6 / per_datagram;
  (*m)["net.encode_reply_ns"] = tracer->WallMs("net.encode_reply") * 1e6 / per_datagram;
  (*m)["net.decode_reply_ns"] = tracer->WallMs("net.decode_reply") * 1e6 / per_datagram;
  (*m)["exec.resolve_ns"] =
      tracer->WallMs("exec.resolve") * 1e6 / static_cast<double>(std::max<size_t>(flat.size(), 1));

  // Socket floor: unix-datagram ping-pong with an echo thread, no daemon.
  const std::string server_path = dir + "/trace_rtt.sock";
  auto server = net::DatagramSocket::BindUnix(server_path, &error);
  auto client = net::DatagramSocket::ClientForUnix(server_path + ".c", &error);
  if (!server || !client) {
    return Fail(error);
  }
  constexpr int kPings = 4000;
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    std::vector<char> buffer(net::kMaxDatagramBytes);
    while (!stop.load()) {
      if (!server->WaitReadable(100)) {
        continue;
      }
      net::PeerAddress from;
      bool got = false;
      ssize_t n = server->Recv(buffer.data(), buffer.size(), &from, &got);
      if (got) {
        bool dropped = false;
        server->SendTo(std::string_view(buffer.data(), static_cast<size_t>(n)), from, &dropped);
      }
    }
  });
  net::PeerAddress to = net::DatagramSocket::UnixPeer(server_path);
  std::vector<char> buffer(net::kMaxDatagramBytes);
  std::vector<double> rtt_us;
  for (int i = 0; i < kPings; ++i) {
    const std::string& datagram = datagrams[static_cast<size_t>(i) % datagrams.size()];
    Clock::time_point start = Clock::now();
    bool dropped = false;
    if (!client->SendTo(datagram, to, &dropped) || !client->WaitReadable(1000)) {
      break;
    }
    net::PeerAddress from;
    bool got = false;
    ssize_t n = client->Recv(buffer.data(), buffer.size(), &from, &got);
    if (!got || static_cast<size_t>(n) != datagram.size()) {
      break;
    }
    rtt_us.push_back(SecondsSince(start) * 1e6);
  }
  stop = true;
  echo.join();
  if (rtt_us.size() != kPings) {
    return Fail("socket ping-pong lost a datagram after " + std::to_string(rtt_us.size()) +
                " round trips");
  }
  std::nth_element(rtt_us.begin(), rtt_us.begin() + kPings / 2, rtt_us.end());
  (*m)["net.socket_rtt_us"] = rtt_us[kPings / 2];
  return true;
}

// `routedb batch --image` with default settings: one thread, cache off, chunks of
// 65536 lines.
bool TraceBatch(Tracer* tracer, const std::string& dir, Metrics* m) {
  constexpr size_t kChunkLines = 65536;
  Scoped flow(tracer, "flow.batch");
  std::string error;
  std::optional<pathalias::FrozenImage> image;
  {
    Scoped span(tracer, "image.open");
    image = pathalias::FrozenImage::Open(dir + "/routes.pari",
                                         pathalias::image::ImageView::Verify::kStructure, &error,
                                         /*readahead=*/true);
  }
  if (!image) {
    return Fail("cannot open image: " + error);
  }
  pathalias::exec::FrozenBatchEngine engine(&image->routes(),
                                            pathalias::exec::BatchEngineOptions{});
  std::ifstream in(dir + "/queries.txt");
  if (!in) {
    return Fail("cannot read " + dir + "/queries.txt");
  }
  // routedb writes through std::cout synchronized with C stdio; write the same way.
  std::FILE* out_file = std::fopen((dir + "/trace_batch.out").c_str(), "w");
  if (out_file == nullptr) {
    return Fail("cannot write " + dir + "/trace_batch.out");
  }
  __gnu_cxx::stdio_sync_filebuf<char> out_buffer(out_file);
  std::ostream out(&out_buffer);
  std::vector<std::string> hosts;
  std::vector<std::string_view> queries;
  std::vector<pathalias::BatchLookup> results;
  std::string line;
  size_t total = 0;
  size_t resolved = 0;
  size_t suffix = 0;
  bool eof = false;
  while (!eof) {
    {
      Scoped span(tracer, "tools.io");
      hosts.clear();
      while (hosts.size() < kChunkLines) {
        if (!std::getline(in, line)) {
          eof = true;
          break;
        }
        if (!line.empty()) {
          hosts.push_back(line);
        }
      }
      queries.assign(hosts.begin(), hosts.end());
      results.assign(queries.size(), pathalias::BatchLookup{});
    }
    {
      Scoped span(tracer, "route_db.resolve");
      resolved += engine.ResolveBatch(queries, results);
    }
    Scoped span(tracer, "tools.io");
    for (size_t i = 0; i < queries.size(); ++i) {
      if (results[i].route.ok()) {
        suffix += results[i].suffix_match ? 1 : 0;
        out << queries[i] << "\t" << image->routes().names().View(results[i].via) << "\n";
      } else {
        out << queries[i] << "\t*miss*\n";
      }
    }
    total += queries.size();
  }
  out.flush();
  bool written = static_cast<bool>(out);
  if (std::fclose(out_file) != 0 || !written) {
    return Fail("cannot write " + dir + "/trace_batch.out");
  }
  (*m)["route_db.resolved"] = static_cast<double>(resolved);
  (*m)["route_db.suffix_matches"] = static_cast<double>(suffix);
  (*m)["route_db.resolve_ns"] =
      tracer->WallMs("route_db.resolve") * 1e6 / static_cast<double>(std::max<size_t>(total, 1));
  return true;
}

}  // namespace

int RunTrace(int argc, char** argv) {
  std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  for (const char* required : {"--build-dir", "--update-dir", "--serve-dir", "--spans"}) {
    if (flags[required].empty()) {
      std::cerr << "usage: perfbench_tool trace --build-dir B --update-dir U --serve-dir S "
                   "--batch-size N --edits E --spans OUT.json\n";
      return 2;
    }
  }
  size_t batch_size = flags["--batch-size"].empty() ? 1 : std::stoul(flags["--batch-size"]);
  int edits = flags["--edits"].empty() ? 3 : std::stoi(flags["--edits"]);
  Tracer tracer;
  Metrics m;
  if (!TraceBuild(&tracer, flags["--build-dir"], &m) ||
      !TraceUpdate(&tracer, flags["--update-dir"], edits, &m) ||
      !TraceServe(&tracer, flags["--serve-dir"], batch_size, &m) ||
      !TraceBatch(&tracer, flags["--serve-dir"], &m)) {
    return 1;
  }

  std::map<std::string, double> self = tracer.SelfMs();
  double per_edit = std::max(1.0, m["incr.edits"]);
  auto ms = [&](const std::string& name, double divisor = 1.0) {
    return self.count(name) == 0 ? 0.0 : self[name] / divisor;
  };
  // Layers that run once per traced run, then the update flow's, per edit.
  for (const char* layer : {"tools.read", "parser.lex", "parser.parse", "core.map",
                            "core.route_build", "core.render", "tools.write",
                            "route_db.from_text", "image.freeze", "support.publish",
                            "image.verify", "image.open", "tools.io"}) {
    m[std::string(layer) + "_ms"] = ms(layer);
  }
  for (const char* layer : {"tools.edit_read", "incr.state_load", "incr.replay_build",
                            "incr.update", "image.refreeze", "incr.state_save",
                            "net.check_image"}) {
    m[std::string(layer) + "_ms"] = ms(layer, per_edit);
  }
  m["trace.build_wall_ms"] = tracer.WallMs("flow.build");
  m["trace.build_unattributed_ms"] = ms("flow.build");
  m["trace.update_wall_ms"] = tracer.WallMs("flow.update") / per_edit;
  m["trace.update_unattributed_ms"] = ms("flow.update", per_edit);
  m["trace.batch_wall_ms"] = tracer.WallMs("flow.batch");
  m["trace.batch_unattributed_ms"] = ms("flow.batch");

  if (!WriteWholeFile(flags["--spans"], tracer.ToJson())) {
    std::cerr << "trace: cannot write " << flags["--spans"] << "\n";
    return 1;
  }
  std::cout << std::setprecision(12) << "{";
  bool first = true;
  for (const auto& [name, value] : m) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  std::cout << "}\n";
  return 0;
}

}  // namespace perfbench
