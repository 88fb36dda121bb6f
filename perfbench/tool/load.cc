// `perfbench_tool load` and `perfbench_tool dump`: clients of a running routedbd.
//
//   load (--socket PATH | --udp PORT) --requests F --phases RATE:MS[,RATE:MS...]
//        [--routes R] [--until-file F] [--busy-poll 1] --out OUT.json
//       Open-loop load.  Each phase sends requests on a fixed schedule (request i
//       is due at phase start + i/RATE) whatever the replies do, for MS
//       milliseconds, or, with --until-file, until that file exists (MS then
//       caps the phase).  Every latency is timed from the request's due time,
//       so a stall also charges the requests queued behind it.  With --routes
//       every answer is compared with the reference resolver and the
//       generator's record; without it an answer only has to be complete (the
//       update workload's image changes under the stream).  A request
//       unanswered for 200 ms is retransmitted with the same id; it fails only
//       if no reply comes within 2 s of the phase's end.  One process, two
//       threads (this one sends, a second one receives) and 16 client sockets,
//       used in turn.
//   dump (--socket PATH | --udp PORT) --names F --routes R
//       Closed loop: asks for every name in F, 64 names per request, and
//       compares each answer (status, matched key, route bytes) with the
//       reference resolver over R.
//
// Both print one summary line; load also writes per-phase JSON to OUT.json.

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/tool/common.h"
#include "src/net/socket.h"
#include "src/net/wire.h"

namespace perfbench {
namespace {

namespace net = pathalias::net;

constexpr int kDrainMs = 2000;  // how long a phase waits for its last replies
constexpr int kClientSockets = 16;
// A request unanswered this long is sent again with the same id, as the wire
// protocol asks of a client that hears nothing; the daemon answers a duplicate
// from its replay buffer.  The latency still counts from the first due time.
constexpr int64_t kRetransmitNs = 200'000'000;
constexpr int64_t kSpinNs = 40'000;          // spin (not sleep) this close to a due time
constexpr int64_t kSendGiveUpNs = 1'000'000'000;  // a send still refused after 1 s fails

enum Outcome : uint8_t { kPending = 0, kOk, kMismatch, kOverloaded, kBroken };

// The client side: `count` sockets, all aimed at the daemon.  Several sockets
// stand for several independent users; they also spread the replies over that
// many kernel queues (a unix datagram queue holds only net.unix.max_dgram_qlen
// datagrams, 10 by default, before the daemon's sends to it are dropped).
struct Endpoint {
  std::vector<net::DatagramSocket> sockets;
  net::PeerAddress daemon;
};

std::optional<Endpoint> Connect(const std::map<std::string, std::string>& flags,
                                const std::string& tag, int count) {
  std::string error;
  Endpoint endpoint;
  bool udp = flags.count("--udp") != 0;
  for (int i = 0; i < count; ++i) {
    std::string path = udp ? "" : flags.at("--socket") + "." + tag + std::to_string(::getpid()) +
                                      "." + std::to_string(i);
    auto socket = udp ? net::DatagramSocket::ClientUdp(&error)
                      : net::DatagramSocket::ClientForUnix(path, &error);
    if (!socket) {
      std::cerr << tag << ": " << error << "\n";
      return std::nullopt;
    }
    endpoint.sockets.push_back(std::move(*socket));
  }
  endpoint.daemon =
      udp ? net::DatagramSocket::UdpPeer(0x7f000001u,
                                         static_cast<uint16_t>(std::stoi(flags.at("--udp"))))
          : net::DatagramSocket::UnixPeer(flags.at("--socket"));
  return endpoint;
}

// Compares one reply entry with the reference; true when they agree.
bool AnswerMatches(const RouteTable& table, const Query& query, const net::ReplyResult& got,
                   bool check_record) {
  RefAnswer want = table.Resolve(query.name);
  if (check_record && want.kind != KindOf(query.kind)) {
    return false;
  }
  switch (want.kind) {
    case RefKind::kExact:
      return got.status == net::kResultExact && got.via == want.via &&
             got.route == want.route->route;
    case RefKind::kSuffix:
      return got.status == net::kResultSuffix && got.via == want.via &&
             got.route == want.route->route;
    case RefKind::kMiss:
      return got.status == net::kResultMiss;
  }
  return false;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  size_t index = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))) - 1;
  index = std::min(index, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index), values.end());
  return values[index];
}

int64_t NowNs(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count();
}

// Binds the calling thread to the `index`-th CPU this process may use, when it
// may use more than one: sender and receiver then never share or swap CPUs.
void PinToCpu(int index) {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) < 2) {
    return;
  }
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && seen++ == index) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
      return;
    }
  }
}

struct Phase {
  double rate = 0;
  int64_t ms = 0;
};

}  // namespace

int RunLoad(int argc, char** argv) {
  std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  std::vector<std::vector<Query>> requests = ReadRequests(flags["--requests"]);
  std::vector<Phase> phases;
  for (std::string_view spec : SplitOn(flags["--phases"], ',')) {
    std::vector<std::string_view> parts = SplitOn(spec, ':');
    if (parts.size() == 2) {
      phases.push_back(Phase{std::stod(std::string(parts[0])), std::stoll(std::string(parts[1]))});
    }
  }
  if (requests.empty() || phases.empty() || flags["--out"].empty()) {
    std::cerr << "usage: perfbench_tool load (--socket PATH | --udp PORT) --requests F "
                 "--phases RATE:MS[,...] [--routes R] [--until-file F] [--busy-poll 1] "
                 "--out OUT.json\n";
    return 2;
  }
  std::unique_ptr<RouteTable> table;
  if (flags.count("--routes") != 0) {
    table = std::make_unique<RouteTable>();
    std::string error;
    if (!table->ParseFile(flags["--routes"], &error)) {
      std::cerr << "load: " << error << "\n";
      return 1;
    }
  }
  std::optional<Endpoint> endpoint = Connect(flags, "load", kClientSockets);
  if (!endpoint) {
    return 1;
  }
  // Encode every request once, up front: the generator's own cost stays out of
  // the schedule.
  std::vector<std::string> encoded(requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    std::vector<std::string_view> names;
    for (const Query& query : requests[r]) {
      names.push_back(query.name);
    }
    net::EncodeRequest(0, names, &encoded[r]);
  }
  const std::string until_file = flags["--until-file"];
  // --busy-poll 1: the receiver spins instead of sleeping in poll().  A receiver
  // parked in the kernel adds its own wake-up (slow and erratic on a virtual
  // machine) to every round trip it times; spinning costs a whole CPU.
  const int poll_timeout_ms = flags["--busy-poll"] == "1" ? 0 : 20;
  size_t capacity = 0;
  for (const Phase& phase : phases) {
    capacity += static_cast<size_t>(phase.rate * static_cast<double>(phase.ms) / 1000.0) + 1;
  }
  std::vector<int64_t> due_ns(capacity);
  std::vector<int64_t> sent_ns(capacity);
  std::unique_ptr<std::atomic<int64_t>[]> recv_ns(new std::atomic<int64_t>[capacity]);
  std::unique_ptr<std::atomic<uint8_t>[]> outcome(new std::atomic<uint8_t>[capacity]);
  for (size_t i = 0; i < capacity; ++i) {
    recv_ns[i].store(0, std::memory_order_relaxed);
    outcome[i].store(kPending, std::memory_order_relaxed);
  }

  const Clock::time_point origin = Clock::now();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_replies{0};
  // Classifies one reply datagram received at `now`.
  auto settle = [&](std::string_view datagram, int64_t now, net::DecodedReply* reply,
                    std::string* error) {
    if (!net::DecodeReply(datagram, reply, error) || reply->request_id >= capacity) {
      bad_replies.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    size_t seq = static_cast<size_t>(reply->request_id);
    const std::vector<Query>& request = requests[seq % requests.size()];
    uint8_t result = kOk;
    if ((reply->flags & net::kReplyFlagOverloaded) != 0) {
      result = kOverloaded;
    } else if ((reply->flags & ~net::kReplyFlagReplayed) != 0 ||
               reply->results.size() != request.size()) {
      result = kBroken;
    } else if (table) {
      for (size_t q = 0; q < request.size(); ++q) {
        if (!AnswerMatches(*table, request[q], reply->results[q], true)) {
          result = kMismatch;
        }
      }
    }
    // The first reply settles a request; a retransmission's late twin is ignored.
    if (outcome[seq].load(std::memory_order_acquire) == kPending) {
      recv_ns[seq].store(now, std::memory_order_relaxed);
      outcome[seq].store(result, std::memory_order_release);
    }
  };
  std::thread receiver([&] {
    std::vector<char> buffer(net::kMaxDatagramBytes);
    net::DecodedReply reply;
    std::string error;
    std::vector<pollfd> fds;
    for (const net::DatagramSocket& socket : endpoint->sockets) {
      fds.push_back(pollfd{socket.fd(), POLLIN, 0});
    }
    PinToCpu(1);
    while (!stop.load(std::memory_order_acquire)) {
      if (::poll(fds.data(), fds.size(), poll_timeout_ms) <= 0) {
        continue;
      }
      for (size_t s = 0; s < fds.size(); ++s) {
        bool got = (fds[s].revents & POLLIN) != 0;
        while (got) {
          net::PeerAddress from;
          ssize_t n = endpoint->sockets[s].Recv(buffer.data(), buffer.size(), &from, &got);
          if (got) {
            settle(std::string_view(buffer.data(), static_cast<size_t>(n)), NowNs(origin), &reply,
                   &error);
          }
        }
      }
    }
  });

  PinToCpu(0);
  std::ostringstream json;
  json << std::setprecision(12) << "{\"phases\": [";
  size_t seq = 0;
  uint64_t client_drops = 0;
  uint64_t client_retries = 0;
  uint64_t retransmits = 0;
  std::vector<int64_t> last_send_ns(capacity);
  // Timer slack of this process only, so the pre-send sleep wakes on time.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::string scratch;
  // Sends request `n` (its id is its sequence number).  A full daemon queue
  // (EAGAIN) is backpressure, not loss: retry until the datagram goes out, and
  // let the wait show in the latency.
  auto send = [&](size_t n) {
    scratch.assign(encoded[n % encoded.size()]);
    uint64_t id = n;
    std::memcpy(scratch.data() + offsetof(net::WireHeader, request_id), &id, sizeof(id));
    last_send_ns[n] = NowNs(origin);
    for (int64_t give_up = last_send_ns[n] + kSendGiveUpNs; NowNs(origin) < give_up;) {
      bool dropped = false;
      if (endpoint->sockets[n % endpoint->sockets.size()].SendTo(scratch, endpoint->daemon,
                                                                 &dropped)) {
        return true;
      }
      if (!dropped) {
        return false;
      }
      ++client_retries;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    return false;
  };
  // Advances *settled past answered requests and re-sends those in
  // [*settled, end) that have waited kRetransmitNs since their last send.
  auto retransmit = [&](size_t* settled, size_t end) {
    while (*settled < end && outcome[*settled].load(std::memory_order_acquire) != kPending) {
      ++*settled;
    }
    int64_t now = NowNs(origin);
    for (size_t n = *settled; n < end; ++n) {
      if (outcome[n].load(std::memory_order_acquire) == kPending &&
          now - last_send_ns[n] >= kRetransmitNs) {
        ++retransmits;
        send(n);
      }
    }
    return *settled == end;
  };
  for (size_t p = 0; p < phases.size(); ++p) {
    const Phase& phase = phases[p];
    const size_t first = seq;
    size_t settled = first;
    const int64_t start = NowNs(origin);
    const double interval_ns = 1e9 / phase.rate;
    int64_t next_file_check = start;
    int64_t next_retransmit_check = start;
    for (size_t i = 0;; ++i) {
      int64_t due = start + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
      if (due - start >= phase.ms * 1'000'000 || seq >= capacity) {
        break;
      }
      if (!until_file.empty() && due >= next_file_check) {
        if (std::filesystem::exists(until_file)) {
          break;
        }
        next_file_check = due + 10'000'000;
      }
      if (due >= next_retransmit_check) {
        retransmit(&settled, seq);
        next_retransmit_check = due + 10'000'000;
      }
      // Sleep to just short of the due time, then spin the rest.
      int64_t wait = due - NowNs(origin);
      if (wait > kSpinNs) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait - kSpinNs));
      }
      while (NowNs(origin) < due) {
      }
      due_ns[seq] = due;
      sent_ns[seq] = NowNs(origin);
      if (!send(seq)) {
        ++client_drops;
        outcome[seq].store(kBroken, std::memory_order_release);
      }
      ++seq;
    }
    const int64_t end_send = NowNs(origin);
    // Drain: wait for every reply of this phase, up to kDrainMs.
    while (NowNs(origin) - end_send < int64_t{kDrainMs} * 1'000'000 &&
           !retransmit(&settled, seq)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<double> latency_us;
    std::vector<double> late_half_us;
    std::vector<double> lag_us;
    size_t counts[5] = {0, 0, 0, 0, 0};
    size_t queries = 0;
    for (size_t i = first; i < seq; ++i) {
      uint8_t result = outcome[i].load(std::memory_order_acquire);
      ++counts[result];
      queries += requests[i % requests.size()].size();
      lag_us.push_back(static_cast<double>(sent_ns[i] - due_ns[i]) / 1000.0);
      if (result == kOk || result == kMismatch) {
        double us = static_cast<double>(recv_ns[i].load(std::memory_order_relaxed) - due_ns[i]) /
                    1000.0;
        latency_us.push_back(us);
        if (i >= first + (seq - first) / 2) {
          late_half_us.push_back(us);
        }
      }
    }
    double seconds = static_cast<double>(end_send - start) / 1e9;
    json << (p == 0 ? "" : ", ") << "{\"rate\": " << phase.rate << ", \"seconds\": " << seconds
         << ", \"sent\": " << (seq - first) << ", \"queries\": " << queries
         << ", \"answered\": " << (counts[kOk] + counts[kMismatch])
         << ", \"mismatches\": " << counts[kMismatch] << ", \"overloaded\": " << counts[kOverloaded]
         << ", \"broken\": " << counts[kBroken] << ", \"timeouts\": " << counts[kPending]
         << ", \"p50_us\": " << Percentile(latency_us, 0.50)
         << ", \"p99_us\": " << Percentile(latency_us, 0.99)
         << ", \"late_half_p50_us\": " << Percentile(late_half_us, 0.50)
         << ", \"lag_p99_us\": " << Percentile(lag_us, 0.99) << "}";
    std::cout << "load: rate=" << phase.rate << " sent=" << (seq - first)
              << " answered=" << (counts[kOk] + counts[kMismatch])
              << " mismatches=" << counts[kMismatch] << " overloaded=" << counts[kOverloaded]
              << " timeouts=" << counts[kPending] << " p50_us=" << Percentile(latency_us, 0.50)
              << " p99_us=" << Percentile(latency_us, 0.99) << "\n";
  }
  stop.store(true, std::memory_order_release);
  receiver.join();
  json << "], \"client_send_drops\": " << client_drops
       << ", \"client_send_retries\": " << client_retries
       << ", \"retransmits\": " << retransmits
       << ", \"bad_replies\": " << bad_replies.load() << "}\n";
  if (!WriteWholeFile(flags["--out"], json.str())) {
    std::cerr << "load: cannot write " << flags["--out"] << "\n";
    return 1;
  }
  return 0;
}

int RunDump(int argc, char** argv) {
  std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  RouteTable table;
  std::string error;
  if (!table.ParseFile(flags["--routes"], &error)) {
    std::cerr << "dump: " << error << "\n";
    return 1;
  }
  std::vector<std::string> names = ReadLines(flags["--names"]);
  std::optional<Endpoint> endpoint = Connect(flags, "dump", 1);
  if (!endpoint) {
    return 1;
  }
  constexpr size_t kPerRequest = 64;
  std::vector<char> buffer(net::kMaxDatagramBytes);
  std::string datagram;
  net::DecodedReply reply;
  size_t mismatches = 0;
  size_t unanswered = 0;
  uint64_t id = 0;
  for (size_t first = 0; first < names.size(); first += kPerRequest) {
    size_t count = std::min(kPerRequest, names.size() - first);
    std::vector<std::string_view> batch(names.begin() + static_cast<long>(first),
                                        names.begin() + static_cast<long>(first + count));
    ++id;
    net::EncodeRequest(id, batch, &datagram);
    bool answered = false;
    for (int attempt = 0; attempt < 20 && !answered; ++attempt) {
      bool dropped = false;
      net::DatagramSocket& socket = endpoint->sockets.front();
      socket.SendTo(datagram, endpoint->daemon, &dropped);
      while (!answered && socket.WaitReadable(attempt < 5 ? 50 : 500)) {
        net::PeerAddress from;
        bool got = false;
        ssize_t n = socket.Recv(buffer.data(), buffer.size(), &from, &got);
        if (!got || !net::DecodeReply(std::string_view(buffer.data(), static_cast<size_t>(n)),
                                      &reply, &error) ||
            reply.request_id != id) {
          continue;
        }
        if ((reply.flags & net::kReplyFlagOverloaded) != 0) {
          break;  // shed: retransmit the same id
        }
        answered = true;
        if (reply.results.size() != count) {
          mismatches += count;
          break;
        }
        for (size_t q = 0; q < count; ++q) {
          if (!AnswerMatches(table, Query{'h', std::string(batch[q])}, reply.results[q], false)) {
            if (++mismatches <= 3) {
              std::cerr << "dump: answer for " << batch[q] << " differs from the reference\n";
            }
          }
        }
      }
    }
    unanswered += answered ? 0 : count;
  }
  std::cout << "dump: names=" << names.size() << " mismatches=" << mismatches
            << " unanswered=" << unanswered << "\n";
  return mismatches == 0 && unanswered == 0 ? 0 : 1;
}

}  // namespace perfbench
