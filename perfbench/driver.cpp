// perfbench_driver: runs one workload and writes what it measured as JSON.
//
//   perfbench_driver --workload ring-1k-tcp --seed 1 --seconds 10 --trace 0
//                    --out raw.json [--spans spans.csv]
//
// --trace 0 times the workload's set-up 15 times and then runs it for
// --seconds with tracing off. --trace 1 splits --seconds over the layer
// ladder: the workload untraced and traced (for the tracing overhead), the
// workload over the in-process transport, raw sockets, the bare fabric,
// a fabric ping-pong, a standalone shm pair and the token codec. run.py
// turns the output into metrics.
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "serial/buffer_pool.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace {

constexpr int kSetups = 15;
constexpr int kRttFrameBytes = 1600;
constexpr size_t kSpanCapacity = size_t{1} << 20;

const Workload kWorkloads[] = {
    {"ring-1k-tcp", true, Transport::kTcp, 1000, 1024},
    {"ring-100k-tcp", true, Transport::kTcp, 100000, 96},
    {"ring-1k-shm", true, Transport::kShm, 1000, 1024},
    {"calls-tcp", false, Transport::kTcp, 1600, 0},
};

const char* const kSpanNames[] = {
    "ring.call",    "svc.call",     "svc.issue",     "svc.wait",
    "fabric.send",  "fabric.batch", "fabric.round",  "fabric.rtt",
    "sockets.round", "serial.encode", "serial.decode",
};
static_assert(std::size(kSpanNames) == static_cast<size_t>(SpanName::kCount));

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- minimal JSON output ----------------------------------------------------

void put(std::ostream& o, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  o << buf;
}

void put(std::ostream& o, const std::vector<double>& v) {
  o << '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i != 0) o << ',';
    put(o, v[i]);
  }
  o << ']';
}

void put(std::ostream& o, const std::string& s) {
  o << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o << ' ';
    } else {
      o << c;
    }
  }
  o << '"';
}

void put(std::ostream& o, const std::vector<HostSample>& v) {
  o << '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i != 0) o << ',';
    put(o, std::vector<double>(v[i].begin(), v[i].end()));
  }
  o << ']';
}

void put(std::ostream& o, const RunStats& s) {
  auto num = [&](const char* k, double v) {
    o << '"' << k << "\":";
    put(o, v);
    o << ',';
  };
  o << '{';
  num("wall_s", s.wall_s);
  num("cpu_s", s.cpu_s);
  num("ops", static_cast<double>(s.ops));
  num("failed_ops", static_cast<double>(s.failed_ops));
  num("frames", static_cast<double>(s.frames));
  num("wire_bytes", static_cast<double>(s.wire_bytes));
  num("dispatched", static_cast<double>(s.dispatched));
  num("pool_acquires", static_cast<double>(s.pool_acquires));
  num("pool_reuses", static_cast<double>(s.pool_reuses));
  num("encode_growths", static_cast<double>(s.encode_growths));
  num("leaked_flow_accounts", static_cast<double>(s.leaked_flow_accounts));
  o << "\"call_ms\":";
  put(o, s.call_ms);
  o << ",\"call_bytes\":";
  put(o, s.call_bytes);
  o << ",\"call_end_s\":";
  put(o, s.call_end_s);
  o << ",\"late_ms\":";
  put(o, s.late_ms);
  o << ",\"host\":";
  put(o, s.host);
  o << ",\"errors\":[";
  for (size_t i = 0; i < s.errors.size(); ++i) {
    if (i != 0) o << ',';
    put(o, s.errors[i]);
  }
  o << "]}";
}

struct Args {
  std::string workload, out, spans;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--out") {
      a->out = v;
    } else if (k == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->out.empty() &&
         a->seconds > 0 && (!a->trace || !a->spans.empty());
}

int run(const Args& a) {
  Workload w;
  if (!find_workload(a.workload, &w)) {
    std::cerr << "unknown workload '" << a.workload << "'\n";
    return 2;
  }
  std::ostringstream o;
  o << "{\"workload\":";
  put(o, w.name);
  o << ",\"seed\":" << a.seed << ",\"trace\":" << (a.trace ? 1 : 0)
    << ",\"block_bytes\":" << w.block_bytes;

  const double S = a.seconds;
  if (!a.trace) {
    std::vector<HostSample> setups;
    const RunStats e2e = run_workload(w, w.transport, a.seed, S, &setups);
    // Peak RSS covers one set-up and the timed run; the remaining set-ups
    // come after it so their allocator churn does not move the peak.
    o << ",\"peak_rss_mb\":";
    put(o, peak_rss_mb());
    time_setups(w, w.transport, a.seed, kSetups - 1, &setups);
    o << ",\"setups\":";
    put(o, setups);
    o << ",\"runs\":{\"e2e\":";
    put(o, e2e);
    o << '}';
  } else {
    // Shares of --seconds: the e2e pair gets half, so the overhead
    // estimate compares equal-length runs back to back.
    const RunStats e2e = run_workload(w, w.transport, a.seed, 0.25 * S,
                                      nullptr);
    Spans& spans = Spans::instance();
    spans.enable(kSpanCapacity);
    const RunStats traced = run_workload(w, w.transport, a.seed, 0.25 * S,
                                         nullptr);
    spans.set_on(false);
    const RunStats inproc = run_workload(w, Transport::kInproc, a.seed,
                                         0.2 * S, nullptr);
    spans.set_on(true);
    // Bare-transport rungs use the workload's fabric; shm workloads
    // compare against TCP raw sockets, the only raw baseline there is.
    const int round = w.ring ? w.blocks_per_call : 1024;
    const std::vector<double> sockets =
        sockets_ring(w.block_bytes, round, 0.08 * S);
    const FabricRing ring =
        fabric_ring(w.transport, w.block_bytes, round, 0.08 * S);
    const std::vector<double> rtt =
        fabric_rtt(w.transport, kRttFrameBytes, 0.04 * S);
    const ShmPair pair = shm_pair(w.block_bytes, 0.04 * S);
    serial_codec(w, a.seed, 0.06 * S);
    spans.set_on(false);

    o << ",\"runs\":{\"e2e\":";
    put(o, e2e);
    o << ",\"e2e_traced\":";
    put(o, traced);
    o << ",\"inproc\":";
    put(o, inproc);
    o << "},\"ladder\":{\"sockets_mbps\":";
    put(o, sockets);
    o << ",\"fabric_mbps\":";
    put(o, ring.mbps);
    o << ",\"fabric_frames\":" << ring.frames
      << ",\"fabric_batches\":" << ring.batches << ",\"rtt_us\":";
    put(o, rtt);
    o << ",\"shm_frames\":" << pair.frames
      << ",\"shm_doorbell_wakes\":" << pair.doorbell_wakes
      << ",\"shm_space_parks\":" << pair.space_parks << '}';

    std::ofstream csv(a.spans);
    spans.write_csv(csv);
    csv.close();
    DPS_CHECK(csv.good(), "cannot write the span file");
    o << ",\"spans_dropped\":" << spans.dropped();
  }

  o << ",\"encode_growths_total\":"
    << dps::BufferPool::instance().stats().encode_growths << "}\n";

  std::ofstream out(a.out);
  out << o.str();
  out.close();
  DPS_CHECK(out.good(), "cannot write the output file");
  return 0;
}

}  // namespace

bool find_workload(const std::string& name, Workload* out) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

Spans& Spans::instance() {
  static Spans spans;
  return spans;
}

void Spans::enable(size_t capacity) {
  if (!spans_) {
    // Left uninitialized: pages are touched only as spans fill them.
    spans_.reset(new Span[capacity]);
    capacity_ = capacity;
  }
  on_.store(true, std::memory_order_relaxed);
}

void Spans::record(SpanName name, int64_t start_ns, int64_t end_ns,
                   uint64_t id, uint64_t parent, uint32_t value) {
  const size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
  if (i >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_[i] = Span{static_cast<uint32_t>(name), value, id, parent, start_ns,
                   end_ns};
}

void Spans::write_csv(std::ostream& out) const {
  out << "name,id,parent,start_ns,end_ns,value\n";
  const size_t n = std::min(cursor_.load(), capacity_);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << kSpanNames[s.name] << ',' << s.id << ',' << s.parent << ','
        << s.start_ns << ',' << s.end_ns << ',' << s.value << '\n';
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, &args)) {
    std::cerr << "usage: perfbench_driver --workload NAME --seed N --seconds S"
                 " --trace 0|1 --out FILE [--spans FILE]\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 1;
  }
}
