// Quickstart: the paper's tutorial application (section 3).
//
// Converts a string to uppercase in parallel by splitting it into its
// individual characters, routing them round-robin over a thread collection
// spread across the cluster, and merging them back in order.
//
// Usage: quickstart [--trace out.json] [nodes] [text...]
//
// With --trace the run is recorded by the flight recorder and written as
// Chrome tracing JSON: open chrome://tracing or https://ui.perfetto.dev and
// load the file to see the split, the round-robin leaf executions, and the
// collecting merge overlap in time.
#include <cctype>
#include <cstring>
#include <fstream>
#include <iostream>

#include "core/application.hpp"
#include "core/controller.hpp"
#include "obs/trace.hpp"
#include "obs/trace_format.hpp"
#include "util/mapping.hpp"

using namespace dps;

namespace {

constexpr int kMaxString = 256;

// --- Data objects (paper: "Expressing data objects") -------------------------

class StringToken : public SimpleToken {
 public:
  char str[kMaxString];
  int len;
  StringToken(const char* s = "") : str{}, len(0) {
    len = static_cast<int>(std::strlen(s));
    if (len >= kMaxString) len = kMaxString - 1;
    std::memcpy(str, s, static_cast<size_t>(len));
  }
  DPS_IDENTIFY(StringToken);
};

class CharToken : public SimpleToken {
 public:
  char chr;  // a character
  int pos;   // its position within the string
  CharToken(char c = 0, int p = 0) : chr(c), pos(p) {}
  DPS_IDENTIFY(CharToken);
};

// --- Threads (paper: "Expressing threads and routing functions") -------------

class MainThread : public Thread {
  DPS_IDENTIFY_THREAD(MainThread);
};

class ComputeThread : public Thread {
  DPS_IDENTIFY_THREAD(ComputeThread);
};

DPS_ROUTE(MainRoute, MainThread, StringToken, 0);
DPS_ROUTE(MainCharRoute, MainThread, CharToken, 0);
DPS_ROUTE(RoundRobinRoute, ComputeThread, CharToken,
          currentToken->pos % threadCount());

// --- Operations (paper: "Expressing operations") ------------------------------

class SplitString
    : public SplitOperation<MainThread, TV1(StringToken), TV1(CharToken)> {
 public:
  void execute(StringToken* in) override {
    // Post one token for each character.
    for (int i = 0; i < in->len; ++i) postToken(new CharToken(in->str[i], i));
  }
  DPS_IDENTIFY_OPERATION(SplitString);
};

class ToUpperCase
    : public LeafOperation<ComputeThread, TV1(CharToken), TV1(CharToken)> {
 public:
  void execute(CharToken* in) override {
    // Post the uppercase equivalent of the incoming character.
    postToken(new CharToken(
        static_cast<char>(std::toupper(static_cast<unsigned char>(in->chr))),
        in->pos));
  }
  DPS_IDENTIFY_OPERATION(ToUpperCase);
};

class MergeString
    : public MergeOperation<MainThread, TV1(CharToken), TV1(StringToken)> {
 public:
  void execute(CharToken* first) override {
    StringToken* out = new StringToken();
    Ptr<Token> cur(first);
    do {
      // Store incoming characters at the appropriate position.
      auto c = token_cast<CharToken>(cur);
      out->str[c->pos] = c->chr;
      if (c->pos + 1 > out->len) out->len = c->pos + 1;
    } while ((cur = waitForNextToken()));  // wait for all chars
    postToken(out);
  }
  DPS_IDENTIFY_OPERATION(MergeString);
};

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  int arg = 1;
  if (arg + 1 < argc && std::strcmp(argv[arg], "--trace") == 0) {
    trace_path = argv[arg + 1];
    arg += 2;
    dps::obs::Trace::instance().configure(
        {/*enabled=*/true, /*sample_every=*/1, /*buffer_capacity=*/1u << 16});
  }
  const int nodes = argc > arg ? std::max(1, std::atoi(argv[arg])) : 3;
  std::string text = "hello, dynamic parallel schedules!";
  if (argc > arg + 1) {
    text.clear();
    for (int i = arg + 1; i < argc; ++i) {
      if (i > arg + 1) text += ' ';
      text += argv[i];
    }
  }

  // A cluster of in-process nodes: tokens crossing node boundaries take the
  // full serialization path (the paper's several-kernels-per-host mode).
  Cluster cluster(ClusterConfig::inproc(nodes));
  Application app(cluster, "quickstart");

  // Thread collections are created and mapped dynamically at run time.
  auto main_threads = app.thread_collection<MainThread>("main");
  main_threads->map("node0");
  auto compute_threads = app.thread_collection<ComputeThread>("proc");
  std::vector<std::string> names;
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    names.push_back(cluster.node_name(static_cast<NodeId>(i)));
  }
  compute_threads->map(round_robin_mapping(names, nodes * 2));

  // The flow graph, built with overloaded operators (checked at compile
  // time: linking incompatible operations does not compile).
  FlowgraphBuilder builder =
      FlowgraphNode<SplitString, MainRoute>(main_threads) >>
      FlowgraphNode<ToUpperCase, RoundRobinRoute>(compute_threads) >>
      FlowgraphNode<MergeString, MainCharRoute>(main_threads);
  auto graph = app.build_graph(builder, "toupper");

  ActorScope scope(cluster.domain(), "main");
  auto result = token_cast<StringToken>(graph->call(new StringToken(text.c_str())));
  if (!result) {
    std::cerr << "no result!\n";
    return 1;
  }
  std::cout << "input : " << text << "\n";
  std::cout << "output: " << std::string(result->str, static_cast<size_t>(result->len))
            << "\n";
  std::cout << "(" << nodes << " nodes, " << nodes * 2
            << " compute threads, " << cluster.fabric().messages_sent()
            << " inter-node messages)\n";

  if (!trace_path.empty()) {
    auto events = dps::obs::Trace::instance().collect();
    dps::obs::Trace::instance().set_enabled(false);
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "cannot write " << trace_path << "\n";
      return 1;
    }
    dps::obs::write_chrome_trace(out, events);
    std::cout << "trace : " << events.size() << " events -> " << trace_path
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  return 0;
}
