// Ring data-transfer application (paper, section 4, Figure 6).
//
// "In order to evaluate the maximal data throughput when performing
// simultaneous send and receive operations, the first test transfers
// 100 MB of data along a ring of 4 PCs. The individual machines forward
// the data as soon as they receive it."
//
// The flow graph is a chain built dynamically to the ring size (one
// forwarding leaf per hop), so every block crosses every link once:
//
//   split@0 >> fwd@1 >> fwd@2 >> ... >> fwd@n-1 >> merge@0
//
// Benchmarks time the pipeline in steady state and compare against a raw
// socket baseline doing the identical forwarding.
#pragma once

#include <string>

#include "core/application.hpp"
#include "core/controller.hpp"

namespace dps::apps {

/// A payload block travelling around the ring.
class RingBlockToken : public ComplexToken {
 public:
  CT<int32_t> hop;    ///< next ring position (routes the token)
  CT<int32_t> index;  ///< block sequence number
  Buffer<uint8_t> payload;
  DPS_IDENTIFY(RingBlockToken);
};

/// Start request: how many blocks of which size to push around the ring.
class RingStartToken : public SimpleToken {
 public:
  int32_t block_count;
  int32_t block_size;
  RingStartToken(int32_t count = 0, int32_t size = 0)
      : block_count(count), block_size(size) {}
  DPS_IDENTIFY(RingStartToken);
};

/// Completion summary returned to the caller.
class RingDoneToken : public SimpleToken {
 public:
  int32_t blocks;
  int64_t payload_bytes;
  RingDoneToken(int32_t b = 0, int64_t p = 0) : blocks(b), payload_bytes(p) {}
  DPS_IDENTIFY(RingDoneToken);
};

class RingThread : public Thread {
 public:
  int64_t forwarded_bytes = 0;
  DPS_IDENTIFY_THREAD(RingThread);
};

/// Home of the merge: a one-thread collection on the split's node. Routing
/// the merge back onto ring thread 0 (hop % n == 0) would put it on the
/// split's own worker — once the flow-control window fills, the split
/// blocks that worker and the merge envelope behind it can never run.
class RingSinkThread : public Thread {
 public:
  DPS_IDENTIFY_THREAD(RingSinkThread);
};

DPS_ROUTE(RingStartRoute, RingThread, RingStartToken, 0);
DPS_ROUTE(RingHopRoute, RingThread, RingBlockToken,
          currentToken->hop % threadCount());
DPS_ROUTE(RingSinkRoute, RingSinkThread, RingBlockToken, 0);

class RingSplit
    : public SplitOperation<RingThread, TV1(RingStartToken),
                            TV1(RingBlockToken)> {
 public:
  void execute(RingStartToken* in) override {
    for (int32_t i = 0; i < in->block_count; ++i) {
      auto* block = new RingBlockToken();
      block->hop = 1;
      block->index = i;
      block->payload.resize(static_cast<size_t>(in->block_size));
      // A recognizable pattern so merges can spot corruption.
      if (in->block_size > 0) {
        block->payload[0] = static_cast<uint8_t>(i & 0xff);
      }
      postToken(block);
    }
  }
  DPS_IDENTIFY_OPERATION(RingSplit);
};

class RingForward
    : public LeafOperation<RingThread, TV1(RingBlockToken),
                           TV1(RingBlockToken)> {
 public:
  void execute(RingBlockToken* in) override {
    thread()->forwarded_bytes += static_cast<int64_t>(in->payload.size());
    // Forward the block itself: a leaf may repost an input no other
    // envelope shares, so the bytes are not copied.
    in->hop = in->hop.get() + 1;
    postToken(in);
  }
  DPS_IDENTIFY_OPERATION(RingForward);
};

class RingMerge
    : public MergeOperation<RingSinkThread, TV1(RingBlockToken),
                            TV1(RingDoneToken)> {
 public:
  void execute(RingBlockToken* first) override {
    int32_t blocks = 1;
    int64_t bytes = static_cast<int64_t>(first->payload.size());
    while (auto t = waitForNextToken()) {
      auto block = token_cast<RingBlockToken>(t);
      bytes += static_cast<int64_t>(block->payload.size());
      ++blocks;
    }
    postToken(new RingDoneToken(blocks, bytes));
  }
  DPS_IDENTIFY_OPERATION(RingMerge);
};

/// Builds the ring graph over `hops` nodes (thread i of the ring collection
/// lives on node i; the chain is grown dynamically with += to match the
/// ring size, the paper's dynamic graph construction).
inline std::shared_ptr<Flowgraph> build_ring_graph(Application& app,
                                                   int hops) {
  Cluster& cluster = app.cluster();
  DPS_CHECK(hops >= 2, "a ring needs at least two positions");
  DPS_CHECK(static_cast<size_t>(hops) <= cluster.node_count(),
            "ring larger than the cluster");
  auto ring = app.thread_collection<RingThread>("ring");
  std::string mapping;
  for (int i = 0; i < hops; ++i) {
    if (i != 0) mapping += ' ';
    mapping += cluster.node_name(static_cast<NodeId>(i));
  }
  ring->map(mapping);
  // The merge collects on its own worker so it keeps draining (and
  // acknowledging) blocks while the split's worker blocks on flow control.
  auto sink = app.thread_collection<RingSinkThread>("ring_sink");
  sink->map(cluster.node_name(0));

  FlowgraphNode<RingSplit, RingStartRoute> split(ring);
  FlowgraphNode<RingMerge, RingSinkRoute> merge(sink);
  // First hop; then grow the chain one forwarding vertex at a time.
  auto chain = split >> FlowgraphNode<RingForward, RingHopRoute>(ring);
  for (int h = 2; h < hops; ++h) {
    chain = std::move(chain) >> FlowgraphNode<RingForward, RingHopRoute>(ring);
  }
  FlowgraphBuilder builder = std::move(chain) >> merge;
  return app.build_graph(builder, "ring");
}

}  // namespace dps::apps
