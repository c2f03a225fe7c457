// Continuous streaming pipeline: the workload class of the OpenCL
// actor-network paper (PAPERS.md) grown out of the Fig. 4 video example.
//
// A paced source emits frames at a configured rate; each frame flows
// through three stages of deliberately unequal cost — decode (light),
// analyze (heavy), encode (medium) — and a final merge folds per-frame
// statistics into one report. Unlike the sim-mode video pipeline, the
// stages burn real CPU (FNV sweeps over the payload), so the wall-clock
// bench (bench/stream_video.cpp) measures true sustained tokens/s and
// per-stage latency, not modeled time.
//
// Every frame carries domain timestamps stamped as it leaves each stage;
// the merge turns them into p50/p99 per-stage and end-to-end latencies.
// The stage checksums chain (decode -> analyze -> encode), and the merge
// XORs the final values, so a run is only accepted when every frame went
// through every stage exactly once, bit-exactly — the video pipeline's
// self-check carried over to the streaming variant.
#pragma once

#include <algorithm>
#include <vector>

#include "core/application.hpp"
#include "core/controller.hpp"
#include "serial/registry.hpp"
#include "util/mapping.hpp"

namespace dps::apps {

/// Upper bound on input-rate sweep phases carried by one job.
inline constexpr int kMaxStreamPhases = 8;

/// A rate sweep: phase p offers `frames[p]` frames paced at `rate_hz[p]`.
class StreamJobToken : public SimpleToken {
 public:
  int32_t phases = 0;
  int32_t frame_bytes = 0;
  int32_t decode_passes = 1;  ///< payload sweeps per stage — unequal costs
  int32_t analyze_passes = 4;
  int32_t encode_passes = 2;
  int32_t frames[kMaxStreamPhases] = {};
  double rate_hz[kMaxStreamPhases] = {};  ///< 0 = unpaced (as fast as possible)
  DPS_IDENTIFY(StreamJobToken);
};

class StreamFrameToken : public ComplexToken {
 public:
  CT<int32_t> frame;
  CT<int32_t> phase;
  CT<int32_t> decode_passes;
  CT<int32_t> analyze_passes;
  CT<int32_t> encode_passes;
  CT<double> t_emit;      ///< domain time when the source posted the frame
  CT<double> t_decoded;   ///< stamped by the decode stage
  CT<double> t_analyzed;  ///< stamped by the analyze stage
  CT<uint64_t> checksum;  ///< chained stage checksum
  Buffer<uint8_t> data;
  DPS_IDENTIFY(StreamFrameToken);
};

/// Per-frame result: the payload is dropped after encode, only timing and
/// the chained checksum travel to the merge.
class StreamStatToken : public SimpleToken {
 public:
  int32_t frame = 0;
  int32_t phase = 0;
  double t_emit = 0, t_decoded = 0, t_analyzed = 0, t_encoded = 0;
  uint64_t checksum = 0;
  DPS_IDENTIFY(StreamStatToken);
};

/// Aggregates of one sweep phase (latencies in seconds of domain time).
struct StreamPhaseStats {
  int32_t frames = 0;
  double emit_hz = 0;       ///< achieved source pacing
  double sustained_hz = 0;  ///< completions over the phase's span
  double p50_decode = 0, p99_decode = 0;
  double p50_analyze = 0, p99_analyze = 0;
  double p50_encode = 0, p99_encode = 0;
  double p50_total = 0, p99_total = 0;
};

class StreamDoneToken : public SimpleToken {
 public:
  int32_t frames = 0;
  int32_t phases = 0;
  uint64_t checksum_xor = 0;
  StreamPhaseStats phase[kMaxStreamPhases] = {};
  DPS_IDENTIFY(StreamDoneToken);
};

class StreamSourceThread : public Thread {
  DPS_IDENTIFY_THREAD(StreamSourceThread);
};
class StreamDecodeThread : public Thread {
  DPS_IDENTIFY_THREAD(StreamDecodeThread);
};
class StreamAnalyzeThread : public Thread {
  DPS_IDENTIFY_THREAD(StreamAnalyzeThread);
};
class StreamEncodeThread : public Thread {
  DPS_IDENTIFY_THREAD(StreamEncodeThread);
};
class StreamSinkThread : public Thread {
  DPS_IDENTIFY_THREAD(StreamSinkThread);
};

DPS_ROUTE(StreamJobRoute, StreamSourceThread, StreamJobToken, 0);
DPS_ROUTE(StreamDecodeRoute, StreamDecodeThread, StreamFrameToken,
          currentToken->frame.get() % threadCount());
DPS_ROUTE(StreamAnalyzeRoute, StreamAnalyzeThread, StreamFrameToken,
          currentToken->frame.get() % threadCount());
DPS_ROUTE(StreamEncodeRoute, StreamEncodeThread, StreamFrameToken,
          currentToken->frame.get() % threadCount());
DPS_ROUTE(StreamStatRoute, StreamSinkThread, StreamStatToken, 0);

/// Deterministic payload byte of one frame.
inline uint8_t stream_frame_byte(int frame, int i) {
  return static_cast<uint8_t>((frame * 197 + i * 13 + 11) & 0xff);
}

/// One stage's compute: `passes` FNV-1a sweeps over the payload, chained
/// on the previous stage's checksum. Real CPU work — this is what the
/// wall-clock bench measures — and deterministic, so the merge can verify
/// bit-exact end-to-end flow.
inline uint64_t stream_stage_work(const uint8_t* data, size_t n, int passes,
                                  uint64_t chain) {
  uint64_t acc = chain;
  for (int p = 0; p < passes; ++p) {
    uint64_t h = 14695981039346656037ull ^ acc;
    for (size_t i = 0; i < n; ++i) {
      h ^= data[i];
      h *= 1099511628211ull;
    }
    acc = h;
  }
  return acc;
}

/// Reference: the checksum one frame carries after all three stages.
inline uint64_t stream_frame_checksum(int frame, int frame_bytes,
                                      int decode_passes, int analyze_passes,
                                      int encode_passes) {
  std::vector<uint8_t> data(static_cast<size_t>(frame_bytes));
  for (int i = 0; i < frame_bytes; ++i) {
    data[static_cast<size_t>(i)] = stream_frame_byte(frame, i);
  }
  uint64_t c = stream_stage_work(data.data(), data.size(), decode_passes, 0);
  c = stream_stage_work(data.data(), data.size(), analyze_passes, c);
  return stream_stage_work(data.data(), data.size(), encode_passes, c);
}

/// Paced source: emits each phase's frames at its configured rate. Frame k
/// of a phase is due k+1 gaps after the phase starts; the source sleeps only
/// until that deadline, so time spent posting (and oversleep) never adds
/// up. Under wall clock sleepFor really sleeps, so the offered load is
/// real; under virtual time the pacing advances the simulated clock.
class StreamSource
    : public SplitOperation<StreamSourceThread, TV1(StreamJobToken),
                            TV1(StreamFrameToken)> {
 public:
  void execute(StreamJobToken* in) override {
    DPS_CHECK(in->phases >= 1 && in->phases <= kMaxStreamPhases,
              "stream job: bad phase count");
    int total = 0;
    for (int ph = 0; ph < in->phases; ++ph) total += in->frames[ph];
    int frame_id = 0;
    for (int ph = 0; ph < in->phases; ++ph) {
      const double gap = in->rate_hz[ph] > 0 ? 1.0 / in->rate_hz[ph] : 0.0;
      const double start = now();
      for (int f = 0; f < in->frames[ph]; ++f, ++frame_id) {
        const double wait = start + (f + 1) * gap - now();
        if (wait > 0) sleepFor(wait);
        auto* t = new StreamFrameToken();
        t->frame = frame_id;
        t->phase = ph;
        t->decode_passes = in->decode_passes;
        t->analyze_passes = in->analyze_passes;
        t->encode_passes = in->encode_passes;
        t->data.resize(static_cast<size_t>(in->frame_bytes));
        for (int i = 0; i < in->frame_bytes; ++i) {
          t->data[static_cast<size_t>(i)] = stream_frame_byte(frame_id, i);
        }
        t->checksum = 0;
        t->t_emit = now();
        postToken(t);
        // The engine holds back each post so the final one can carry the
        // context total; without this flush every frame would sit in the
        // source for one full pacing gap before entering the pipeline.
        if (frame_id + 1 < total) flushTokens();
      }
    }
  }
  DPS_IDENTIFY_OPERATION(StreamSource);
};

namespace detail {
/// Copies the identity/stamp fields and payload of `in` into a fresh
/// frame token (stages forward a new token, never the one they received).
inline StreamFrameToken* clone_stream_frame(const StreamFrameToken* in) {
  auto* out = new StreamFrameToken();
  out->frame = in->frame.get();
  out->phase = in->phase.get();
  out->decode_passes = in->decode_passes.get();
  out->analyze_passes = in->analyze_passes.get();
  out->encode_passes = in->encode_passes.get();
  out->t_emit = in->t_emit.get();
  out->t_decoded = in->t_decoded.get();
  out->t_analyzed = in->t_analyzed.get();
  out->checksum = in->checksum.get();
  out->data.resize(in->data.size());
  std::copy(in->data.begin(), in->data.end(), out->data.begin());
  return out;
}
}  // namespace detail

/// Light stage: one payload sweep by default.
class StreamDecode
    : public LeafOperation<StreamDecodeThread, TV1(StreamFrameToken),
                           TV1(StreamFrameToken)> {
 public:
  void execute(StreamFrameToken* in) override {
    auto* out = detail::clone_stream_frame(in);
    out->checksum = stream_stage_work(out->data.data(), out->data.size(),
                                      in->decode_passes.get(), 0);
    out->t_decoded = now();
    postToken(out);
  }
  DPS_IDENTIFY_OPERATION(StreamDecode);
};

/// Heavy stage: the pipeline bottleneck (4 sweeps by default).
class StreamAnalyze
    : public LeafOperation<StreamAnalyzeThread, TV1(StreamFrameToken),
                           TV1(StreamFrameToken)> {
 public:
  void execute(StreamFrameToken* in) override {
    auto* out = detail::clone_stream_frame(in);
    out->checksum =
        stream_stage_work(out->data.data(), out->data.size(),
                          in->analyze_passes.get(), in->checksum.get());
    out->t_analyzed = now();
    postToken(out);
  }
  DPS_IDENTIFY_OPERATION(StreamAnalyze);
};

/// Medium stage; drops the payload and forwards only the per-frame stat.
class StreamEncode
    : public LeafOperation<StreamEncodeThread, TV1(StreamFrameToken),
                           TV1(StreamStatToken)> {
 public:
  void execute(StreamFrameToken* in) override {
    auto* out = new StreamStatToken();
    out->frame = in->frame.get();
    out->phase = in->phase.get();
    out->t_emit = in->t_emit.get();
    out->t_decoded = in->t_decoded.get();
    out->t_analyzed = in->t_analyzed.get();
    out->checksum = stream_stage_work(in->data.data(), in->data.size(),
                                      in->encode_passes.get(),
                                      in->checksum.get());
    out->t_encoded = now();
    postToken(out);
  }
  DPS_IDENTIFY_OPERATION(StreamEncode);
};

/// Folds every frame's stats into per-phase p50/p99 latencies, sustained
/// rates, and the run-wide checksum XOR.
class StreamStatsMerge
    : public MergeOperation<StreamSinkThread, TV1(StreamStatToken),
                            TV1(StreamDoneToken)> {
 public:
  void execute(StreamStatToken* first) override {
    struct Stat {
      int32_t phase;
      double t_emit, t_decoded, t_analyzed, t_encoded;
      uint64_t checksum;
    };
    std::vector<Stat> stats;
    Ptr<StreamStatToken> cur(first);
    for (;;) {
      stats.push_back(Stat{cur->phase, cur->t_emit, cur->t_decoded,
                           cur->t_analyzed, cur->t_encoded, cur->checksum});
      auto t = waitForNextToken();
      if (!t) break;
      cur = token_cast<StreamStatToken>(t);
    }

    auto* done = new StreamDoneToken();
    done->frames = static_cast<int32_t>(stats.size());
    uint64_t xor_acc = 0;
    int max_phase = 0;
    for (const Stat& s : stats) {
      xor_acc ^= s.checksum;
      max_phase = std::max(max_phase, static_cast<int>(s.phase));
    }
    done->checksum_xor = xor_acc;
    done->phases = static_cast<int32_t>(
        std::min(max_phase + 1, static_cast<int>(kMaxStreamPhases)));

    for (int ph = 0; ph < done->phases; ++ph) {
      std::vector<double> dec, ana, enc, tot;
      double emin = 0, emax = 0, cmax = 0;
      bool any = false;
      for (const Stat& s : stats) {
        if (s.phase != ph) continue;
        dec.push_back(s.t_decoded - s.t_emit);
        ana.push_back(s.t_analyzed - s.t_decoded);
        enc.push_back(s.t_encoded - s.t_analyzed);
        tot.push_back(s.t_encoded - s.t_emit);
        if (!any || s.t_emit < emin) emin = s.t_emit;
        if (!any || s.t_emit > emax) emax = s.t_emit;
        if (!any || s.t_encoded > cmax) cmax = s.t_encoded;
        any = true;
      }
      StreamPhaseStats& p = done->phase[ph];
      p.frames = static_cast<int32_t>(tot.size());
      if (p.frames > 1 && emax > emin) {
        p.emit_hz = (p.frames - 1) / (emax - emin);
      }
      if (p.frames > 0 && cmax > emin) p.sustained_hz = p.frames / (cmax - emin);
      p.p50_decode = percentile(dec, 0.50);
      p.p99_decode = percentile(dec, 0.99);
      p.p50_analyze = percentile(ana, 0.50);
      p.p99_analyze = percentile(ana, 0.99);
      p.p50_encode = percentile(enc, 0.50);
      p.p99_encode = percentile(enc, 0.99);
      p.p50_total = percentile(tot, 0.50);
      p.p99_total = percentile(tot, 0.99);
    }
    postToken(done);
  }
  DPS_IDENTIFY_OPERATION(StreamStatsMerge);

 private:
  static double percentile(std::vector<double>& v, double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<size_t>(p * (v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
  }
};

/// Builds the streaming graph: source and sink on node 0, the stage
/// collections spread round-robin over all nodes with per-stage widths.
inline std::shared_ptr<Flowgraph> build_stream_graph(Application& app,
                                                     int decoders,
                                                     int analyzers,
                                                     int encoders) {
  Cluster& cluster = app.cluster();
  std::vector<std::string> nodes;
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    nodes.push_back(cluster.node_name(static_cast<NodeId>(i)));
  }
  auto source = app.thread_collection<StreamSourceThread>("stream-source");
  source->map(cluster.node_name(0));
  auto decode = app.thread_collection<StreamDecodeThread>("stream-decode");
  decode->map(round_robin_mapping(nodes, decoders));
  auto analyze = app.thread_collection<StreamAnalyzeThread>("stream-analyze");
  analyze->map(round_robin_mapping(nodes, analyzers));
  auto encode = app.thread_collection<StreamEncodeThread>("stream-encode");
  encode->map(round_robin_mapping(nodes, encoders));
  auto sink = app.thread_collection<StreamSinkThread>("stream-sink");
  sink->map(cluster.node_name(0));

  FlowgraphBuilder b =
      FlowgraphNode<StreamSource, StreamJobRoute>(source) >>
      FlowgraphNode<StreamDecode, StreamDecodeRoute>(decode) >>
      FlowgraphNode<StreamAnalyze, StreamAnalyzeRoute>(analyze) >>
      FlowgraphNode<StreamEncode, StreamEncodeRoute>(encode) >>
      FlowgraphNode<StreamStatsMerge, StreamStatRoute>(sink);
  return app.build_graph(b, "stream");
}

}  // namespace dps::apps
