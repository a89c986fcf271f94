//===- perfbench/src/Probes.cpp - Isolated layer probes -------------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each probe times one layer alone, on the bench thread, over inputs
/// derived from the workload's own program, topology and seed, so every
/// layer has an isolated number beside its in-situ one:
///
///   classifier   MatchPipeline::applyClassifier on the workload's packets
///                at their ingress switches, initial configuration;
///   wire         encodeFrame / decodeFrame of one frame per packet;
///   session      Session::ingest of a Hello plus back-to-back Inject
///                frames, fed in the server's 64 KiB read size;
///   stream       a drain-only engine run (no checker attached) in which
///                the bench thread calls and times drainTraceStream
///                itself, and the recorded stream replayed through a
///                StreamChecker.
///
/// Every probe checks what it produced: lookups emit, frames round-trip,
/// the session accepts every frame, the replayed stream verifies.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "consistency/StreamCheck.h"
#include "engine/Compiled.h"
#include "net/Session.h"
#include "sim/Wire.h"

#include <algorithm>
#include <optional>

using namespace eventnet;
using namespace eventnet::perfbench;

namespace {

/// Minimum wall time of one isolated timing loop.
constexpr double ProbeSec = 0.15;
/// Batches of the workload's packets in the drain-only recording run.
constexpr unsigned StreamBatches = 16;

/// Repeats \p Pass until ProbeSec has elapsed; returns ns per item given
/// \p ItemsPerPass.
template <typename FnT> double nsPerItem(size_t ItemsPerPass, FnT Pass) {
  uint64_t Passes = 0;
  int64_t T0 = nowNs(), End = T0 + int64_t(ProbeSec * 1e9), Now = T0;
  do {
    Pass();
    ++Passes;
    Now = nowNs();
  } while (Now < End);
  return static_cast<double>(Now - T0) / double(Passes * ItemsPerPass);
}

void classifierProbe(const ProbeInputs &In, Result &R) {
  engine::SwitchIndex Idx(*In.Topo);
  std::vector<double> LowerMs;
  std::optional<engine::CompiledNes> C;
  for (int I = 0; I != 3; ++I) {
    C.reset();
    int64_t T0 = nowNs();
    C.emplace(*In.N, Idx);
    LowerMs.push_back(static_cast<double>(nowNs() - T0) * 1e-6);
  }
  R.perLayer("engine.lower_ms", percentile(LowerMs, 0.5), "ms");

  struct Located {
    const engine::MatchPipeline *Pipe;
    netkat::Packet P;
  };
  std::vector<Located> Pkts;
  for (const engine::Injection &Inj : In.Packets) {
    Location At = In.Topo->hostLoc(Inj.From);
    Located L{&C->pipe(In.N->emptySet(), Idx.denseOf(At.Sw)), Inj.Header};
    L.P.setLoc(At);
    Pkts.push_back(std::move(L));
  }
  engine::PacketBuf Out;
  uint64_t Lookups = 0, Emitted = 0;
  double Ns = nsPerItem(Pkts.size(), [&] {
    for (const Located &L : Pkts) {
      Out.reset();
      L.Pipe->applyClassifier(L.P, Out);
      Emitted += Out.size();
    }
    Lookups += Pkts.size();
  });
  R.perLayer("engine.classifier_ns_per_lookup", Ns, "ns");
  R.check(Lookups > 0 && Emitted == Lookups,
          "probe: every classifier lookup emits one packet");
}

std::vector<sim::WireFrame> injectFrames(const ProbeInputs &In) {
  std::vector<sim::WireFrame> Fs;
  for (const engine::Injection &Inj : In.Packets) {
    sim::WireFrame F = sim::deliverFrame(Inj.Header);
    F.T = sim::WireFrame::Inject;
    Fs.push_back(F);
  }
  return Fs;
}

void wireProbe(const ProbeInputs &In, Result &R) {
  std::vector<sim::WireFrame> Fs = injectFrames(In);
  std::vector<uint8_t> Buf(Fs.size() * sim::WireFrameBytes);
  size_t Bytes = 0;
  double EncNs = nsPerItem(Fs.size(), [&] {
    Bytes = 0;
    for (const sim::WireFrame &F : Fs)
      Bytes += sim::encodeFrame(F, Buf.data() + Bytes);
  });
  std::vector<sim::WireFrame> Back(Fs.size());
  bool RoundTrip = true;
  double DecNs = nsPerItem(Fs.size(), [&] {
    size_t Off = 0;
    for (sim::WireFrame &F : Back) {
      size_t Used = 0;
      RoundTrip &= sim::decodeFrame(Buf.data() + Off, Bytes - Off, F,
                                    Used) == sim::FrameDecode::Ok;
      Off += Used;
    }
    RoundTrip &= Off == Bytes;
  });
  for (size_t I = 0; I != Fs.size(); ++I)
    RoundTrip &= Back[I].T == Fs[I].T && Back[I].A == Fs[I].A &&
                 Back[I].B == Fs[I].B && Back[I].Kind == Fs[I].Kind &&
                 Back[I].Seq == Fs[I].Seq;
  R.perLayer("wire.encode_ns_per_frame", EncNs, "ns");
  R.perLayer("wire.decode_ns_per_frame", DecNs, "ns");
  R.check(RoundTrip, "probe: every Wire frame round-trips");
}

/// Accepts every frame, completing the handshake on the Hello.
class CountingHandler : public net::Session::FrameHandler {
public:
  uint64_t Frames = 0;
  bool onFrame(net::Session &S, const sim::WireFrame &F) override {
    if (F.T == sim::WireFrame::Hello)
      S.open();
    ++Frames;
    return true;
  }
};

void sessionProbe(const ProbeInputs &In, Result &R) {
  std::vector<sim::WireFrame> Fs = injectFrames(In);
  sim::WireFrame Hello;
  Hello.T = sim::WireFrame::Hello;
  Hello.A = sim::WireProtoVersion;
  Fs.insert(Fs.begin(), Hello);
  std::vector<uint8_t> Buf(Fs.size() * sim::WireFrameBytes);
  size_t Bytes = 0;
  for (const sim::WireFrame &F : Fs)
    Bytes += sim::encodeFrame(F, Buf.data() + Bytes);

  constexpr size_t ReadSize = 65536; // the server's read buffer
  bool Accepted = true;
  uint64_t Passes = 0;
  CountingHandler H;
  double Ns = nsPerItem(Fs.size(), [&] {
    net::Session S(1, net::SessionConfig());
    for (size_t Off = 0; Off < Bytes; Off += ReadSize)
      Accepted &= S.ingest(Buf.data() + Off, std::min(ReadSize, Bytes - Off),
                           H);
    ++Passes;
  });
  R.perLayer("net.session_ingest_ns_per_frame", Ns, "ns");
  R.check(Accepted && H.Frames == Passes * Fs.size(),
          "probe: the session accepts every frame");
}

void streamProbe(const ProbeInputs &In, Result &R) {
  engine::EngineConfig Cfg;
  Cfg.NumShards = In.Shards;
  Cfg.RecordTrace = false;
  Cfg.StreamTrace = true;
  Cfg.RecordDeliveries = false;
  Cfg.EchoReplies = false;
  std::optional<engine::Engine> EO;
  {
    EngineSide Side(EngineSide::Shared);
    EO.emplace(*In.N, *In.Topo, Cfg);
    EO->start();
  }
  engine::Engine &E = *EO;

  // The drain-only run: the bench thread itself drains the stream after every
  // batch, recording each chunk with its watermark for the replay.
  struct Chunk {
    std::vector<engine::Engine::StreamItem> Items;
    uint64_t Watermark;
  };
  std::vector<Chunk> Chunks;
  int64_t DrainNs = 0;
  uint64_t Items = 0;
  auto drain = [&] {
    Chunk C;
    int64_t T0 = nowNs();
    C.Watermark = E.drainTraceStream(C.Items);
    DrainNs += nowNs() - T0;
    Items += C.Items.size();
    Chunks.push_back(std::move(C));
  };
  for (unsigned B = 0; B != StreamBatches; ++B) {
    E.injectBatch(In.Packets.data(), In.Packets.size());
    E.awaitQuiescence();
    drain();
  }
  E.finish();
  drain(); // the terminal watermark
  R.perLayer("engine.stream_drain_ns_per_item",
             Items ? double(DrainNs) / double(Items) : 0, "ns");
  R.check(E.streamLagShed() == 0, "probe: drain-only run shed nothing");

  consistency::StreamOptions SO;
  SO.Window = 1 << 16;
  SO.QuietHorizon = 1 << 15;
  consistency::StreamChecker Chk(*In.N, *In.Topo, SO);
  uint64_t Entries = 0;
  int64_t T0 = nowNs();
  for (const Chunk &C : Chunks) {
    for (const engine::Engine::StreamItem &It : C.Items) {
      if (It.K == engine::Engine::StreamItem::Excuse) {
        Chk.feedExcuse(It.Ticket);
        continue;
      }
      Chk.feedEntry(It.Ticket, It.Parent, It.Lp, It.IsDelivery, It.IsDup);
      ++Entries;
    }
    if (C.Watermark > 0)
      Chk.advance(C.Watermark - 1);
  }
  int64_t IngestNs = nowNs() - T0;
  consistency::StreamResult V = Chk.finish();
  R.perLayer("consistency.ingest_ns_per_entry",
             Entries ? double(IngestNs) / double(Entries) : 0, "ns");
  R.check(Entries > 0 && V.ok(), "probe: the replayed stream verifies ok");
}

} // namespace

void perfbench::runProbes(const ProbeInputs &In, Result &R) {
  classifierProbe(In, R);
  wireProbe(In, R);
  sessionProbe(In, R);
  streamProbe(In, R);
}
