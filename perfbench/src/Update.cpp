//===- perfbench/src/Update.cpp - Update-pipeline probe -------------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The update-pipeline probe, the paper's Figure 16 scenario: the ring16
/// program on 2 shards, a fresh engine per rep (the ring's probe event
/// fires once per engine). Each rep forwards a small warm-up batch, then
/// injects the probe and offers an 8000-packet one-way H1->H2 storm
/// open-loop on a fixed schedule. Until every switch has changed, and
/// until quiescence, the bench thread polls Engine::readView on all 16
/// switches; the rep's sample is the time from the probe's injection
/// until every switch carries the new tag.
///
/// Detection, the controller's delta lane and worker wake-up decide this
/// number, across shards. It is too unsteady to gate: across ten seeds
/// its p50 spread 86% and its p90 500% (IQR over median), swinging
/// between ~70 us and ~400 us p50 with the load on a shared 4-vCPU KVM
/// host, while the gated workloads stayed within ~15%. So it runs inside
/// the traced run of forward-fattree8 and reports the update pipeline's
/// per-layer metrics, which carry no bound.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "topo/Builders.h"

#include <algorithm>
#include <optional>
#include <thread>

using namespace eventnet;
using namespace eventnet::perfbench;

namespace {

constexpr unsigned Shards = 2;
constexpr unsigned StormPackets = 8000;
/// Small chunks close together: with 128-packet chunks 427 us apart the
/// shards fell asleep between chunks and the sample timed the wake-up of
/// halted virtual CPUs, which moved p50 between 60 and 220 us with the
/// host's load; with gaps this short they stay awake.
constexpr unsigned ChunkPackets = 4;
/// The storm's offered rate. Offered as fast as the bench thread can inject,
/// the storm outruns the ingress shard in some runs and not others: the
/// probe then queues behind thousands of storm hops and detection moves
/// between ~60 us and ~8 ms from run to run. A fixed schedule below the
/// engine's capacity keeps traffic in flight for the whole rep without
/// turning the sample into a queue-length measurement.
constexpr double OfferedPktsPerSec = 300000;
constexpr int64_t ChunkIntervalNs =
    static_cast<int64_t>(ChunkPackets * 1e9 / OfferedPktsPerSec);
/// Distinct storms generated up front and cycled through, one per rep.
constexpr unsigned PoolStorms = 8;
/// How often the bench thread reads the 16 switch views: the samples' time
/// resolution. Polling back to back slowed the shards it observes (every
/// read enters the engine's epoch domain and copies a register).
constexpr int64_t PollIntervalNs = 5000;
constexpr unsigned WarmupReps = 3;
/// Data packets each fresh engine forwards before its probe.
constexpr unsigned WarmPackets = 128;

engine::EngineConfig updateConfig() {
  engine::EngineConfig Cfg;
  Cfg.NumShards = Shards;
  Cfg.RecordTrace = false;
  Cfg.RecordDeliveries = false;
  Cfg.EchoReplies = false;
  return Cfg;
}

struct RepOut {
  bool Converged = false;
  double DetectUs = 0, PropagateUs = 0, ConvergeUs = 0;
  bool Late = false; ///< last switch changed after half the storm drained
  uint64_t Injected = 0, Delivered = 0, Dropped = 0;
  uint64_t FastLearns = 0, CtrlDeltas = 0;
  double GeneratorLateUs = 0; ///< worst chunk injection behind schedule
  std::vector<int64_t> TransitionNs;
};

/// One rep on a fresh engine. The bench thread stamps the probe injection and
/// each switch's first observed view change itself.
RepOut rep(const nes::Nes &N, const topo::Topology &Topo,
           const std::vector<SwitchId> &Sws, const engine::Injection &Probe,
           const std::vector<engine::Injection> &Storm,
           const std::vector<engine::Injection> &Warm, Tracer &T,
           uint64_t Id) {
  auto Root = T.span("update.rep", Id);
  std::optional<engine::Engine> E;
  {
    auto S = T.span("engine.rep_start", Id);
    EngineSide Side(EngineSide::Shared);
    E.emplace(N, Topo, updateConfig());
    E->start();
  }
  std::vector<nes::SetId> Old;
  for (SwitchId Sw : Sws)
    Old.push_back(E->readView(Sw).Tag);
  {
    // Threads just started and rings never touched: one quiesced batch
    // of plain data first, so the sample times the update pipeline and
    // not thread start-up or first-touch page faults.
    auto S = T.span("engine.warm", Id);
    E->injectBatch(Warm.data(), Warm.size());
    E->awaitQuiescence();
  }

  std::vector<int64_t> ChangedNs(Sws.size(), 0);
  size_t Left = Sws.size();
  uint64_t DeliveredAtLast = 0;
  int64_t NextPollNs = 0;
  auto poll = [&] {
    if (!Left || nowNs() < NextPollNs)
      return;
    for (size_t I = 0; I != Sws.size(); ++I) {
      if (ChangedNs[I] || E->readView(Sws[I]).Tag == Old[I])
        continue;
      ChangedNs[I] = nowNs();
      // The late-rep share is a traced-run metric; the stats snapshot
      // it needs stays out of the untraced loop.
      if (--Left == 0 && T.on())
        DeliveredAtLast = E->stats().PacketsDelivered;
    }
    NextPollNs = nowNs() + PollIntervalNs;
  };

  int64_t ProbeNs = nowNs(), LateNs = 0;
  {
    // One span for the probe and the whole storm: a span per chunk, 2000
    // a rep, would swamp the trace.
    auto S = T.span("update.storm", Id);
    E->injectBatch(&Probe, 1);
    for (size_t Off = 0; Off < Storm.size(); Off += ChunkPackets) {
      // Open loop: each chunk is due on a fixed schedule from the probe.
      int64_t Due = ProbeNs + int64_t(Off / ChunkPackets) * ChunkIntervalNs;
      while (nowNs() < Due) {
        poll();
        std::this_thread::yield();
      }
      LateNs = std::max(LateNs, nowNs() - Due);
      E->injectBatch(Storm.data() + Off,
                     std::min<size_t>(ChunkPackets, Storm.size() - Off));
      poll();
    }
  }
  {
    auto S = T.span("engine.await", Id);
    while (!E->quiescent()) {
      poll();
      std::this_thread::yield();
    }
  }
  NextPollNs = 0;
  poll();
  {
    auto S = T.span("engine.finish", Id);
    E->finish();
  }

  RepOut Out;
  engine::Stats St = E->stats();
  Out.Injected = St.PacketsInjected;
  Out.Delivered = St.PacketsDelivered;
  Out.Dropped = St.PacketsDropped;
  Out.FastLearns = St.FastPathLearns;
  Out.CtrlDeltas = St.CtrlDeltas;
  Out.TransitionNs = E->transitionLatenciesNs();
  Out.GeneratorLateUs = static_cast<double>(LateNs) * 1e-3;
  // Converged: every switch changed, and all to one and the same tag.
  Out.Converged = Left == 0;
  for (SwitchId Sw : Sws)
    Out.Converged &= E->readView(Sw).Tag == E->readView(Sws[0]).Tag;
  if (Left == 0) {
    int64_t First = *std::min_element(ChangedNs.begin(), ChangedNs.end());
    int64_t Last = *std::max_element(ChangedNs.begin(), ChangedNs.end());
    Out.DetectUs = static_cast<double>(First - ProbeNs) * 1e-3;
    Out.PropagateUs = static_cast<double>(Last - First) * 1e-3;
    Out.ConvergeUs = static_cast<double>(Last - ProbeNs) * 1e-3;
    Out.Late = DeliveredAtLast >= Warm.size() + Storm.size() / 2;
  }
  return Out;
}

struct LoopOut {
  std::vector<RepOut> Reps;
};

LoopOut updateLoop(const nes::Nes &N, const topo::Topology &Topo,
                   const std::vector<SwitchId> &Sws,
                   const std::vector<engine::Injection> &Probes,
                   const std::vector<engine::Phase> &Storms,
                   const std::vector<engine::Injection> &Warm, double Seconds,
                   Tracer &T) {
  Tracer Off(false);
  for (unsigned I = 0; I != WarmupReps; ++I)
    rep(N, Topo, Sws, Probes[I % Probes.size()],
        Storms[I % Storms.size()].Injections, Warm, Off, I);

  LoopOut L;
  int64_t Deadline = nowNs() + int64_t(Seconds * 1e9);
  for (uint64_t I = 0; I == 0 || nowNs() < Deadline; ++I)
    L.Reps.push_back(rep(N, Topo, Sws, Probes[I % Probes.size()],
                         Storms[I % Storms.size()].Injections, Warm, T, I));
  return L;
}

void checkLoop(const LoopOut &L, Result &R) {
  uint64_t Failed = 0;
  for (const RepOut &Rp : L.Reps) {
    bool Ok = Rp.Converged && Rp.Dropped == 0 &&
              Rp.Delivered == Rp.Injected &&
              Rp.Injected == WarmPackets + StormPackets + 1;
    Failed += !Ok;
  }
  R.check(Failed == 0, "update: every rep converges all 16 switches to "
                       "one new tag and loses no packet");
}

std::vector<double> field(const LoopOut &L, double RepOut::*F) {
  std::vector<double> V;
  for (const RepOut &Rp : L.Reps)
    if (Rp.Converged)
      V.push_back(Rp.*F);
  return V;
}

} // namespace

void perfbench::runUpdateProbe(uint64_t Seed, double Seconds, Tracer &T,
                               Result &R) {
  topo::Topology Topo = ring16Topology();
  std::vector<SwitchId> Sws(Topo.switches().begin(), Topo.switches().end());
  engine::TrafficGen G(Topo, Seed);
  std::vector<engine::Injection> Probes;
  std::vector<engine::Phase> Storms;
  for (unsigned I = 0; I != PoolStorms; ++I) {
    Probes.push_back(
        G.probe(topo::HostH1, topo::HostH2).Phases[0].Injections[0]);
    Storms.push_back(
        G.bulk(topo::HostH1, topo::HostH2, StormPackets, StormPackets)
            .Phases[0]);
  }
  std::vector<engine::Injection> Warm =
      G.bulk(topo::HostH1, topo::HostH2, WarmPackets, WarmPackets)
          .Phases[0]
          .Injections;
  Tracer Off(false);
  nes::Nes N = compileRing16(Topo, Off, 0, R);

  LoopOut L = updateLoop(N, Topo, Sws, Probes, Storms, Warm, Seconds, T);
  checkLoop(L, R);
  double Reps = static_cast<double>(L.Reps.size());
  std::vector<double> Detect = field(L, &RepOut::DetectUs);
  std::vector<double> Prop = field(L, &RepOut::PropagateUs);
  std::vector<double> Conv = field(L, &RepOut::ConvergeUs);
  R.perLayer("engine.detect_us", percentile(Detect, 0.5), "us");
  R.perLayer("engine.propagate_us", percentile(Prop, 0.5), "us");
  R.perLayer("engine.converge_p50_us", percentile(Conv, 0.5), "us");
  R.perLayer("engine.converge_p90_us", percentile(Conv, 0.9), "us");
  uint64_t Late = 0, Fast = 0, Deltas = 0;
  std::vector<double> TransUs, GenLate;
  for (const RepOut &Rp : L.Reps) {
    Late += Rp.Late;
    Fast += Rp.FastLearns;
    Deltas += Rp.CtrlDeltas;
    GenLate.push_back(Rp.GeneratorLateUs);
    for (int64_t Ns : Rp.TransitionNs)
      TransUs.push_back(static_cast<double>(Ns) * 1e-3);
  }
  R.perLayer("engine.late_rep_share", double(Late) / Reps, "ratio");
  R.perLayer("engine.fast_learns_per_rep", double(Fast) / Reps, "count");
  R.perLayer("engine.ctrl_deltas_per_rep", double(Deltas) / Reps, "count");
  R.perLayer("engine.transition_p50_us", percentile(TransUs, 0.5), "us");
  R.perLayer("engine.rep_start_ms", medianSpanMs(T, "engine.rep_start"),
             "ms");
  R.perLayer("update.generator_late_us", percentile(GenLate, 0.5), "us");
  R.samples("update.reps", L.Reps.size());
  R.samples("engine.transition_p50_us", TransUs.size());
}
