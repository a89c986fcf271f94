//===- perfbench/src/Forward.cpp - forward-fattree8 workload --------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pure data plane: a k=8 fat-tree (80 switches, 128 hosts) running
/// the zero-event static-routing NES on 2 shards, driven as a closed loop
/// of 1024-packet batches of distinct-flow data packets between uniform
/// random host pairs; each batch is injected and awaited to quiescence.
/// No events, no checker, no sockets: classifier lookup, rings and
/// cross-shard hops decide the result, so this is the "no change"
/// control for update-pipeline, checker and net optimisations. The
/// tree has enough hosts that both shards carry traffic.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "apps/Programs.h"
#include "topo/Builders.h"

#include <algorithm>
#include <optional>

using namespace eventnet;
using namespace eventnet::perfbench;

namespace {

constexpr unsigned FatTreeK = 8;
constexpr unsigned Shards = 2;
constexpr unsigned BatchPackets = 1024;
/// Distinct batches generated up front and cycled through; the engine
/// keeps no per-flow state, so cycling costs it nothing it would not
/// pay for fresh flows.
constexpr unsigned PoolBatches = 64;
constexpr unsigned SetupReps = 11;
constexpr double WarmupSec = 0.3;
/// End-to-end metrics come from windows of this length (see quietRate).
constexpr double WindowSec = 0.25;
/// How long the traced run spends on the update-pipeline probe.
constexpr double UpdateProbeSec = 3.0;

engine::EngineConfig forwardConfig() {
  engine::EngineConfig Cfg;
  Cfg.NumShards = Shards;
  Cfg.RecordTrace = false;
  Cfg.RecordDeliveries = false;
  Cfg.EchoReplies = false;
  return Cfg;
}

/// One set-up: program compile (the static-routing NES), engine
/// construction (which lowers every table to a classifier) and start.
double setUp(const topo::Topology &Topo, Tracer &T, unsigned Rep) {
  std::optional<nes::Nes> N;
  std::optional<engine::Engine> E;
  int64_t T0 = nowNs();
  {
    auto Root = T.span("setup", Rep);
    {
      auto S = T.span("apps.static_nes", Rep);
      N.emplace(apps::staticRoutingNes(Topo));
    }
    EngineSide Side(EngineSide::OneCoreEach);
    {
      auto S = T.span("engine.ctor", Rep);
      E.emplace(*N, Topo, forwardConfig());
    }
    auto S = T.span("engine.start", Rep);
    E->start();
  }
  double Sec = static_cast<double>(nowNs() - T0) * 1e-9;
  E->finish();
  return Sec;
}

struct LoopOut {
  std::vector<Op> Batches; ///< one per timed batch, inject to quiescence
  int64_t T0Ns = 0, T1Ns = 0;
  uint64_t Injected = 0, Delivered = 0, Hops = 0;
  uint64_t IdleSleeps = 0;
  uint64_t MinShardHops = 0, MaxShardHops = 0;
  ProcUsage Usage;
  engine::Stats Final;
};

/// The closed loop on one long-lived engine, for \p Seconds after a
/// warm-up. The bench thread stamps batch time around inject + await
/// whether or not \p T records spans.
LoopOut forwardLoop(const nes::Nes &N, const topo::Topology &Topo,
                    const std::vector<engine::Phase> &Pool, double Seconds,
                    Tracer &T) {
  std::optional<engine::Engine> EO;
  {
    EngineSide Side(EngineSide::OneCoreEach);
    EO.emplace(N, Topo, forwardConfig());
    EO->start();
  }
  engine::Engine &E = *EO;
  auto batch = [&](Tracer &Tr, uint64_t B) {
    const std::vector<engine::Injection> &Inj =
        Pool[B % Pool.size()].Injections;
    auto Root = Tr.span("forward.batch", B);
    {
      auto S = Tr.span("engine.inject", B);
      E.injectBatch(Inj.data(), Inj.size());
    }
    auto S = Tr.span("engine.await", B);
    E.awaitQuiescence();
  };
  Tracer Off(false);
  for (int64_t End = nowNs() + int64_t(WarmupSec * 1e9); nowNs() < End;)
    batch(Off, 0);

  LoopOut L;
  engine::Stats S0 = E.stats();
  ProcUsage U0 = ProcUsage::now();
  L.T0Ns = nowNs();
  int64_t Deadline = L.T0Ns + int64_t(Seconds * 1e9);
  for (int64_t Now = L.T0Ns; Now < Deadline;) {
    batch(T, L.Batches.size());
    int64_t After = nowNs();
    L.Batches.push_back(
        {After, BatchPackets, static_cast<double>(After - Now) * 1e-3});
    Now = After;
  }
  L.T1Ns = nowNs();
  L.Usage = ProcUsage::now() - U0;
  engine::Stats S1 = E.stats();
  E.finish();
  L.Final = E.stats();
  L.Injected = S1.PacketsInjected - S0.PacketsInjected;
  L.Delivered = S1.PacketsDelivered - S0.PacketsDelivered;
  L.Hops = S1.PacketsProcessed - S0.PacketsProcessed;
  for (size_t I = 0; I != S1.Shards.size(); ++I) {
    uint64_t H =
        S1.Shards[I].PacketsProcessed - S0.Shards[I].PacketsProcessed;
    L.MinShardHops = I == 0 ? H : std::min(L.MinShardHops, H);
    L.MaxShardHops = std::max(L.MaxShardHops, H);
    L.IdleSleeps += S1.Shards[I].IdleSleeps - S0.Shards[I].IdleSleeps;
  }
  return L;
}

void checkLoop(const LoopOut &L, Result &R) {
  R.ops(L.Injected, L.Injected - std::min(L.Injected, L.Delivered));
  R.check(L.Final.PacketsDelivered == L.Final.PacketsInjected,
          "forward: every injected packet delivered");
  R.check(L.Final.PacketsDropped == 0, "forward: no packet dropped");
  R.check(!L.Batches.empty(), "forward: at least one timed batch");
}

} // namespace

void perfbench::runForward(const Options &O, Result &R) {
  topo::Topology Topo = topo::fatTreeTopology(FatTreeK);
  engine::TrafficGen G(Topo, O.Seed);
  engine::Workload W = G.churn(PoolBatches, BatchPackets, 0);
  std::vector<engine::Phase> &Pool = W.Phases;

  // One tracer holds the set-up spans and the traced loop's; the
  // untraced loop, which the end-to-end metrics come from, records none.
  Tracer T(O.Trace);
  double SetupSec = medianSetupSec(
      SetupReps, [&](unsigned Rep) { return setUp(Topo, T, Rep); });
  nes::Nes N = apps::staticRoutingNes(Topo);

  Tracer Off(false);
  LoopOut U = forwardLoop(N, Topo, Pool, O.Trace ? O.Seconds / 2 : O.Seconds,
                          Off);
  checkLoop(U, R);
  double Rate = windowRate(U.Batches, U.T0Ns, U.T1Ns, WindowSec);
  if (!O.Trace) {
    R.endToEnd("setup_s", SetupSec, "s");
    R.endToEnd("delivered_per_s", Rate, "pkts/s");
    R.endToEnd("latency_p50_us",
               windowLatency(U.Batches, U.T0Ns, U.T1Ns, WindowSec, 0.5),
               "us");
    R.endToEnd("latency_p90_us",
               windowLatency(U.Batches, U.T0Ns, U.T1Ns, WindowSec, 0.9),
               "us");
    R.endToEnd("peak_rss_mib", peakRssMiB(), "MiB");
    R.samples("batches", U.Batches.size());
    R.samples("windows", windows(U.Batches, U.T0Ns, U.T1Ns, WindowSec).size());
    return;
  }

  LoopOut L = forwardLoop(N, Topo, Pool, O.Seconds / 2, T);
  checkLoop(L, R);
  auto Tot = T.totals();
  R.perLayer("apps.static_nes_ms", medianSpanMs(T, "apps.static_nes"),
             "ms");
  R.perLayer("engine.ctor_ms", medianSpanMs(T, "engine.ctor"), "ms");
  R.perLayer("engine.start_ms", medianSpanMs(T, "engine.start"), "ms");
  R.perLayer("engine.inject_ns_per_pkt",
             selfNsPer(Tot, "engine.inject", double(L.Injected)), "ns");
  R.perLayer("engine.drain_ns_per_hop",
             selfNsPer(Tot, "engine.await", double(L.Hops)), "ns");
  R.perLayer("engine.hops_per_delivery", double(L.Hops) / L.Delivered,
             "count");
  uint64_t Hwm = 0;
  for (const engine::ShardStats &S : L.Final.Shards)
    Hwm = std::max(Hwm, S.QueueHighWater);
  R.perLayer("engine.queue_hwm", double(Hwm), "count");
  R.perLayer("engine.edge_cut_share",
             double(L.Final.Partition.CutWeight) /
                 double(std::max<uint64_t>(1, L.Final.Partition.TotalWeight)),
             "ratio");
  R.perLayer("engine.shard_balance",
             double(L.MinShardHops) /
                 double(std::max<uint64_t>(1, L.MaxShardHops)),
             "ratio");
  R.perLayer("engine.idle_sleeps_per_batch",
             double(L.IdleSleeps) / double(L.Batches.size()), "count");
  R.perLayer("trace.residual_share",
             selfNsPer(Tot, "forward.batch", 1) /
                 double(Tot["forward.batch"].TotalNs),
             "ratio");
  R.perLayer("trace.overhead_pct",
             overheadPct(Rate, windowRate(L.Batches, L.T0Ns, L.T1Ns,
                                                WindowSec)),
             "%");
  reportProc(R, U.Usage, U.Delivered);
  R.samples("forward.batch_spans", L.Batches.size());

  runUpdateProbe(O.Seed, UpdateProbeSec, T, R);
  ProbeInputs P;
  P.N = &N;
  P.Topo = &Topo;
  P.Packets = Pool[0].Injections;
  P.Shards = Shards;
  P.Seed = O.Seed;
  runProbes(P, R);
  R.check(T.writeChromeTrace(O.TraceOut, O.Workload),
          "forward: trace written");
}
