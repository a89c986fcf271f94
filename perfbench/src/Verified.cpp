//===- perfbench/src/Verified.cpp - Live-verification probe ---------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The live-verification probe: the ring16 program on 1 shard with the
/// streaming Definition 6 checker attached through
/// api::detail::StreamCollector (window 64 Ki, quiet horizon 32 Ki, as in
/// bench/soak). A closed loop of 1024-packet churn batches with one probe
/// each; after each batch drains, the bench thread yields — never sleeps —
/// until Engine::streamBacklog() falls below one batch's hops, so the
/// loop runs at the rate the checker sustains and nothing is shed at the
/// bounded hand-off. Consistency and the stream hand-off dominate here;
/// the classifier does little.
///
/// It is too unsteady to gate. A batch's time from injection to
/// quiescence has two modes, ~3.5 ms and ~6.5 ms, depending on where the
/// collector is in its drain/check cycle when the batch starts, with
/// 25-50% of batches in the slow one; across ten seeds the run's p90
/// spread 47% and its delivery rate 14% (IQR over median), and neither a
/// stricter backlog gate nor a rate-limited backlog poll nor one core per
/// thread removed the two modes. So it runs inside the traced run of
/// echo-tcp and reports the stream hand-off and consistency layers'
/// per-layer metrics, which carry no bound.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "api/StreamCollect.h"
#include "support/Rng.h"
#include "topo/Builders.h"

#include <algorithm>
#include <optional>
#include <thread>

using namespace eventnet;
using namespace eventnet::perfbench;

namespace {

constexpr unsigned BatchPackets = 1024;
constexpr unsigned PoolBatches = 64;
/// The checker's window and heap fill over the first seconds; the
/// untraced loop ran ~40% slower than the traced one after it when the
/// warm-up was 20 batches.
constexpr double WarmupSec = 2.0;

engine::EngineConfig verifiedConfig() {
  engine::EngineConfig Cfg;
  Cfg.NumShards = 1;
  Cfg.RecordTrace = false;
  Cfg.StreamTrace = true;
  Cfg.RecordDeliveries = false;
  Cfg.EchoReplies = false;
  return Cfg;
}

consistency::StreamOptions checkerOptions() {
  consistency::StreamOptions SO;
  SO.Window = 1 << 16;
  SO.QuietHorizon = 1 << 15;
  return SO;
}

struct LoopOut {
  uint64_t Batches = 0; ///< timed batches
  int64_t T0Ns = 0, T1Ns = 0;
  uint64_t Hops = 0;
  int64_t WaitNs = 0; ///< yielding on the stream backlog
  uint64_t BacklogPeak = 0;
  double FinishMs = 0;
  engine::Stats Final;
  consistency::StreamResult Verdict;
  uint64_t LagShed = 0;
};

LoopOut verifiedLoop(const nes::Nes &N, const topo::Topology &Topo,
                     const std::vector<engine::Phase> &Pool, double Seconds,
                     Tracer &T) {
  std::optional<engine::Engine> EO;
  std::optional<api::detail::StreamCollector> ColO;
  {
    EngineSide Side(EngineSide::Shared);
    EO.emplace(N, Topo, verifiedConfig());
    ColO.emplace(*EO, N, Topo, checkerOptions());
    EO->start();
  }
  engine::Engine &E = *EO;
  api::detail::StreamCollector &Col = *ColO;

  // The closed loop's gate: after each batch, wait until the collector
  // has caught up to within one batch's hops (the first batch's count).
  uint64_t GateHops = 0;
  LoopOut L;
  auto batch = [&](Tracer &Tr, uint64_t B, int64_t &WaitNs) {
    const std::vector<engine::Injection> &Inj =
        Pool[B % Pool.size()].Injections;
    auto Root = Tr.span("verified.batch", B);
    {
      auto S = Tr.span("engine.inject", B);
      E.injectBatch(Inj.data(), Inj.size());
    }
    {
      auto S = Tr.span("engine.await", B);
      E.awaitQuiescence();
    }
    int64_t T1 = nowNs();
    auto S = Tr.span("api.backlog_wait", B);
    for (uint64_t Backlog = E.streamBacklog(); Backlog > GateHops;
         Backlog = E.streamBacklog()) {
      L.BacklogPeak = std::max(L.BacklogPeak, Backlog);
      std::this_thread::yield();
    }
    WaitNs += nowNs() - T1;
  };

  // The first batch runs ungated and sets the gate to its hop count.
  Tracer Off(false);
  int64_t WarmWait = 0;
  GateHops = ~uint64_t(0);
  batch(Off, 0, WarmWait);
  GateHops = E.stats().PacketsProcessed;
  for (int64_t End = nowNs() + int64_t(WarmupSec * 1e9); nowNs() < End;)
    batch(Off, 1, WarmWait);
  L.BacklogPeak = 0;

  engine::Stats S0 = E.stats();
  L.T0Ns = nowNs();
  int64_t Deadline = L.T0Ns + int64_t(Seconds * 1e9);
  for (; L.Batches == 0 || nowNs() < Deadline; ++L.Batches)
    batch(T, L.Batches, L.WaitNs);
  L.T1Ns = nowNs();
  engine::Stats S1 = E.stats();
  E.finish();
  L.Final = E.stats();
  {
    auto S = T.span("consistency.finish", 0);
    int64_t F0 = nowNs();
    L.Verdict = Col.finalize(L.Final.TraceDropped);
    L.FinishMs = static_cast<double>(nowNs() - F0) * 1e-6;
  }
  L.LagShed = Col.lagShed();
  L.Hops = S1.PacketsProcessed - S0.PacketsProcessed;
  return L;
}

void checkLoop(const LoopOut &L, Result &R) {
  R.check(L.Final.PacketsDelivered == L.Final.PacketsInjected &&
              L.Final.PacketsDropped == 0,
          "verified: every injected packet delivered");
  R.check(L.Verdict.ok(), "verified: Definition 6 verdict ok (got " +
                              std::string(consistency::streamVerdictName(
                                  L.Verdict.Verdict)) +
                              " " + L.Verdict.Reason + ")");
  R.check(L.LagShed == 0, "verified: no stream item shed");
}

} // namespace

void perfbench::runVerifiedProbe(uint64_t Seed, double Seconds, Tracer &T,
                                 Result &R) {
  topo::Topology Topo = ring16Topology();
  engine::TrafficGen G(Topo, Seed);
  // Churn batches between the ring's two hosts, each with one H1->H2
  // probe (the ring's event trigger; the program drops probes towards
  // H1, so TrafficGen's rotating probe destinations are not used).
  engine::Workload W = G.churn(PoolBatches, BatchPackets, 0);
  std::vector<engine::Phase> &Pool = W.Phases;
  Rng Pos(Seed);
  for (engine::Phase &Ph : Pool)
    Ph.Injections.insert(
        Ph.Injections.begin() +
            static_cast<ptrdiff_t>(Pos.below(Ph.Injections.size() + 1)),
        G.probe(topo::HostH1, topo::HostH2).Phases[0].Injections[0]);
  Tracer Off(false);
  nes::Nes N = compileRing16(Topo, Off, 0, R);

  LoopOut L = verifiedLoop(N, Topo, Pool, Seconds, T);
  checkLoop(L, R);
  auto Tot = T.totals();
  R.perLayer("engine.stream_backlog_peak", double(L.BacklogPeak), "count");
  R.perLayer("api.backlog_wait_share",
             static_cast<double>(L.WaitNs) / double(L.T1Ns - L.T0Ns),
             "ratio");
  // In situ: the loop is checker-bound (the bench thread mostly waits on
  // the backlog), so loop time per trace entry is the checker's real
  // cost per entry, to set beside the isolated replay's
  // ingest_ns_per_entry.
  R.perLayer("consistency.wall_ns_per_entry",
             double(L.T1Ns - L.T0Ns) / double(L.Hops), "ns");
  const consistency::StreamStats &SS = L.Verdict.Stats;
  R.perLayer("consistency.finish_ms", L.FinishMs, "ms");
  R.perLayer("consistency.peak_window", double(SS.PeakWindow), "count");
  R.perLayer("consistency.peak_resident_kib",
             double(SS.PeakResidentBytes) / 1024.0, "KiB");
  R.perLayer("consistency.chains_retired", double(SS.ChainsRetired),
             "count");
  R.perLayer("verified.residual_share",
             selfNsPer(Tot, "verified.batch", 1) /
                 double(Tot["verified.batch"].TotalNs),
             "ratio");
  R.samples("verified.batches", L.Batches);
}
