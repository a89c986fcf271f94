//===- perfbench/src/Echo.cpp - echo-tcp workload -------------------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket front end: the ring16 program on 1 shard behind an
/// in-process net::Server on the loopback interface (not a real link).
/// net::runLoadgen drives 4 TCP connections in barrier-fenced rounds of
/// 25 echo requests per connection — a closed loop with at most 100
/// requests outstanding — and samples the round trip of every 16th
/// frame. Wire framing, session reassembly, epoll and syscalls are on the
/// critical path here and nowhere else. Unfenced open-loop runs measured
/// pure queueing (RTT p50 in seconds), hence the fence.
///
/// Threads: the engine's shard and controller, the server loop, and the
/// load generator on the bench thread — four in all.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "net/Loadgen.h"
#include "net/Server.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

using namespace eventnet;
using namespace eventnet::perfbench;

namespace {

constexpr unsigned Connections = 4;
constexpr unsigned RoundFrames = 25; ///< echo requests per conn per round
/// Rounds per load-generator call; each call reconnects, so a call is
/// long enough (~0.2 s) that the handshake is noise.
constexpr unsigned RoundsPerCall = 400;
constexpr unsigned SetupReps = 21;
/// How long the traced run spends on the live-verification probe.
constexpr double VerifiedProbeSec = 4.0;

/// A served engine: server bound on loopback, engine attached and
/// started, event loop on its own thread. Tears down in reverse.
class Served {
public:
  Served(const nes::Nes &N, const topo::Topology &Topo, Tracer &T,
         uint64_t Rep, Result &R)
      : Srv(net::ServerConfig()) {
    // The shard, the controller and the server loop each get a core.
    EngineSide Side(EngineSide::OneCoreEach);
    std::string Err;
    {
      auto S = T.span("net.open", Rep);
      Opened = Srv.open(Err);
    }
    R.check(Opened, "echo: server binds loopback " + Err);
    engine::EngineConfig Cfg;
    Cfg.NumShards = 1;
    Cfg.RecordTrace = false;
    Cfg.RecordDeliveries = false;
    Cfg.DeliverySink = Srv.deliverySink();
    {
      auto S = T.span("engine.ctor", Rep);
      E.emplace(N, Topo, Cfg);
    }
    Srv.attach(*E);
    auto S = T.span("engine.start", Rep);
    E->start();
    Loop = std::thread([this] { Srv.serve(Stop); });
  }
  ~Served() { stop(); }
  Served(const Served &) = delete;
  Served &operator=(const Served &) = delete;

  void stop() {
    if (!Loop.joinable())
      return;
    Stop = true;
    Loop.join();
    E->finish();
  }
  uint16_t port() const { return Srv.port(); }
  net::ServerStats serverStats() const { return Srv.stats(); }
  engine::Stats engineStats() const { return E->stats(); }

private:
  net::Server Srv;
  bool Opened = false;
  std::optional<engine::Engine> E;
  std::atomic<bool> Stop{false};
  std::thread Loop;
};

net::LoadgenConfig loadgenConfig(uint16_t Port, unsigned Rounds,
                                 uint64_t Seed) {
  net::LoadgenConfig LC;
  LC.Port = Port;
  LC.Connections = Connections;
  LC.FramesPerConn = uint64_t(RoundFrames) * Rounds;
  LC.Phases = Rounds;
  LC.Burst = RoundFrames;
  LC.Seed = Seed;
  LC.RttSampleEvery = 16;
  return LC;
}

/// One set-up: program compile, server bind, engine construction, start
/// and the server loop.
double setUp(const topo::Topology &Topo, Tracer &T, unsigned Rep,
             Result &R) {
  int64_t T0 = nowNs();
  std::optional<nes::Nes> N;
  std::optional<Served> S;
  {
    auto Root = T.span("setup", Rep);
    N.emplace(compileRing16(Topo, T, Rep, R));
    S.emplace(*N, Topo, T, Rep, R);
  }
  double Sec = static_cast<double>(nowNs() - T0) * 1e-9;
  S->stop();
  return Sec;
}

struct LoopOut {
  obs::HistogramSnapshot RttNs;
  /// Per load-generator call: replies per second and RTT quantiles.
  std::vector<double> CallRate, CallP50Us, CallP90Us;
  uint64_t Calls = 0;
  uint64_t Sent = 0, Replies = 0, BytesReceived = 0;
  bool ClientOk = true;
  ProcUsage Usage;
  net::ServerStats Server;
  engine::Stats Engine;
};

LoopOut echoLoop(const nes::Nes &N, const topo::Topology &Topo,
                 uint64_t Seed, double Seconds, Tracer &T, Result &R) {
  Tracer Off(false);
  Served S(N, Topo, Off, 0, R);
  // Warm-up: connections, session buffers and engine pools.
  net::runLoadgen(loadgenConfig(S.port(), RoundsPerCall / 4, Seed));

  LoopOut L;
  ProcUsage U0 = ProcUsage::now();
  int64_t Deadline = nowNs() + int64_t(Seconds * 1e9);
  for (; L.Calls == 0 || nowNs() < Deadline; ++L.Calls) {
    auto Root = T.span("echo.call", L.Calls);
    net::LoadgenStats St;
    int64_t C0 = nowNs();
    {
      auto Sp = T.span("net.loadgen", L.Calls);
      St = net::runLoadgen(
          loadgenConfig(S.port(), RoundsPerCall, Seed * 1000 + L.Calls));
    }
    L.CallRate.push_back(double(St.Replies) /
                         (static_cast<double>(nowNs() - C0) * 1e-9));
    L.CallP50Us.push_back(percentile(St.RttNs, 0.5) * 1e-3);
    L.CallP90Us.push_back(percentile(St.RttNs, 0.9) * 1e-3);
    L.ClientOk &= St.ok() && St.Replies == St.InjectsSent;
    L.Sent += St.InjectsSent;
    L.Replies += St.Replies;
    L.BytesReceived += St.BytesReceived;
    L.RttNs.merge(St.RttNs);
  }
  L.Usage = ProcUsage::now() - U0;
  S.stop();
  L.Server = S.serverStats();
  L.Engine = S.engineStats();
  return L;
}

void checkLoop(const LoopOut &L, Result &R) {
  R.ops(L.Sent, L.Sent - std::min(L.Sent, L.Replies));
  R.check(L.ClientOk, "echo: every load-generator call ok with one reply "
                      "per request");
  const net::ServerStats &SS = L.Server;
  R.check(SS.DeliveryFrames + SS.RingShed + SS.DeliveryUnroutable +
                  SS.NonNetDeliveries ==
              L.Engine.PacketsDelivered,
          "echo: server delivery conservation");
  R.check(SS.BackpressureShed == 0, "echo: no backpressure shed");
  R.check(L.Engine.PacketsDropped == 0 &&
              L.Engine.PacketsInjected == L.Engine.PacketsDelivered,
          "echo: the engine delivers every packet");
}

} // namespace

void perfbench::runEcho(const Options &O, Result &R) {
  topo::Topology Topo = ring16Topology();
  Tracer T(O.Trace);
  double SetupSec = medianSetupSec(SetupReps, [&](unsigned Rep) {
    return setUp(Topo, T, Rep, R);
  });
  Tracer Off(false);
  nes::Nes N = compileRing16(Topo, Off, 0, R);

  LoopOut U =
      echoLoop(N, Topo, O.Seed, O.Trace ? O.Seconds / 2 : O.Seconds, Off, R);
  checkLoop(U, R);
  double Rate = quietRate(U.CallRate);
  if (!O.Trace) {
    R.endToEnd("setup_s", SetupSec, "s");
    // The windows are the load-generator calls (~0.25 s each).
    R.endToEnd("delivered_per_s", Rate, "pkts/s");
    R.endToEnd("latency_p50_us", quietLatency(U.CallP50Us), "us");
    R.endToEnd("latency_p90_us", quietLatency(U.CallP90Us), "us");
    R.endToEnd("peak_rss_mib", peakRssMiB(), "MiB");
    R.samples("rtt_samples", U.RttNs.TotalCount);
    R.samples("windows", U.Calls);
    return;
  }

  LoopOut L = echoLoop(N, Topo, O.Seed, O.Seconds / 2, T, R);
  checkLoop(L, R);
  auto Tot = T.totals();
  R.perLayer("ets.build_ms", medianSpanMs(T, "ets.build"), "ms");
  R.perLayer("nes.from_ets_ms", medianSpanMs(T, "nes.from_ets"), "ms");
  R.perLayer("net.open_ms", medianSpanMs(T, "net.open"), "ms");
  R.perLayer("engine.ctor_ms", medianSpanMs(T, "engine.ctor"), "ms");
  R.perLayer("engine.start_ms", medianSpanMs(T, "engine.start"), "ms");
  R.perLayer("engine.hops_per_delivery",
             double(L.Engine.PacketsProcessed) /
                 double(std::max<uint64_t>(1, L.Engine.PacketsDelivered)),
             "count");
  R.perLayer("net.bytes_per_reply",
             double(L.BytesReceived) / double(std::max<uint64_t>(1, L.Replies)),
             "bytes");
  R.perLayer("net.reassembly_partial_share",
             double(L.Server.ReassemblyPartial) /
                 double(std::max<uint64_t>(1, L.Server.FramesIn)),
             "ratio");
  R.perLayer("net.backpressure_shed", double(L.Server.BackpressureShed),
             "count");
  R.perLayer("trace.residual_share",
             selfNsPer(Tot, "echo.call", 1) / double(Tot["echo.call"].TotalNs),
             "ratio");
  R.perLayer("trace.overhead_pct",
             overheadPct(Rate, quietRate(L.CallRate)), "%");
  reportProc(R, U.Usage, U.Replies);
  R.samples("echo.call_spans", L.Calls);

  runVerifiedProbe(O.Seed, VerifiedProbeSec, T, R);
  // The isolated probes get echo-shaped traffic: requests between the
  // ring's two hosts, generated from the seed.
  engine::TrafficGen G(Topo, O.Seed);
  ProbeInputs P;
  P.N = &N;
  P.Topo = &Topo;
  P.Packets = G.pings(1, Connections * RoundFrames * 10).Phases[0].Injections;
  P.Shards = 1;
  P.Seed = O.Seed;
  runProbes(P, R);
  R.check(T.writeChromeTrace(O.TraceOut, O.Workload), "echo: trace written");
}
