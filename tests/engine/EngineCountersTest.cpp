//===- tests/engine/EngineCountersTest.cpp - Live shard-summed counters ---===//
//
// The engine's data-plane counters are per-shard tallies that only the
// owning worker writes; Engine::stats() sums them on every read. These
// tests poll stats() from a reader thread while fat-tree traffic runs on
// 1, 2 and 4 shards and check that the summed view behaves like one set
// of global counters would:
//
//  - live: every total (and every per-shard row) is non-decreasing from
//    one poll to the next;
//  - quiescent: injected == delivered + dropped, the per-shard hop counts
//    add up to injected + forwarded (each injection and each link
//    traversal is one hop), and the forwarded total is the fixed-seed
//    expectation whatever the shard count;
//  - under ShedOldest with 16-slot rings, the tallies that producer
//    threads make when they shed still net out the same identities.
//
//===----------------------------------------------------------------------===//

#include "apps/Programs.h"
#include "engine/Engine.h"
#include "topo/Builders.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace eventnet;
using namespace eventnet::engine;

namespace {

/// The totals a poll compares against the previous poll.
std::vector<uint64_t> totalsOf(const Stats &S) {
  std::vector<uint64_t> V = {
      S.PacketsInjected, S.PacketsProcessed, S.PacketsDelivered,
      S.PacketsDropped,  S.PacketsForwarded, S.ConfigTransitions,
      S.FaultSheds,      S.DupDelivered,     S.DupDropped};
  for (const ShardStats &SS : S.Shards) {
    V.push_back(SS.PacketsProcessed);
    V.push_back(SS.Dropped);
    V.push_back(SS.Shed);
  }
  return V;
}

/// Polls stats() on its own thread until stopped, counting the polls and
/// any total that went backwards.
class LivePoller {
public:
  explicit LivePoller(const Engine &E)
      : T([this, &E] {
          std::vector<uint64_t> Prev = totalsOf(E.stats());
          while (!Stop.load()) {
            std::vector<uint64_t> Cur = totalsOf(E.stats());
            for (size_t I = 0; I != Cur.size(); ++I)
              if (Cur[I] < Prev[I])
                Backwards.fetch_add(1);
            Prev = std::move(Cur);
            Polls.fetch_add(1);
          }
        }) {}

  /// Joins the reader; returns how many totals went backwards.
  uint64_t stop() {
    Stop.store(true);
    T.join();
    return Backwards.load();
  }
  uint64_t polls() const { return Polls.load(); }

private:
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Backwards{0};
  std::atomic<uint64_t> Polls{0};
  std::thread T;
};

struct Outcome {
  Stats Live;   ///< stats() after the last awaitQuiescence, before finish
  Stats Final;  ///< stats() after finish
  uint64_t Backwards = 0;
  uint64_t Polls = 0;
};

Outcome runPolled(const nes::Nes &N, const topo::Topology &Topo,
                  const EngineConfig &Cfg, const Workload &W) {
  Engine E(N, Topo, Cfg);
  E.start();
  LivePoller Poller(E);
  for (const Phase &Ph : W.Phases) {
    E.injectBatch(Ph.Injections.data(), Ph.Injections.size());
    E.awaitQuiescence();
  }
  // Keep polling until the reader has seen the quiesced counters too.
  uint64_t Seen = Poller.polls();
  while (Poller.polls() < Seen + 2)
    std::this_thread::yield();
  Outcome O;
  O.Live = E.stats();
  O.Backwards = Poller.stop();
  O.Polls = Poller.polls();
  E.finish();
  O.Final = E.stats();
  return O;
}

/// The identities every quiesced engine run must satisfy, live and final.
void expectBalanced(const Stats &S, const std::string &Ctx) {
  EXPECT_EQ(S.PacketsInjected, S.PacketsDelivered + S.PacketsDropped) << Ctx;
  uint64_t Hops = 0, Dropped = 0, Shed = 0;
  for (const ShardStats &SS : S.Shards) {
    Hops += SS.PacketsProcessed;
    Dropped += SS.Dropped;
    Shed += SS.Shed;
  }
  EXPECT_EQ(Hops, S.PacketsProcessed) << Ctx;
  EXPECT_EQ(Dropped, S.PacketsDropped) << Ctx;
  EXPECT_EQ(Shed, S.FaultSheds) << Ctx;
  // Each injection is processed at its ingress switch and each link
  // traversal at its far end, unless the message was shed unprocessed.
  EXPECT_EQ(Hops + S.FaultSheds, S.PacketsInjected + S.PacketsForwarded)
      << Ctx;
}

} // namespace

TEST(EngineCounters, LiveTotalsNeverDecreaseAndQuiescedTotalsBalance) {
  topo::Topology Fat = topo::fatTreeTopology(4);
  nes::Nes N = apps::staticRoutingNes(Fat);
  TrafficGen G(Fat, 42);
  Workload W = G.pings(24, 64);
  const uint64_t Requests = W.totalInjections();

  // Link traversals of this seed's 1536 pings and their 1536 echo
  // replies under the fat tree's static routes: placement moves hops
  // between shards, never adds or removes one.
  const uint64_t ExpectedForwarded = 10616;

  for (unsigned Shards : {1u, 2u, 4u}) {
    EngineConfig Cfg;
    Cfg.NumShards = Shards;
    Outcome O = runPolled(N, Fat, Cfg, W);
    std::string Ctx = "shards=" + std::to_string(Shards);

    EXPECT_EQ(O.Backwards, 0u) << Ctx << " over " << O.Polls << " polls";
    EXPECT_GT(O.Polls, 0u) << Ctx;
    for (const Stats *S : {&O.Live, &O.Final}) {
      expectBalanced(*S, Ctx);
      EXPECT_EQ(S->PacketsInjected, 2 * Requests) << Ctx;
      EXPECT_EQ(S->PacketsDropped, 0u) << Ctx;
      EXPECT_EQ(S->PacketsForwarded, ExpectedForwarded) << Ctx;
      EXPECT_EQ(S->Shards.size(), Shards) << Ctx;
    }
  }
}

TEST(EngineCounters, ShedTalliesNetOutUnderShedOldest) {
  // 16-slot rings and 512-packet phases: producers spill into the
  // overflow deques and shed the oldest data messages there, bumping the
  // destination shard's shed tallies under its overflow lock while the
  // owner counts its own hops.
  topo::Topology Fat = topo::fatTreeTopology(4);
  nes::Nes N = apps::staticRoutingNes(Fat);
  TrafficGen G(Fat, 7);
  Workload W = G.pings(8, 512);

  for (unsigned Shards : {2u, 4u}) {
    EngineConfig Cfg;
    Cfg.NumShards = Shards;
    Cfg.QueueCapacity = 16;
    Cfg.Overload = OverloadPolicy::ShedOldest;
    Outcome O = runPolled(N, Fat, Cfg, W);
    std::string Ctx = "shards=" + std::to_string(Shards);

    EXPECT_EQ(O.Backwards, 0u) << Ctx << " over " << O.Polls << " polls";
    EXPECT_GT(O.Final.FaultSheds, 0u) << Ctx << ": nothing was shed";
    for (const Stats *S : {&O.Live, &O.Final}) {
      expectBalanced(*S, Ctx);
      // Every request is either injected by the IN rule or shed as an
      // injection; replies only add to the count.
      EXPECT_GE(S->PacketsInjected, W.totalInjections()) << Ctx;
    }
  }
}
