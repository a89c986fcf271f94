//===- tests/net/NetLoadgenTest.cpp - Loopback server + load generator ----===//
//
// The full socket pipeline in-process: a net::Server bound to an
// ephemeral loopback port, fed by a real engine through its
// DeliverySink, driven by the multi-connection load generator over TCP
// and UDP, generating echo traffic or replaying an engine::Workload.
// Asserts the generator's own validation (every reply's seq was
// sent, no protocol errors, no timeout), frame-level agreement between
// the two ends of the wire, delivery conservation on the server, and
// Definition 6 on the engine's recorded trace.
//
//===----------------------------------------------------------------------===//

#include "api/Api.h"

#include "apps/Programs.h"
#include "consistency/Check.h"
#include "engine/TrafficGen.h"
#include "net/Loadgen.h"
#include "net/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

using namespace eventnet;

namespace {

/// One assembled loopback pipeline: compile firewall, bind an ephemeral
/// server, attach a 2-shard engine, serve on a background thread.
struct Loopback {
  api::Result<api::Compilation> C;
  net::Server Srv;
  std::unique_ptr<engine::Engine> E;
  std::atomic<bool> Stop{false};
  std::thread Thread;
  bool Opened = false;

  explicit Loopback(net::ServerConfig SC = net::ServerConfig())
      : C(api::compile(api::CompileOptions()
                           .programSource(apps::firewallSource())
                           .topology(topo::firewallTopology()))),
        Srv((SC.Port = 0, SC)) {
    if (!C.ok())
      return;
    std::string Err;
    Opened = Srv.open(Err);
    if (!Opened)
      return;
    engine::EngineConfig Cfg;
    Cfg.NumShards = 2;
    Cfg.DeliverySink = Srv.deliverySink();
    E = std::make_unique<engine::Engine>(C->structure(), C->topology(), Cfg);
    Srv.attach(*E);
    E->start();
    Thread = std::thread([this] { Srv.serve(Stop); });
  }

  ~Loopback() { shutdown(); }

  void shutdown() {
    if (Thread.joinable()) {
      Stop = true;
      Thread.join();
    }
    if (E)
      E->finish();
  }

  net::LoadgenStats drive(net::LoadgenConfig LC) {
    LC.Port = Srv.port();
    return net::runLoadgen(LC);
  }

  net::LoadgenStats replay(net::LoadgenConfig LC, const engine::Workload &W) {
    LC.Port = Srv.port();
    return net::runLoadgen(LC, W);
  }
};

} // namespace

TEST(NetLoadgen, TcpEndToEnd) {
  Loopback L;
  ASSERT_TRUE(L.C.ok()) << L.C.status().str();
  ASSERT_TRUE(L.Opened);

  net::LoadgenConfig LC;
  LC.Connections = 8;
  LC.FramesPerConn = 64;
  LC.Burst = 16;
  LC.Phases = 2;
  LC.RttSampleEvery = 4;
  net::LoadgenStats S = L.drive(LC);
  L.shutdown();

  EXPECT_TRUE(S.ok()) << S.ProtocolErrors << " protocol errors, "
                      << S.SeqMismatches << " seq mismatches, timed_out="
                      << S.TimedOut;
  EXPECT_EQ(S.Connected, 8u);
  EXPECT_EQ(S.InjectsSent, 8u * 64u);
  EXPECT_EQ(S.BarrierAcks, 8u * 2u); // one fence per conn per phase
  EXPECT_GT(S.Replies, 0u);
  EXPECT_LE(S.Replies, S.InjectsSent);
  EXPECT_GE(S.Delivers, S.Replies);
  EXPECT_GT(S.RttNs.TotalCount, 0u);

  // Both ends of the wire agree frame for frame (Block policy, clean
  // drain: nothing shed, nothing unread).
  net::ServerStats SS = L.Srv.stats();
  EXPECT_EQ(SS.Accepted, 8u);
  EXPECT_EQ(SS.Closed, 8u);
  EXPECT_EQ(SS.ProtocolErrors, 0u);
  EXPECT_EQ(SS.FramesInjected, S.InjectsSent);
  EXPECT_EQ(SS.FramesIn, S.FramesSent);
  EXPECT_EQ(SS.BytesIn, S.BytesSent);
  EXPECT_EQ(SS.DeliveryFrames, S.Delivers);
  EXPECT_EQ(SS.RepliesOut, S.Replies);
  EXPECT_EQ(SS.BackpressureShed, 0u);
  EXPECT_EQ(SS.BarriersAcked, S.BarrierAcks);

  // Delivery conservation: every engine delivery is routed, shed,
  // unroutable, or non-net — never silently gone.
  engine::Stats ES = L.E->stats();
  EXPECT_EQ(SS.DeliveryFrames + SS.RingShed + SS.DeliveryUnroutable +
                SS.NonNetDeliveries,
            ES.PacketsDelivered);

  // The trace recorded through the socket path satisfies Definition 6.
  consistency::CheckResult D6 = consistency::checkAgainstNes(
      L.E->trace(), L.C->topology(), L.C->structure());
  EXPECT_TRUE(D6.Correct) << D6.Reason;
}

TEST(NetLoadgen, UdpEndToEnd) {
  Loopback L;
  ASSERT_TRUE(L.C.ok()) << L.C.status().str();
  ASSERT_TRUE(L.Opened);

  net::LoadgenConfig LC;
  LC.Udp = true;
  LC.Connections = 4;
  LC.FramesPerConn = 32;
  LC.Burst = 8;
  LC.Phases = 1;
  net::LoadgenStats S = L.drive(LC);
  L.shutdown();

  EXPECT_TRUE(S.ok()) << S.ProtocolErrors << " protocol errors, "
                      << S.SeqMismatches << " seq mismatches, timed_out="
                      << S.TimedOut;
  EXPECT_EQ(S.Connected, 4u);
  EXPECT_EQ(S.InjectsSent, 4u * 32u);
  EXPECT_EQ(S.BarrierAcks, 4u);

  net::ServerStats SS = L.Srv.stats();
  EXPECT_EQ(SS.Accepted, 4u); // four distinct UDP peers
  EXPECT_GT(SS.UdpDatagrams, 0u);
  EXPECT_EQ(SS.FramesInjected, S.InjectsSent);

  engine::Stats ES = L.E->stats();
  EXPECT_EQ(SS.DeliveryFrames + SS.RingShed + SS.DeliveryUnroutable +
                SS.NonNetDeliveries,
            ES.PacketsDelivered);
}

TEST(NetLoadgen, BlockPolicyParksReadsInsteadOfShedding) {
  // A deliberately tiny egress bound under Block: the server must park
  // each saturated connection's read side and let TCP flow control
  // absorb the burst — losing nothing — rather than shed or balloon.
  net::ServerConfig SC;
  SC.Session.EgressCapacity = 4;
  SC.Session.Overload = engine::OverloadPolicy::Block;
  Loopback L(SC);
  ASSERT_TRUE(L.C.ok()) << L.C.status().str();
  ASSERT_TRUE(L.Opened);

  net::LoadgenConfig LC;
  LC.Connections = 4;
  LC.FramesPerConn = 256;
  LC.Burst = 64; // far past the 4-frame egress bound
  LC.Phases = 1;
  net::LoadgenStats S = L.drive(LC);
  L.shutdown();

  EXPECT_TRUE(S.ok()) << S.ProtocolErrors << " protocol errors, "
                      << S.SeqMismatches << " seq mismatches, timed_out="
                      << S.TimedOut;
  EXPECT_EQ(S.InjectsSent, 4u * 256u);

  net::ServerStats SS = L.Srv.stats();
  EXPECT_EQ(SS.FramesInjected, S.InjectsSent);
  EXPECT_EQ(SS.BackpressureShed, 0u); // Block never sheds
  EXPECT_EQ(SS.DeliveryFrames, S.Delivers);

  engine::Stats ES = L.E->stats();
  EXPECT_EQ(SS.DeliveryFrames + SS.RingShed + SS.DeliveryUnroutable +
                SS.NonNetDeliveries,
            ES.PacketsDelivered);
}

TEST(NetLoadgen, ManyConnections) {
  // The fd-heavy shape: more sessions than hosts, every one handshakes,
  // fences, and drains.
  Loopback L;
  ASSERT_TRUE(L.C.ok()) << L.C.status().str();
  ASSERT_TRUE(L.Opened);

  net::LoadgenConfig LC;
  LC.Connections = 64;
  LC.FramesPerConn = 16;
  LC.Burst = 8;
  LC.Phases = 1;
  LC.RttSampleEvery = 0; // throughput shape, no sampling
  net::LoadgenStats S = L.drive(LC);
  L.shutdown();

  EXPECT_TRUE(S.ok()) << S.ProtocolErrors << " protocol errors, "
                      << S.SeqMismatches << " seq mismatches, timed_out="
                      << S.TimedOut;
  EXPECT_EQ(S.Connected, 64u);
  EXPECT_EQ(S.InjectsSent, 64u * 16u);
  EXPECT_EQ(S.BarrierAcks, 64u);
  EXPECT_EQ(S.RttNs.TotalCount, 0u);

  net::ServerStats SS = L.Srv.stats();
  EXPECT_EQ(SS.Accepted, 64u);
  EXPECT_EQ(SS.Closed, 64u);
  EXPECT_EQ(SS.FramesInjected, S.InjectsSent);
}

TEST(NetLoadgen, ReplaysAWorkloadOverTcpAndUdp) {
  // A replayed workload deals injection I of each phase to connection
  // I % Connections, so a connection's request seqs are a sparse,
  // increasing subset of the workload's rather than 1..n; the reply
  // check must hold against what the connection actually sent.
  for (bool Udp : {false, true}) {
    SCOPED_TRACE(Udp ? "udp" : "tcp");
    Loopback L;
    ASSERT_TRUE(L.C.ok()) << L.C.status().str();
    ASSERT_TRUE(L.Opened);

    const unsigned Phases = 3;
    engine::TrafficGen G(L.C->topology(), 5);
    engine::Workload W = G.pings(Phases, 8);

    net::LoadgenConfig LC;
    LC.Udp = Udp;
    LC.Connections = Udp ? 2 : 3;
    LC.Burst = 4;
    LC.RttSampleEvery = 1;
    net::LoadgenStats S = L.replay(LC, W);
    L.shutdown();

    EXPECT_TRUE(S.ok()) << S.ProtocolErrors << " protocol errors, "
                        << S.SeqMismatches << " seq mismatches, timed_out="
                        << S.TimedOut;
    EXPECT_EQ(S.SeqMismatches, 0u);
    EXPECT_EQ(S.Connected, LC.Connections);
    EXPECT_EQ(S.InjectsSent, W.totalInjections());
    EXPECT_EQ(S.BarrierAcks, LC.Connections * Phases);
    EXPECT_GT(S.Replies, 0u);
    EXPECT_GT(S.RttNs.TotalCount, 0u);

    net::ServerStats SS = L.Srv.stats();
    EXPECT_EQ(SS.ProtocolErrors, 0u);
    EXPECT_EQ(SS.FramesInjected, W.totalInjections());
    // One Deliver frame on the client per delivery the server routed.
    EXPECT_EQ(S.Delivers, SS.DeliveryFrames);
    EXPECT_EQ(S.Replies, SS.RepliesOut);

    engine::Stats ES = L.E->stats();
    EXPECT_EQ(SS.DeliveryFrames + SS.RingShed + SS.DeliveryUnroutable +
                  SS.NonNetDeliveries,
              ES.PacketsDelivered);
  }
}
