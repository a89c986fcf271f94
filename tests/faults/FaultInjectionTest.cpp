//===- tests/faults/FaultInjectionTest.cpp - Faults end to end ------------===//
//
// The harness acceptance tests: injected drops/dups/delays are counted
// and ledgered on both substrates, the ledger is byte-identical across
// repeat runs and shard counts, the Definition 6 checker passes exactly
// when the ledger excuses the damage, and the overload policies keep the
// accounting airtight (delivered + dropped == injected, silent loss 0)
// even with queue capacities clamped to nearly nothing.
//
//===----------------------------------------------------------------------===//

#include "faults/FaultPlan.h"
#include "faults/Injector.h"

#include "api/Api.h"
#include "apps/Programs.h"
#include "consistency/Check.h"
#include "engine/Engine.h"
#include "engine/TrafficGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>

using namespace eventnet;

namespace {

api::Result<api::Compilation> compileFirewall() {
  return api::compile(api::CompileOptions()
                          .programSource(apps::firewallSource())
                          .topology(topo::firewallTopology()));
}

std::shared_ptr<faults::FaultPlan> linkPlan(uint64_t Seed, double DropP,
                                            double DupP, double DelayP) {
  auto P = std::make_shared<faults::FaultPlan>();
  P->Seed = Seed;
  P->Links.push_back({-1, -1, DropP, DupP, DelayP, 0, -1});
  return P;
}

} // namespace

class FaultBackends : public ::testing::TestWithParam<const char *> {};

TEST_P(FaultBackends, InjectedFaultsAreCountedAndExcused) {
  api::Result<api::Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  api::Result<api::RunReport> R =
      api::run(*C, GetParam(),
               api::RunOptions().seed(3).phases(8).pingsPerPhase(4).faults(
                   linkPlan(7, 0.08, 0.08, 0.1)));
  ASSERT_TRUE(R.ok()) << R.status().str();

  EXPECT_TRUE(R->Faults.Enabled);
  // With ~26% total fault probability over dozens of link crossings,
  // every content-addressed fault type fires for this (seed, workload).
  EXPECT_GT(R->Faults.Drops + R->Faults.Dups + R->Faults.Delays, 0u);
  EXPECT_EQ(R->Faults.LedgerEntries,
            R->Faults.Drops + R->Faults.Dups + R->Faults.Delays);
  EXPECT_FALSE(R->Faults.Ledger.empty());

  // Injected damage is excused, not silent: the audit stays clean and
  // the checker accepts the surviving trace.
  EXPECT_TRUE(R->Audit.Ok) << R->Audit.SilentLoss << " silently lost";
  ASSERT_TRUE(R->Checked);
  EXPECT_TRUE(R->Consistency.Correct) << R->Consistency.Reason;

  // The report renders the fault block in both formats.
  EXPECT_NE(R->str().find("faults:"), std::string::npos);
  EXPECT_NE(R->json().find("\"faults\": {\"enabled\": true"),
            std::string::npos);
}

TEST_P(FaultBackends, LedgerIsByteIdenticalAcrossRepeatRuns) {
  api::Result<api::Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  // Drop/dup/delay decisions are pure functions of (plan seed, site,
  // packet content), so two runs — whatever the thread interleavings —
  // must produce the same canonical ledger bytes.
  api::RunOptions O;
  O.seed(11).phases(6).pingsPerPhase(4).faults(linkPlan(21, 0.1, 0.1, 0.1));
  api::Result<api::RunReport> A = api::run(*C, GetParam(), O);
  api::Result<api::RunReport> B = api::run(*C, GetParam(), O);
  ASSERT_TRUE(A.ok() && B.ok());
  EXPECT_GT(A->Faults.LedgerEntries, 0u);
  EXPECT_EQ(A->Faults.Ledger, B->Faults.Ledger);
}

INSTANTIATE_TEST_SUITE_P(Backends, FaultBackends,
                         ::testing::Values("engine", "sim"));

TEST(FaultInjection, LedgerAgreesAcrossSubstratesAndShardCounts) {
  api::Result<api::Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  api::RunOptions O;
  O.seed(5).faults(linkPlan(13, 0.1, 0.1, 0.1));

  // The seeded ping workload, with a phase boundary between the two
  // directions of every phase: H1's requests first, then H4's. The
  // firewall lets an H4 -> H1 request past s4 only once H1 traffic has
  // reached s4. Inside one phase the engine decides that race by thread
  // timing (the simulator by its schedule), and a request that passes
  // crosses a faulty link the blocked one never reaches, so the ledgers
  // would differ while both runs stay legal under Definition 6. Across
  // the boundary every substrate sees the same order.
  engine::TrafficGen G(C->topology(), 5);
  engine::Workload W;
  for (const engine::Phase &Ph : G.pings(6, 4).Phases)
    for (HostId From : {topo::HostH1, topo::HostH4}) {
      engine::Phase Dir;
      for (const engine::Injection &In : Ph.Injections)
        if (In.From == From)
          Dir.Injections.push_back(In);
      if (!Dir.Injections.empty())
        W.Phases.push_back(std::move(Dir));
    }

  auto Execute = [&](const char *Backend, const api::RunOptions &RO) {
    api::Result<std::unique_ptr<api::Backend>> B = api::makeBackend(Backend);
    EXPECT_TRUE(B.ok()) << B.status().str();
    return (*B)->execute(*C, RO, W);
  };
  api::Result<api::RunReport> Sim = Execute("sim", O);
  ASSERT_TRUE(Sim.ok()) << Sim.status().str();
  EXPECT_GT(Sim->Faults.LedgerEntries, 0u);

  // Link-fault verdicts are content-addressed, independent of substrate
  // and of where switches are placed: every configuration produces the
  // identical ledger.
  for (unsigned Shards : {1u, 2u, 4u}) {
    api::RunOptions OE = O;
    OE.shards(Shards);
    api::Result<api::RunReport> Eng = Execute("engine", OE);
    ASSERT_TRUE(Eng.ok()) << Eng.status().str();
    EXPECT_EQ(Eng->Faults.Ledger, Sim->Faults.Ledger)
        << "shards=" << Shards;
  }
}

TEST(FaultInjection, UnledgeredTruncationStillFails) {
  // The point of the ledger: the checker excuses exactly the damage the
  // plan owns. Discarding the ledger turns the same faulted trace into a
  // Definition 6 violation (a chain ends where the configuration says it
  // must continue).
  api::Result<api::Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  api::Result<api::RunReport> R =
      api::run(*C, "engine",
               api::RunOptions().seed(3).phases(8).pingsPerPhase(4).faults(
                   linkPlan(7, 0.2, 0.0, 0.0)));
  ASSERT_TRUE(R.ok()) << R.status().str();
  ASSERT_GT(R->Faults.Drops, 0u);
  ASSERT_TRUE(R->Checked);
  EXPECT_TRUE(R->Consistency.Correct) << R->Consistency.Reason;

  auto Naked = consistency::checkAgainstNes(R->Trace, C->topology(),
                                            C->structure());
  EXPECT_FALSE(Naked.Correct);
}

TEST(FaultInjection, MachineBackendRejectsPlans) {
  api::Result<api::Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();
  api::Result<api::RunReport> R = api::run(
      *C, "machine",
      api::RunOptions().faults(linkPlan(1, 0.1, 0.0, 0.0)));
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), api::Code::InvalidArgument);
}

TEST(FaultInjection, UnknownOverloadPolicyIsInvalidArgument) {
  api::Result<api::Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();
  api::Result<api::RunReport> R =
      api::run(*C, "engine", api::RunOptions().overload("spill-to-disk"));
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), api::Code::InvalidArgument);
  EXPECT_NE(R.status().message().find("spill-to-disk"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Overload policies under a clamped queue (the graceful-degradation half)
//===----------------------------------------------------------------------===//

class OverloadPolicies
    : public ::testing::TestWithParam<engine::OverloadPolicy> {};

TEST_P(OverloadPolicies, ClampedQueuesKeepExactAccounting) {
  // Queue capacity clamped to 2 via the plan while bulk traffic slams
  // the ring: whatever the policy does — block losslessly or shed with
  // tickets — every injected packet must end as a delivery or a counted
  // drop. Silent loss is the one unacceptable outcome.
  apps::App A = apps::ringApp(6, 3);
  api::Result<api::Compilation> C = api::compile(
      api::CompileOptions().programAst(A.Ast).topology(A.Topo));
  ASSERT_TRUE(C.ok()) << C.status().str();

  faults::FaultPlan Plan;
  Plan.Seed = 3;
  Plan.QueueCapacityClamp = 2;
  faults::Injector Inj(Plan);

  engine::EngineConfig Cfg;
  Cfg.NumShards = 3;
  Cfg.Overload = GetParam();
  Cfg.Faults = &Inj;
  engine::Engine E(C->structure(), A.Topo, Cfg);

  engine::TrafficGen G(A.Topo, 17);
  engine::Workload W = G.bulk(topo::HostH1, topo::HostH2, 200, 100);
  W += G.probe(topo::HostH1, topo::HostH2); // transition under pressure
  W += G.bulk(topo::HostH1, topo::HostH2, 200, 100);
  E.run(W);

  engine::Stats S = E.stats();
  EXPECT_EQ(S.PacketsInjected, 401u);
  EXPECT_EQ(S.PacketsDelivered + S.PacketsDropped, S.PacketsInjected)
      << "delivered " << S.PacketsDelivered << " + dropped "
      << S.PacketsDropped << " != injected (silent loss)";

  uint64_t ShardShed = 0;
  for (const engine::ShardStats &SS : S.Shards)
    ShardShed += SS.Shed;
  EXPECT_EQ(ShardShed, S.FaultSheds);
  if (GetParam() == engine::OverloadPolicy::Block) {
    // Block is lossless: bounded backoff then unbounded spill.
    EXPECT_EQ(S.FaultSheds, 0u);
    EXPECT_EQ(S.PacketsDelivered, 401u);
  } else {
    // The shedding policies must actually engage at this capacity.
    EXPECT_GT(S.FaultSheds, 0u);
    EXPECT_EQ(S.PacketsDropped, S.FaultSheds);
  }

  // Shed tickets excuse the truncated chains: Definition 6 still holds
  // on the surviving trace.
  faults::FaultLedger L = E.takeFaultLedger();
  consistency::FaultContext Ctx;
  Ctx.ExcusedEntries = std::move(L.ExcusedEntries);
  Ctx.DupEntries = std::move(L.DupEntries);
  auto R = consistency::checkAgainstNes(E.trace(), A.Topo, C->structure(),
                                        &Ctx);
  EXPECT_TRUE(R.Correct) << R.Reason;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, OverloadPolicies,
    ::testing::Values(engine::OverloadPolicy::Block,
                      engine::OverloadPolicy::ShedOldest,
                      engine::OverloadPolicy::ShedNewest),
    [](const ::testing::TestParamInfo<engine::OverloadPolicy> &I) {
      std::string N = engine::overloadPolicyName(I.param);
      for (char &C : N)
        if (C == '-')
          C = '_';
      return N;
    });

TEST(FaultInjection, StreamAndMergedTraceReadOneLog) {
  // With RecordTrace and StreamTrace both on, the live stream and the
  // merged trace are two readings of each shard's one trace log: the
  // drained entries, sorted by ticket, are the merged trace entry for
  // entry, and the stream's excusals (shed ones included) and duplicate
  // marks are exactly the ledger's index lists.
  apps::App A = apps::ringApp(6, 3);
  api::Result<api::Compilation> C = api::compile(
      api::CompileOptions().programAst(A.Ast).topology(A.Topo));
  ASSERT_TRUE(C.ok()) << C.status().str();

  // Drop, dup, delay, stall, clamp and storm at once.
  faults::FaultPlan Plan;
  Plan.Seed = 19;
  Plan.Links.push_back({-1, -1, 0.05, 0.05, 0.1, 0, -1});
  Plan.Stalls.push_back({-1, 8, 100});
  Plan.QueueCapacityClamp = 4;
  Plan.CtrlStormRepeat = 2;
  faults::Injector Inj(Plan);

  engine::EngineConfig Cfg;
  Cfg.NumShards = 3;
  Cfg.Overload = engine::OverloadPolicy::ShedOldest;
  Cfg.Faults = &Inj;
  Cfg.RecordTrace = true;
  Cfg.StreamTrace = true;
  engine::Engine E(C->structure(), A.Topo, Cfg);

  engine::TrafficGen G(A.Topo, 17);
  engine::Workload W = G.bulk(topo::HostH1, topo::HostH2, 200, 100);
  W += G.probe(topo::HostH1, topo::HostH2);
  W += G.bulk(topo::HostH1, topo::HostH2, 200, 100);
  E.run(W);

  // Nobody drained during the run; the workload fits under StreamBufCap,
  // so the stream holds every record.
  ASSERT_EQ(E.streamLagShed(), 0u);
  std::vector<engine::Engine::StreamItem> Items;
  E.drainTraceStream(Items);

  engine::Stats S = E.stats();
  EXPECT_GT(S.FaultDrops, 0u);
  EXPECT_GT(S.FaultDups, 0u);
  EXPECT_GT(S.FaultSheds, 0u);

  std::vector<const engine::Engine::StreamItem *> Entries;
  std::vector<uint64_t> ExcuseTickets;
  for (const engine::Engine::StreamItem &It : Items)
    if (It.K == engine::Engine::StreamItem::Excuse)
      ExcuseTickets.push_back(It.Ticket);
    else
      Entries.push_back(&It);
  std::sort(Entries.begin(), Entries.end(),
            [](const engine::Engine::StreamItem *X,
               const engine::Engine::StreamItem *Y) {
              return X->Ticket < Y->Ticket;
            });

  const std::vector<consistency::TraceEntry> &T = E.trace().entries();
  ASSERT_EQ(Entries.size(), T.size());
  ASSERT_EQ(E.traceTags().size(), T.size());
  std::unordered_map<uint64_t, int> IndexOf;
  std::vector<int> Dups;
  for (size_t I = 0; I != T.size(); ++I) {
    const engine::Engine::StreamItem &It = *Entries[I];
    int Parent = -1;
    if (It.Parent >= 0) {
      auto P = IndexOf.find(static_cast<uint64_t>(It.Parent));
      ASSERT_NE(P, IndexOf.end()) << "entry " << I << ": parent unlogged";
      Parent = P->second;
    }
    EXPECT_TRUE(It.Lp == T[I].Lp) << "entry " << I;
    EXPECT_EQ(It.IsDelivery, T[I].IsDelivery) << "entry " << I;
    EXPECT_EQ(Parent, T[I].Parent) << "entry " << I;
    EXPECT_EQ(It.Tag, E.traceTags()[I]) << "entry " << I;
    IndexOf.emplace(It.Ticket, static_cast<int>(I));
    if (It.IsDup)
      Dups.push_back(static_cast<int>(I));
  }

  std::vector<int> Excused;
  for (uint64_t Ticket : ExcuseTickets) {
    auto P = IndexOf.find(Ticket);
    ASSERT_NE(P, IndexOf.end()) << "excusal of unlogged ticket " << Ticket;
    Excused.push_back(P->second);
  }
  std::sort(Excused.begin(), Excused.end());
  Excused.erase(std::unique(Excused.begin(), Excused.end()), Excused.end());

  const faults::FaultLedger &L = E.faultLedger();
  EXPECT_FALSE(Excused.empty());
  EXPECT_FALSE(Dups.empty());
  EXPECT_EQ(Excused, L.ExcusedEntries);
  EXPECT_EQ(Dups, L.DupEntries);
}

TEST(FaultInjection, OverloadPolicyNamesRoundTrip) {
  using engine::OverloadPolicy;
  for (OverloadPolicy P :
       {OverloadPolicy::Block, OverloadPolicy::ShedOldest,
        OverloadPolicy::ShedNewest}) {
    auto Parsed = engine::parseOverloadPolicy(engine::overloadPolicyName(P));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, P);
  }
  EXPECT_FALSE(engine::parseOverloadPolicy("drop-all").has_value());
}

TEST(FaultInjection, StallsAndStormsAreCountedNotLedgered) {
  // Timing-dependent faults perturb the schedule but stay out of the
  // deterministic ledger.
  api::Result<api::Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  auto P = std::make_shared<faults::FaultPlan>();
  P->Seed = 2;
  P->Stalls.push_back({-1, 1, 50}); // stall every non-empty batch
  api::Result<api::RunReport> R = api::run(
      *C, "engine",
      api::RunOptions().seed(9).shards(2).phases(6).pingsPerPhase(4).faults(
          P));
  ASSERT_TRUE(R.ok()) << R.status().str();
  EXPECT_GT(R->Faults.Stalls, 0u);
  EXPECT_EQ(R->Faults.LedgerEntries, 0u); // stalls never enter the ledger
  ASSERT_TRUE(R->Checked);
  EXPECT_TRUE(R->Consistency.Correct) << R->Consistency.Reason;

  auto Storm = std::make_shared<faults::FaultPlan>();
  Storm->Seed = 2;
  Storm->CtrlStormRepeat = 3;
  api::Result<api::RunReport> RS = api::run(
      *C, "engine",
      api::RunOptions().seed(9).shards(2).phases(6).pingsPerPhase(4).faults(
          Storm));
  ASSERT_TRUE(RS.ok()) << RS.status().str();
  // The firewall app has one event; each occurrence re-broadcasts to
  // every shard CtrlStormRepeat times.
  EXPECT_GT(RS->Faults.Storms, 0u);
  ASSERT_TRUE(RS->Checked);
  EXPECT_TRUE(RS->Consistency.Correct) << RS->Consistency.Reason;
}
