//===- tests/api/FacadeRunTest.cpp - One surface, three backends ----------===//
//
// The acceptance-level façade test: the same compiled program and the
// same seeded workload execute on the Machine, the Simulator, and the
// Engine through one Run surface, every backend's recorded trace passes
// the Definition 6 checker, and the uniform RunReport carries comparable
// counters (identical injected-packet counts, since all backends realize
// the identical workload).
//
//===----------------------------------------------------------------------===//

#include "api/Api.h"
#include "api/EngineOptions.h"

#include "apps/Programs.h"
#include "consistency/Check.h"
#include "engine/Engine.h"
#include "engine/TrafficGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

using namespace eventnet;
using namespace eventnet::api;

namespace {

Result<Compilation> compileFirewall() {
  return compile(CompileOptions()
                     .programSource(apps::firewallSource())
                     .topology(topo::firewallTopology()));
}

} // namespace

TEST(Facade, RegistryListsBuiltins) {
  std::vector<std::string> Names = backendNames();
  EXPECT_NE(std::find(Names.begin(), Names.end(), "machine"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "sim"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "engine"), Names.end());
}

TEST(Facade, CompilationExposesEveryArtifact) {
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  EXPECT_EQ(C->structure().numEvents(), 1u);
  EXPECT_EQ(C->structure().numSets(), 2u);
  EXPECT_EQ(C->ets().vertices().size(), 2u);
  EXPECT_EQ(C->bindings().at("H4"), 4);
  EXPECT_GT(C->compileSeconds(), 0);
  EXPECT_GT(C->guardedRuleCount(), 0u);
  EXPECT_LE(C->shareStats().After, C->shareStats().Before);
  EXPECT_FALSE(C->etsText().empty());
  EXPECT_FALSE(C->nesText().empty());
  EXPECT_NE(C->tablesText().find("event-set E0"), std::string::npos);
  EXPECT_NE(C->summary().find("locally determined"), std::string::npos);
  EXPECT_NE(C->summaryJson().find("\"events\": 1"), std::string::npos);
}

class FacadeBackends : public ::testing::TestWithParam<const char *> {};

TEST_P(FacadeBackends, FirewallRunIsConsistent) {
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  Result<RunReport> R =
      run(*C, GetParam(), RunOptions().seed(7).phases(4).pingsPerPhase(4));
  ASSERT_TRUE(R.ok()) << R.status().str();

  EXPECT_EQ(R->Backend, GetParam());
  EXPECT_EQ(R->Seed, 7u);
  EXPECT_GT(R->PacketsInjected, 0u);
  EXPECT_GT(R->PacketsDelivered, 0u);
  EXPECT_GT(R->SwitchHops, 0u);
  EXPECT_GT(R->Trace.size(), 0u);
  ASSERT_TRUE(R->Checked);
  EXPECT_TRUE(R->Consistency.Correct) << R->Consistency.Reason;

  // Packet conservation holds on every backend; the audit proves it.
  EXPECT_TRUE(R->Audit.Ok)
      << R->Audit.SilentLoss << " packets silently lost";
  EXPECT_EQ(R->Audit.Injected, R->PacketsInjected);
  EXPECT_EQ(R->Audit.SilentLoss, 0u);
}

TEST_P(FacadeBackends, RingRunIsConsistent) {
  apps::App A = apps::ringApp(6, 3);
  Result<Compilation> C = compile(
      CompileOptions().programAst(A.Ast).topology(A.Topo));
  ASSERT_TRUE(C.ok()) << C.status().str();

  Result<RunReport> R =
      run(*C, GetParam(), RunOptions().seed(13).phases(3).pingsPerPhase(2));
  ASSERT_TRUE(R.ok()) << R.status().str();
  ASSERT_TRUE(R->Checked);
  EXPECT_TRUE(R->Consistency.Correct)
      << GetParam() << ": " << R->Consistency.Reason;
}

TEST_P(FacadeBackends, ReportRendersTextAndJson) {
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();
  Result<RunReport> R = run(*C, GetParam(), RunOptions().seed(3));
  ASSERT_TRUE(R.ok()) << R.status().str();

  std::string Text = R->str();
  EXPECT_NE(Text.find("injected:"), std::string::npos);
  EXPECT_NE(Text.find("definition 6: consistent"), std::string::npos);

  std::string Json = R->json();
  EXPECT_NE(Json.find("\"backend\": \"" + std::string(GetParam()) + "\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"seed\": 3"), std::string::npos);
  EXPECT_NE(Json.find("\"consistency\": {\"checked\": true, "
                      "\"correct\": true}"),
            std::string::npos);
  // The observability keys are part of the schema on every backend
  // (zero-valued where the backend records nothing).
  for (const char *Key :
       {"\"update_lat_p50\"", "\"update_lat_p99\"", "\"queue_dwell\"",
        "\"batch_occupancy\"", "\"drop_audit\"", "\"silent_loss\"",
        "\"obs_trace_recorded\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key;
  EXPECT_NE(Json.find("\"ok\": true"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Backends, FacadeBackends,
                         ::testing::Values("machine", "sim", "engine"));

TEST(Facade, EnginePartitionStrategiesRunAndReport) {
  apps::App A = apps::ringApp(6, 3);
  Result<Compilation> C =
      compile(CompileOptions().programAst(A.Ast).topology(A.Topo));
  ASSERT_TRUE(C.ok()) << C.status().str();

  for (const char *P : {"modulo", "contiguous", "refined"}) {
    Result<RunReport> R = run(
        *C, "engine",
        RunOptions().seed(5).shards(2).phases(3).pingsPerPhase(2).partition(
            P));
    ASSERT_TRUE(R.ok()) << P << ": " << R.status().str();
    EXPECT_EQ(R->Partition, P);
    EXPECT_LE(R->EdgeCut, R->EdgeTotal) << P;
    uint32_t Placed = 0;
    for (const ShardReport &D : R->ShardDetail)
      Placed += D.Switches;
    EXPECT_EQ(Placed, A.Topo.switches().size()) << P;
    ASSERT_TRUE(R->Checked);
    EXPECT_TRUE(R->Consistency.Correct) << P << ": "
                                        << R->Consistency.Reason;
    EXPECT_NE(R->json().find("\"partition\": \"" + std::string(P) + "\""),
              std::string::npos);
    EXPECT_NE(R->json().find("\"switches\": "), std::string::npos);
  }
  // The ring's contiguous placement must beat round-robin on edge cut.
  Result<RunReport> Mod =
      run(*C, "engine", RunOptions().seed(5).shards(2).partition("modulo"));
  Result<RunReport> Ref = run(*C, "engine",
                              RunOptions().seed(5).shards(2).partition(
                                  "refined"));
  ASSERT_TRUE(Mod.ok() && Ref.ok());
  EXPECT_LT(Ref->EdgeCut, Mod->EdgeCut);
}

TEST(Facade, EngineObservabilityEndToEnd) {
  // The full observability stack through the façade: latency
  // histograms, the obs trace ring, and the metrics sampler all on at
  // once, with counters that cross-check the run's own report.
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  Result<RunReport> R =
      run(*C, "engine",
          RunOptions().seed(9).shards(2).phases(3).pingsPerPhase(3)
              .latencyHistograms(true)
              .traceEvents(1 << 14)
              .metricsIntervalMs(1)
              .metricsPath("/dev/null"));
  ASSERT_TRUE(R.ok()) << R.status().str();
  ASSERT_TRUE(R->Checked);
  EXPECT_TRUE(R->Consistency.Correct) << R->Consistency.Reason;
  EXPECT_TRUE(R->Audit.Ok);

  // Histograms: every switch hop dwelt in some queue, every dequeue
  // batch had occupancy >= 1.
  EXPECT_GT(R->QueueDwell.Samples, 0u);
  EXPECT_GE(R->QueueDwell.MaxSec, R->QueueDwell.P50Sec);
  EXPECT_GT(R->BatchOccupancy.Samples, 0u);
  EXPECT_GE(R->BatchOccupancy.MeanSec, 1.0);

  // Trace ring: events were recorded, none dropped at this capacity,
  // and the merged timeline is time-ordered with injects and hops.
  EXPECT_GT(R->TraceRecorded, 0u);
  EXPECT_EQ(R->TraceDropped, 0u);
  ASSERT_EQ(R->ObsTrace.size(), R->TraceRecorded);
  bool SawInject = false, SawHop = false;
  for (size_t I = 0; I != R->ObsTrace.size(); ++I) {
    const obs::TraceEvent &E = R->ObsTrace[I];
    SawInject |= E.Kind == obs::TraceKind::Inject;
    SawHop |= E.Kind == obs::TraceKind::Hop;
    EXPECT_LT(E.Shard, 2u);
    if (I) {
      EXPECT_LE(R->ObsTrace[I - 1].TsNs, E.TsNs) << "unsorted at " << I;
    }
  }
  EXPECT_TRUE(SawInject);
  EXPECT_TRUE(SawHop);

  // Off by default: the same run without the options records nothing.
  Result<RunReport> Off =
      run(*C, "engine",
          RunOptions().seed(9).shards(2).phases(3).pingsPerPhase(3));
  ASSERT_TRUE(Off.ok()) << Off.status().str();
  EXPECT_EQ(Off->QueueDwell.Samples, 0u);
  EXPECT_EQ(Off->TraceRecorded, 0u);
  EXPECT_TRUE(Off->ObsTrace.empty());
  // ...but the update-latency digest is a protocol by-product and is
  // populated either way (the ring app's probe flips its config).
  EXPECT_GT(Off->ConfigTransitions, 0u);
}

TEST(Facade, ObsRingDropsLeaveTheStreamingVerdictAlone) {
  // The obs trace ring is a Perfetto channel the streaming checker never
  // reads, so a ring too small for the run drops events without touching
  // the verdict; only the checker's own stream loss (stream_shed) may.
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  Result<RunReport> R =
      run(*C, "engine",
          RunOptions().seed(7).shards(2).workload("churn").phases(4)
              .pingsPerPhase(64)
              .streamingCheck(true)
              .traceEvents(16));
  ASSERT_TRUE(R.ok()) << R.status().str();
  ASSERT_GT(R->TraceDropped, 0u) << "ring large enough for the whole run";
  ASSERT_TRUE(R->StreamCheck.Enabled);
  EXPECT_EQ(R->StreamCheck.StreamShed, 0u);
  EXPECT_TRUE(R->StreamCheck.Result.ok())
      << consistency::streamVerdictName(R->StreamCheck.Result.Verdict) << ": "
      << R->StreamCheck.Result.Reason;
}

TEST(Facade, EngineReportExcusesOverloadShedsWithoutAPlan) {
  // A shed overload policy retires chains under plain pressure, with no
  // fault plan active. The shared engine-report fill must still hand the
  // ledger's excusal context to the batch check; without it the cut
  // chains read as a Definition 6 violation.
  apps::App A = apps::ringApp(8, 4);
  Result<Compilation> C =
      compile(CompileOptions().programAst(A.Ast).topology(A.Topo));
  ASSERT_TRUE(C.ok()) << C.status().str();

  for (const char *Policy : {"shed-oldest", "shed-newest"}) {
    RunOptions O = RunOptions().shards(2).overload(Policy);
    Result<engine::EngineConfig> Cfg = detail::engineConfig(O);
    ASSERT_TRUE(Cfg.ok()) << Cfg.status().str();
    Cfg->QueueCapacity = 2;
    engine::Engine E(C->structure(), C->topology(), *Cfg);
    engine::TrafficGen G(C->topology(), 1);
    E.run(G.pings(4, 64));

    RunReport R;
    detail::fillEngineReport(R, E, O, *Cfg, /*Col=*/nullptr);
    detail::auditAndCheck(R, *C, O);
    EXPECT_FALSE(R.Faults.Enabled) << Policy;
    uint64_t Shed = 0;
    for (const ShardReport &SR : R.ShardDetail)
      Shed += SR.Shed;
    EXPECT_GT(Shed, 0u) << Policy;
    ASSERT_FALSE(R.FaultCtx.ExcusedEntries.empty())
        << Policy << ": sheds cut no traced chain";
    EXPECT_TRUE(R.Audit.Ok) << Policy;
    ASSERT_TRUE(R.Checked);
    EXPECT_TRUE(R.Consistency.Correct) << Policy << ": "
                                       << R.Consistency.Reason;
    // The context is what makes the difference.
    EXPECT_FALSE(consistency::checkAgainstNes(R.Trace, C->topology(),
                                              C->structure(), nullptr)
                     .Correct)
        << Policy;
  }
}

TEST(Facade, UnknownPartitionStrategyIsInvalidArgument) {
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();
  // Every engine-based path validates through the same translation.
  RunOptions O = RunOptions().partition("round-robin");
  for (const Result<RunReport> &R :
       {run(*C, "engine", O), run(*C, "net", O), serveNet(*C, O)}) {
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.status().code(), Code::InvalidArgument);
    EXPECT_NE(R.status().message().find("round-robin"), std::string::npos);
  }
}

TEST(Facade, OneSeedReproducesSequentialBackends) {
  // The uniform-seeding satellite: a single RunOptions::Seed drives the
  // workload generator and every backend's own randomness, so the
  // sequential backends are bit-reproducible run to run. (Cross-backend
  // *counter equality* is not guaranteed — within a phase, a request
  // racing its own enabling event may be dropped on one substrate and
  // delivered on another, which is exactly the nondeterminism Definition
  // 6 quantifies over.)
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  RunOptions O = RunOptions().seed(21).phases(3).pingsPerPhase(3);
  Result<RunReport> M = run(*C, "machine", O);
  Result<RunReport> M2 = run(*C, "machine", O);
  ASSERT_TRUE(M.ok() && M2.ok());
  EXPECT_EQ(M->PacketsInjected, M2->PacketsInjected);
  EXPECT_EQ(M->PacketsDelivered, M2->PacketsDelivered);
  EXPECT_EQ(M->SwitchHops, M2->SwitchHops);
  EXPECT_EQ(M->Trace.size(), M2->Trace.size());

  Result<RunReport> S = run(*C, "sim", O);
  Result<RunReport> S2 = run(*C, "sim", O);
  ASSERT_TRUE(S.ok() && S2.ok());
  EXPECT_EQ(S->PacketsInjected, S2->PacketsInjected);
  EXPECT_EQ(S->PacketsDelivered, S2->PacketsDelivered);
  EXPECT_EQ(S->Trace.size(), S2->Trace.size());
  EXPECT_EQ(S->Trace.str(), S2->Trace.str());
}

TEST(Facade, RegisteredBackendIsReachable) {
  // The registry is open: a custom substrate plugs into the same Run
  // surface the CLI uses.
  class NullBackend : public Backend {
  public:
    const char *name() const override { return "null"; }
    Result<RunReport> execute(const Compilation &, const RunOptions &,
                              const engine::Workload &W) override {
      RunReport R;
      R.PacketsInjected = W.totalInjections();
      return R;
    }
  };
  registerBackend("null", [] { return std::make_unique<NullBackend>(); });

  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();
  Result<RunReport> R =
      run(*C, "null", RunOptions().phases(2).pingsPerPhase(2));
  ASSERT_TRUE(R.ok()) << R.status().str();
  EXPECT_EQ(R->PacketsInjected, 4u);
  // An empty trace with no events trivially satisfies Definition 6.
  ASSERT_TRUE(R->Checked);
  EXPECT_TRUE(R->Consistency.Correct) << R->Consistency.Reason;
}
