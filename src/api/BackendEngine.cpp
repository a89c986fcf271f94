//===- api/BackendEngine.cpp - "engine" backend ---------------------------===//
//
// The sharded concurrent engine behind the façade's Backend interface:
// construct an engine with the requested shard count, execute the shared
// workload phase by phase, and translate engine::Stats into the uniform
// RunReport shape.
//
//===----------------------------------------------------------------------===//

#include "api/Run.h"

#include "api/EngineOptions.h"
#include "api/StreamCollect.h"
#include "engine/Engine.h"
#include "engine/Partition.h"
#include "obs/Metrics.h"
#include "obs/Sampler.h"

#include <fstream>
#include <iostream>

using namespace eventnet;
using namespace eventnet::api;

namespace {

LatencyReport toReport(const engine::LatencyDigest &D) {
  return {D.Samples, D.MeanSec, D.P50Sec, D.P90Sec, D.P99Sec, D.MaxSec};
}

class EngineBackend : public Backend {
public:
  const char *name() const override { return "engine"; }

  Result<RunReport> execute(const Compilation &C, const RunOptions &O,
                            const engine::Workload &W) override {
    Result<engine::EngineConfig> Cfg = detail::engineConfig(O);
    if (!Cfg.ok())
      return Cfg.status();
    std::optional<faults::Injector> Inj;
    if (O.Faults && O.Faults->enabled())
      Cfg->Faults = &Inj.emplace(*O.Faults);
    engine::Engine E(C.structure(), C.topology(), *Cfg);

    consistency::StreamOptions SO = detail::streamOptions(O);
    std::optional<detail::StreamCollector> Col;
    if (O.StreamingCheck)
      Col.emplace(E, C.structure(), C.topology(), SO);

    // Optional periodic metrics sampler: JSON-lines counter snapshots to
    // a file or stderr while the run is live.
    std::ofstream MetricsFile;
    std::unique_ptr<obs::MetricsSampler> Sampler;
    if (O.MetricsIntervalMs > 0) {
      std::ostream *Sink = &std::cerr;
      if (!O.MetricsPath.empty()) {
        MetricsFile.open(O.MetricsPath);
        if (!MetricsFile)
          return Status::error(Code::RunError,
                               "cannot open metrics path '" + O.MetricsPath +
                                   "'");
        Sink = &MetricsFile;
      }
      Sampler = std::make_unique<obs::MetricsSampler>(
          O.MetricsIntervalMs,
          [&E] { return obs::metricsJsonLine(E.stats()); }, *Sink);
      Sampler->start();
    }

    E.run(W);
    if (Sampler)
      Sampler->stop(); // emits one final post-run sample

    engine::Stats S = E.stats();
    RunReport R;
    R.Shards = O.Shards;
    R.Batch = S.BatchSize;
    R.Partition = engine::partitionStrategyName(S.Partition.Strategy);
    R.EdgeCut = S.Partition.CutWeight;
    R.EdgeTotal = S.Partition.TotalWeight;
    R.Overload = engine::overloadPolicyName(Cfg->Overload);
    for (const engine::ShardStats &SS : S.Shards)
      R.ShardDetail.push_back(
          {SS.PacketsProcessed, SS.QueueHighWater, SS.Dropped,
           SS.Transitions, SS.Switches, SS.Shed});
    R.PacketsInjected = S.PacketsInjected;
    R.PacketsDelivered = S.PacketsDelivered;
    R.PacketsDropped = S.PacketsDropped;
    R.SwitchHops = S.PacketsProcessed;
    R.EventsDetected = S.EventsDetected;
    R.ConfigTransitions = S.ConfigTransitions;
    R.ElapsedSec = S.ElapsedSec;
    R.UpdateLatency = toReport(S.Transition);
    R.QueueDwell = toReport(S.QueueDwell);
    R.BatchOccupancy = toReport(S.BatchOccupancy);
    R.TraceRecorded = S.TraceRecorded;
    R.TraceDropped = S.TraceDropped;
    if (Inj) {
      R.Faults.Enabled = true;
      R.Faults.Drops = S.FaultDrops;
      R.Faults.Dups = S.FaultDups;
      R.Faults.Delays = S.FaultDelays;
      R.Faults.Shed = S.FaultSheds;
      R.Faults.Stalls = S.FaultStalls;
      R.Faults.Storms = S.FaultStorms;
      R.Faults.DupDelivered = S.DupDelivered;
      R.Faults.DupDropped = S.DupDropped;
    }
    // The checker context rides along even without a fault plan: a shed
    // overload policy retires chains under plain pressure, and those
    // tickets must be excusable for Definition 6 verification.
    faults::FaultLedger L = E.takeFaultLedger();
    if (Inj) {
      R.Faults.LedgerEntries = L.Records.size();
      R.Faults.Ledger = L.canonical();
    }
    R.FaultCtx.ExcusedEntries = std::move(L.ExcusedEntries);
    R.FaultCtx.DupEntries = std::move(L.DupEntries);
    R.ObsTrace = E.takeObsTrace();
    R.Trace = E.takeTrace();
    if (Col) {
      R.StreamCheck.Enabled = true;
      R.StreamCheck.Window = SO.Window;
      R.StreamCheck.Result = Col->finalize(S.TraceDropped);
      R.StreamCheck.StreamShed = Col->lagShed();
    }
    return R;
  }
};

} // namespace

namespace eventnet {
namespace api {
std::unique_ptr<Backend> makeEngineBackend() {
  return std::make_unique<EngineBackend>();
}
} // namespace api
} // namespace eventnet
