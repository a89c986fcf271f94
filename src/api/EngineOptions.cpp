//===- api/EngineOptions.cpp - RunOptions -> engine knobs -----------------===//

#include "api/EngineOptions.h"

#include "engine/Partition.h"

#include <algorithm>

using namespace eventnet;
using namespace eventnet::api;

Result<engine::EngineConfig> detail::engineConfig(const RunOptions &O,
                                                  bool ListKnownNames) {
  if (O.Shards < 1 || O.Shards > 1024)
    return Status::error(Code::InvalidArgument,
                         "shards must be in [1, 1024], got " +
                             std::to_string(O.Shards));
  auto Strategy = engine::parsePartitionStrategy(O.Partition);
  if (!Strategy)
    return Status::error(
        Code::InvalidArgument,
        "unknown partition strategy '" + O.Partition + "'" +
            (ListKnownNames ? " (known: modulo, contiguous, refined)" : ""));
  auto Overload = engine::parseOverloadPolicy(O.Overload);
  if (!Overload)
    return Status::error(
        Code::InvalidArgument,
        "unknown overload policy '" + O.Overload + "'" +
            (ListKnownNames ? " (known: block, shed-oldest, shed-newest)"
                            : ""));

  engine::EngineConfig Cfg;
  Cfg.NumShards = O.Shards;
  Cfg.BatchSize = O.Batch;
  Cfg.Partition = *Strategy;
  Cfg.LatencyHistograms = O.LatencyHistograms;
  Cfg.TraceEventCapacity = O.TraceCapacity;
  Cfg.Overload = *Overload;
  // Streaming verification trades the O(run) merged trace for the
  // O(window) online checker; differential mode keeps both so the two
  // verdicts can be compared.
  Cfg.StreamTrace = O.StreamingCheck;
  Cfg.RecordTrace = !O.StreamingCheck || O.CheckDifferential;
  return Cfg;
}

consistency::StreamOptions detail::streamOptions(const RunOptions &O) {
  consistency::StreamOptions SO;
  SO.Window = std::max<size_t>(1, O.CheckWindow);
  // Quiet-horizon retirement must outlast fault-plan delays and deep
  // shard backlogs (ticket gaps), or healthy chains get cut.
  SO.QuietHorizon = std::max<uint64_t>(8192, SO.Window / 2);
  return SO;
}

namespace {

LatencyReport toReport(const engine::LatencyDigest &D) {
  return {D.Samples, D.MeanSec, D.P50Sec, D.P90Sec, D.P99Sec, D.MaxSec};
}

} // namespace

void detail::fillEngineReport(RunReport &R, engine::Engine &E,
                              const RunOptions &O,
                              const engine::EngineConfig &Cfg,
                              StreamCollector *Col) {
  engine::Stats S = E.stats();
  R.Shards = O.Shards;
  R.Batch = S.BatchSize;
  R.Partition = engine::partitionStrategyName(S.Partition.Strategy);
  R.EdgeCut = S.Partition.CutWeight;
  R.EdgeTotal = S.Partition.TotalWeight;
  R.Overload = engine::overloadPolicyName(Cfg.Overload);
  for (const engine::ShardStats &SS : S.Shards)
    R.ShardDetail.push_back({SS.PacketsProcessed, SS.QueueHighWater,
                             SS.Dropped, SS.Transitions, SS.Switches,
                             SS.Shed});
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
  faults::FaultLedger L = E.takeFaultLedger();
  if (Cfg.Faults) {
    R.Faults.Enabled = true;
    R.Faults.Drops = S.FaultDrops;
    R.Faults.Dups = S.FaultDups;
    R.Faults.Delays = S.FaultDelays;
    R.Faults.Shed = S.FaultSheds;
    R.Faults.Stalls = S.FaultStalls;
    R.Faults.Storms = S.FaultStorms;
    R.Faults.DupDelivered = S.DupDelivered;
    R.Faults.DupDropped = S.DupDropped;
    R.Faults.LedgerEntries = L.Records.size();
    R.Faults.Ledger = L.canonical();
  }
  R.FaultCtx.ExcusedEntries = std::move(L.ExcusedEntries);
  R.FaultCtx.DupEntries = std::move(L.DupEntries);
  R.ObsTrace = E.takeObsTrace();
  R.Trace = E.takeTrace();
  if (Col) {
    R.StreamCheck.Enabled = true;
    R.StreamCheck.Window = streamOptions(O).Window;
    R.StreamCheck.Result = Col->finalize(R.TraceDropped);
    R.StreamCheck.StreamShed = Col->lagShed();
  }
}

void detail::auditAndCheck(RunReport &R, const Compilation &C,
                           const RunOptions &O) {
  // Packet-conservation audit (backend-agnostic): every injection must
  // end in a delivery or a counted drop. Multicast can only add terminal
  // outcomes, so injected > delivered + dropped means silent loss.
  // Injected duplicates add terminal outcomes that no injection owns, so
  // their deliveries/drops are discounted before the comparison.
  DropAudit &A = R.Audit;
  A.Injected = R.PacketsInjected;
  A.Delivered = R.PacketsDelivered;
  A.Dropped = R.PacketsDropped;
  uint64_t EffDelivered = A.Delivered > R.Faults.DupDelivered
                              ? A.Delivered - R.Faults.DupDelivered
                              : 0;
  uint64_t EffDropped =
      A.Dropped > R.Faults.DupDropped ? A.Dropped - R.Faults.DupDropped : 0;
  uint64_t Accounted = EffDelivered + EffDropped;
  A.SilentLoss = A.Injected > Accounted ? A.Injected - Accounted : 0;
  A.Ok = A.SilentLoss == 0;

  // Streaming-only runs keep no merged trace: replaying the (empty)
  // trace through the batch checker would pass vacuously, so the batch
  // replay runs only when a trace was actually recorded — always
  // without streaming, and in differential mode alongside it.
  if (O.CheckConsistency && (!R.StreamCheck.Enabled || O.CheckDifferential)) {
    // The excusal context matters beyond fault plans: a shed overload
    // policy ledgers the chains it retired under plain pressure too.
    bool HasCtx = R.Faults.Enabled || !R.FaultCtx.empty();
    R.Checked = true;
    R.Consistency = consistency::checkAgainstNes(
        R.Trace, C.topology(), C.structure(), HasCtx ? &R.FaultCtx : nullptr);
  }
  if (R.StreamCheck.Enabled && R.Checked) {
    StreamCheckReport &SC = R.StreamCheck;
    SC.DifferentialRan = true;
    // An inconclusive streaming verdict makes no pass/fail claim, so
    // there is nothing to disagree with.
    if (SC.Result.Verdict != consistency::StreamVerdict::Inconclusive)
      SC.DifferentialMatched = SC.Result.ok() == R.Consistency.Correct;
  }
}
