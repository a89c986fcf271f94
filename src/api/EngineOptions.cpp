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
