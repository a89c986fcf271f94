//===- api/EngineOptions.h - RunOptions -> engine knobs ---------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every engine-based run path (the "engine" and "net" backends and
/// serveNet) shares: the one translation from RunOptions to the engine's
/// construction and streaming-check parameters, the one fill of a
/// RunReport from a finished engine, and the audit/check tail that
/// Run::execute applies to every backend's report.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_API_ENGINEOPTIONS_H
#define EVENTNET_API_ENGINEOPTIONS_H

#include "api/Run.h"
#include "api/StreamCollect.h"
#include "consistency/StreamCheck.h"
#include "engine/Engine.h"

namespace eventnet {
namespace api {
namespace detail {

/// Validates \p O's shard count and partition/overload names
/// (InvalidArgument otherwise) and returns the engine configuration they
/// select. The caller attaches what it owns: the fault Injector and, on
/// the net paths, the delivery sink. \p ListKnownNames appends the
/// accepted names to an unknown-name error (serveNet's messages never
/// have).
Result<engine::EngineConfig> engineConfig(const RunOptions &O,
                                          bool ListKnownNames = true);

/// The streaming checker's window and quiet horizon for \p O.
consistency::StreamOptions streamOptions(const RunOptions &O);

/// Fills \p R's engine-side fields from \p E, which ran under \p Cfg and
/// has finished: counters, partition, per-shard detail, latency digests,
/// the fault summary (when a plan was active), the obs timeline, the
/// network trace and, when \p Col is set, the streaming verdict. The
/// ledger's excusal context is handed over with or without a plan: a
/// shed overload policy retires chains under plain pressure, and the
/// batch checker must excuse them.
void fillEngineReport(RunReport &R, engine::Engine &E, const RunOptions &O,
                      const engine::EngineConfig &Cfg, StreamCollector *Col);

/// The report tail every run path shares once the counters are in: the
/// packet-conservation audit and, unless the run was streaming-only, the
/// batch Definition 6 check (with the excusal context whenever there is
/// one) and the streaming-vs-batch differential.
void auditAndCheck(RunReport &R, const Compilation &C, const RunOptions &O);

} // namespace detail
} // namespace api
} // namespace eventnet

#endif // EVENTNET_API_ENGINEOPTIONS_H
