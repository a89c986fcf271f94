//===- api/EngineOptions.h - RunOptions -> engine knobs ---------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one translation from RunOptions to the engine's construction and
/// streaming-check parameters, shared by every engine-based run path:
/// the "engine" and "net" backends and serveNet.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_API_ENGINEOPTIONS_H
#define EVENTNET_API_ENGINEOPTIONS_H

#include "api/Run.h"
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

} // namespace detail
} // namespace api
} // namespace eventnet

#endif // EVENTNET_API_ENGINEOPTIONS_H
