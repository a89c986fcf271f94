//===- api/StreamCollect.h - Live trace collector for streaming check -*- C++
//-*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The glue between the engine's per-shard trace stream
/// (engine::Engine::drainTraceStream) and the single-threaded streaming
/// Definition 6 checker (consistency/StreamCheck.h): a collector thread
/// polls the stream while the run is live, feeds entries and excusals to
/// the checker, and commits up to the published watermark. Both
/// engine-based backends (the "engine" run backend and the net
/// front-end, including serveNet) share this loop.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_API_STREAMCOLLECT_H
#define EVENTNET_API_STREAMCOLLECT_H

#include "consistency/StreamCheck.h"
#include "engine/Engine.h"

#include <atomic>
#include <thread>

namespace eventnet {
namespace api {
namespace detail {

/// Owns the collector thread and the checker. Construct after
/// engine::Engine is built (with EngineConfig::StreamTrace set) and
/// before traffic flows; call finalize() after Engine::finish() has
/// joined the workers.
class StreamCollector {
public:
  StreamCollector(engine::Engine &E, const nes::Nes &N,
                  const topo::Topology &Topo, consistency::StreamOptions SO);
  ~StreamCollector();

  StreamCollector(const StreamCollector &) = delete;
  StreamCollector &operator=(const StreamCollector &) = delete;

  /// Stops the poll loop, drains the stream tail, degrades the verdict
  /// with "stream_backlog" if the shards shed stream items because this
  /// collector lagged, and returns the final verdict. Call exactly once,
  /// after the engine has finished.
  ///
  /// \p TraceDropped > 0 degrades it with "trace_dropped". The checker
  /// never reads the obs TraceRing, so the façade passes 0; the
  /// parameter is kept only because perfbench/ still passes the ring's
  /// drop count, and it is deleted with the next change to the benchmark.
  consistency::StreamResult finalize(uint64_t TraceDropped);

  /// Stream items the engine shed at StreamBufCap because this
  /// collector fell behind; valid after finalize().
  uint64_t lagShed() const { return LagShed; }

private:
  void loop();
  void feed(std::vector<engine::Engine::StreamItem> &Buf);

  engine::Engine &E;
  consistency::StreamChecker Chk;
  std::atomic<bool> Stop{false};
  bool Finalized = false;
  uint64_t LagShed = 0;
  std::thread Th;
};

} // namespace detail
} // namespace api
} // namespace eventnet

#endif // EVENTNET_API_STREAMCOLLECT_H
