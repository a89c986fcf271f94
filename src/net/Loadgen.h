//===- net/Loadgen.h - Multi-connection open-loop load generator *- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of the net backend and the Wire protocol's only
/// client: one poller-driven thread that emulates up to tens of
/// thousands of client hosts over loopback or a real NIC. Each
/// connection handshakes (Hello/HelloAck gives it a source host, a
/// destination host, and a conn id), then streams Inject frames
/// open-loop in bursts, fences each workload phase with a Barrier,
/// samples round-trip times into an obs histogram, and validates the
/// echoed deliveries (every reply's sequence number must have been
/// sent; replies and request deliveries are counted per kind). TCP by
/// default; --udp swaps every connection for a connected UDP socket
/// speaking the same framing, one-or-more whole frames per datagram.
///
/// Two traffic sources feed the same connections:
///  - the generator (eventnet_loadgen, echo benches): connection c's
///    k-th frame is an echo request HelloAck.From -> HelloAck.To with
///    seq k+1, FramesPerConn of them split evenly over Phases;
///  - a replayed engine::Workload (eventnetc run --backend net):
///    injection I of each phase is dealt to connection
///    I % Connections and keeps its own src, dst, kind and seq; every
///    workload phase is one fenced phase.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_NET_LOADGEN_H
#define EVENTNET_NET_LOADGEN_H

#include "engine/TrafficGen.h"
#include "obs/Histogram.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace eventnet {
namespace net {

struct LoadgenConfig {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
  /// Concurrent connections (client hosts emulated).
  unsigned Connections = 8;
  /// UDP instead of TCP (one connected socket per connection).
  bool Udp = false;
  /// Echo requests each connection sends, total across all phases
  /// (generator only; a replay sends what the workload deals it).
  uint64_t FramesPerConn = 128;
  /// Frames serialized per connection per loop pass (open-loop burst).
  unsigned Burst = 32;
  /// Barrier-fenced rounds the workload is split into (generator only;
  /// a replay has one per workload phase).
  unsigned Phases = 1;
  /// Base of each connection's Hello nonce (the server ignores it).
  uint64_t Seed = 1;
  /// Sample every Nth frame's round trip (1 = all; 0 disables).
  unsigned RttSampleEvery = 16;
  /// Abort (TimedOut) if the run has not finished within this budget.
  unsigned TimeoutMs = 60000;
  /// Per-run budget for establishing connections. A refused or failed
  /// connect is retried with exponential backoff (25 ms doubling to a
  /// 800 ms cap) until this deadline; only then does the connection
  /// count as ConnectFailed. Absorbs the race of starting the load
  /// generator before the server's listener is up.
  unsigned ConnectTimeoutMs = 5000;
};

struct LoadgenStats {
  uint64_t Connected = 0;
  uint64_t ConnectFailed = 0;  ///< gave up after the connect budget
  uint64_t ConnectRetries = 0; ///< backoff retries taken (any outcome)
  uint64_t InjectsSent = 0; ///< Inject frames sent (any kind)
  uint64_t FramesSent = 0;  ///< all frames (injects + barriers + byes...)
  uint64_t Delivers = 0;    ///< Deliver frames received (any kind)
  uint64_t Replies = 0;     ///< of those, echo replies (KindReply)
  uint64_t BarrierAcks = 0;
  /// Replies whose seq is 0 or above the highest request seq the
  /// connection sent (in generator mode: above its request count).
  uint64_t SeqMismatches = 0;
  uint64_t ProtocolErrors = 0;
  uint64_t BytesSent = 0;
  uint64_t BytesReceived = 0;
  double ElapsedSec = 0;
  bool TimedOut = false;
  /// Round-trip samples, nanoseconds.
  obs::HistogramSnapshot RttNs;

  bool ok() const {
    return !TimedOut && ProtocolErrors == 0 && SeqMismatches == 0 &&
           ConnectFailed == 0;
  }
};

/// Runs the generated workload to completion (or \p Stop / timeout) and
/// returns the aggregate stats. Blocking; single-threaded.
LoadgenStats runLoadgen(const LoadgenConfig &C,
                        const std::atomic<bool> *Stop = nullptr);

/// Replays \p W instead: the same connections, fences and validation,
/// with each connection's frames dealt from the workload's phases.
LoadgenStats runLoadgen(const LoadgenConfig &C, const engine::Workload &W,
                        const std::atomic<bool> *Stop = nullptr);

} // namespace net
} // namespace eventnet

#endif // EVENTNET_NET_LOADGEN_H
