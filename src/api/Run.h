//===- api/Run.h - One run surface over three backends ----------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The façade's run half. Three execution substrates implement the same
/// Backend interface and are looked up by name in a registry:
///
///   "machine"  the Figure 7 nondeterministic small-step machine
///              (runtime::Machine), driven by a seeded Rng with echo
///              replies emulated by the driver;
///   "sim"      the discrete-event simulator (sim::Simulation) in Nes
///              mode, one phase per quiescence window;
///   "engine"   the sharded concurrent engine (engine::Engine);
///   "net"      the engine behind a real socket front-end (net/Server.h)
///              — the workload is replayed by the in-process load
///              generator (net::runLoadgen) over loopback TCP (or UDP),
///              Wire-framed, through the full session/delivery path.
///
/// A Run handle binds a Compilation to one backend; execute(RunOptions)
/// realizes the *same* seeded ping workload (engine::TrafficGen over the
/// shared sim/Wire.h format) on that backend and returns a uniform
/// RunReport: packet/transition counters, the recorded
/// consistency::NetworkTrace, and the Definition 6 checker verdict. One
/// seed drives every backend's randomness, so cross-backend runs are
/// reproducible from a single flag.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_API_RUN_H
#define EVENTNET_API_RUN_H

#include "api/Compile.h"
#include "api/Status.h"
#include "consistency/Check.h"
#include "consistency/StreamCheck.h"
#include "consistency/Trace.h"
#include "engine/TrafficGen.h"
#include "faults/FaultPlan.h"
#include "obs/TraceRing.h"

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace eventnet {
namespace api {

/// Workload and execution parameters, builder-style. The same options
/// object drives every backend; backend-specific knobs (Shards) are
/// ignored where they do not apply.
class RunOptions {
public:
  RunOptions &seed(uint64_t V) {
    Seed = V;
    return *this;
  }
  RunOptions &shards(unsigned V) {
    Shards = V;
    return *this;
  }
  RunOptions &phases(unsigned V) {
    Phases = V;
    return *this;
  }
  RunOptions &pingsPerPhase(unsigned V) {
    PingsPerPhase = V;
    return *this;
  }
  RunOptions &workload(std::string V) {
    Workload = std::move(V);
    return *this;
  }
  RunOptions &churnRate(unsigned V) {
    ChurnRate = V;
    return *this;
  }
  RunOptions &stepBudget(size_t V) {
    StepBudget = V;
    return *this;
  }
  RunOptions &checkConsistency(bool V) {
    CheckConsistency = V;
    return *this;
  }
  RunOptions &streamingCheck(bool V) {
    StreamingCheck = V;
    return *this;
  }
  RunOptions &checkWindow(size_t V) {
    CheckWindow = V;
    return *this;
  }
  RunOptions &checkDifferential(bool V) {
    CheckDifferential = V;
    return *this;
  }
  RunOptions &batch(unsigned V) {
    Batch = V;
    return *this;
  }
  RunOptions &partition(std::string V) {
    Partition = std::move(V);
    return *this;
  }
  RunOptions &latencyHistograms(bool V) {
    LatencyHistograms = V;
    return *this;
  }
  RunOptions &traceEvents(size_t CapacityPerShard) {
    TraceCapacity = CapacityPerShard;
    return *this;
  }
  RunOptions &metricsIntervalMs(unsigned V) {
    MetricsIntervalMs = V;
    return *this;
  }
  RunOptions &metricsPath(std::string V) {
    MetricsPath = std::move(V);
    return *this;
  }
  RunOptions &overload(std::string V) {
    Overload = std::move(V);
    return *this;
  }
  RunOptions &faults(std::shared_ptr<const faults::FaultPlan> V) {
    Faults = std::move(V);
    return *this;
  }
  RunOptions &netConnections(unsigned V) {
    NetConnections = V;
    return *this;
  }
  RunOptions &netUdp(bool V) {
    NetUdp = V;
    return *this;
  }
  RunOptions &stopFlag(const std::atomic<bool> *V) {
    StopFlag = V;
    return *this;
  }

  /// One seed for every backend's randomness: the workload generator,
  /// the machine driver's step choices, and the simulator's SimParams.
  uint64_t Seed = 1;
  /// Engine worker threads (engine backend only).
  unsigned Shards = 4;
  /// Quiescence-separated workload phases.
  unsigned Phases = 4;
  /// Echo requests per phase (clamped to the topology's host-pair count).
  unsigned PingsPerPhase = 8;
  /// Workload model: "ping" (the historical seeded echo workload) or
  /// "churn" (TrafficGen::churn — distinct-flow storm phases with
  /// ChurnRate rotating probe triggers per phase, the high-churn update
  /// bench's traffic shape).
  std::string Workload = "ping";
  /// Probe triggers per phase of the churn workload (ignored elsewhere).
  unsigned ChurnRate = 4;
  /// Machine backend: maximum steps per quiescence run.
  size_t StepBudget = 100000;
  /// Replay the recorded trace through the Definition 6 checker.
  bool CheckConsistency = true;
  /// Engine-based backends ("engine", "net", serveNet): verify Definition
  /// 6 *online* with the windowed streaming checker (consistency/
  /// StreamCheck.h) instead of the end-of-run batch replay. The full
  /// trace is no longer retained (O(window) memory), so the batch check
  /// is skipped unless CheckDifferential also runs it.
  bool StreamingCheck = false;
  /// Streaming checker window: hard cap on live (unretired) trace
  /// entries. Exceeding it degrades the verdict to inconclusive rather
  /// than growing without bound.
  size_t CheckWindow = 1 << 16;
  /// With StreamingCheck: ALSO record the full trace and run the batch
  /// checker, then report whether the two verdicts agree — the
  /// end-to-end differential harness for the streaming checker.
  bool CheckDifferential = false;
  /// Engine backend: hot-loop dequeue/enqueue batch size.
  unsigned Batch = 32;
  /// Engine backend: shard-placement strategy — "modulo", "contiguous",
  /// or "refined" (engine/Partition.h).
  std::string Partition = "refined";
  /// Engine backend: record per-hop queue-dwell and batch-occupancy
  /// histograms (obs/Histogram.h). Off by default — when off the hot
  /// loop takes no timestamps.
  bool LatencyHistograms = false;
  /// Engine backend: per-shard obs trace-ring capacity in events
  /// (obs/TraceRing.h); 0 (default) disables event tracing.
  size_t TraceCapacity = 0;
  /// Engine backend: periodic metrics-sampler interval in milliseconds;
  /// 0 (default) disables the sampler (obs/Sampler.h).
  unsigned MetricsIntervalMs = 0;
  /// Where sampler JSON-lines go: a file path, or "" for stderr.
  std::string MetricsPath;
  /// Engine backend: overload policy when a shard's input ring and
  /// overflow fill up — "block" (bounded backoff, lossless), "shed-oldest"
  /// or "shed-newest" (drop data-plane messages with full accounting).
  std::string Overload = "block";
  /// Fault-injection plan (faults/FaultPlan.h); null disables. The engine
  /// honors every plan element; the simulator honors the link faults; the
  /// machine backend rejects plans (no injection sites).
  std::shared_ptr<const faults::FaultPlan> Faults;
  /// Net backend: loopback client connections replaying the workload.
  unsigned NetConnections = 4;
  /// Net backend: replay over UDP instead of TCP.
  bool NetUdp = false;
  /// Cooperative cancellation (e.g. net/Signal.h): when set, the run
  /// stops injecting, drains, and returns a complete report early.
  const std::atomic<bool> *StopFlag = nullptr;
};

/// Percentile summary of one recorded latency dimension, in seconds
/// (BatchOccupancy reuses the shape with dimensionless counts).
struct LatencyReport {
  uint64_t Samples = 0;
  double MeanSec = 0;
  double P50Sec = 0;
  double P90Sec = 0;
  double P99Sec = 0;
  double MaxSec = 0;
};

/// End-of-run packet-conservation audit: every injected packet must end
/// in a delivery or a *counted* drop. SilentLoss > 0 means the run lost
/// packets without accounting for them (queue overflow, a protocol bug)
/// — a throughput or consistency "pass" over such a run is meaningless,
/// so reports render it loudly and scripts/check_report.py fails on it.
struct DropAudit {
  uint64_t Injected = 0;
  uint64_t Delivered = 0;
  uint64_t Dropped = 0;
  uint64_t SilentLoss = 0; ///< injected - delivered - dropped, if positive
  bool Ok = true;          ///< SilentLoss == 0
};

/// Per-shard engine counters surfaced in the report (empty on the
/// sequential backends). QueueHighWater, Dropped, and Switches let
/// bench runs attribute backpressure and imbalance without re-running
/// under a profiler.
struct ShardReport {
  uint64_t Processed = 0;
  uint64_t QueueHighWater = 0;
  uint64_t Dropped = 0;
  uint64_t Transitions = 0;
  uint32_t Switches = 0; ///< switches the partition placed on this shard
  uint64_t Shed = 0;     ///< messages shed by the overload policy
};

/// Fault-injection summary: what the plan actually did to the run. Drops,
/// dups, and delays are content-addressed and ledgered (same seed + same
/// plan => byte-identical Ledger); sheds, stalls, and storms are
/// timing-dependent and appear as counts only.
struct FaultReport {
  bool Enabled = false;
  uint64_t Drops = 0;        ///< packets dropped by the plan
  uint64_t Dups = 0;         ///< packets duplicated by the plan
  uint64_t Delays = 0;       ///< packets delayed by the plan
  uint64_t Shed = 0;         ///< messages shed by the overload policy
  uint64_t Stalls = 0;       ///< worker stalls taken
  uint64_t Storms = 0;       ///< controller storm re-broadcasts
  uint64_t DupDelivered = 0; ///< deliveries descending from a duplicate
  uint64_t DupDropped = 0;   ///< drops descending from a duplicate
  uint64_t LedgerEntries = 0; ///< deterministic ledger record count
  /// The canonical (sorted, newline-separated) fault ledger.
  std::string Ledger;
};

/// Socket-layer summary of a net-backend run: the server's session and
/// framing counters (net/Server.h) plus the view of the load generator
/// (net/Loadgen.h) that replayed the workload; serveNet has no client,
/// so its Client* and Rtt fields stay zero.
/// Enabled only on the "net" backend; zeroed elsewhere. Conservation
/// invariant in Block mode (checked by scripts/check_report.py):
/// DeliveryFrames + RingShed + DeliveryUnroutable + NonNetDeliveries ==
/// the engine's PacketsDelivered.
struct NetReport {
  bool Enabled = false;
  std::string Poller; ///< readiness backend ("epoll" or "poll")
  bool Udp = false;
  uint16_t Port = 0; ///< bound TCP port (resolves an ephemeral request)
  /// Client connections that connected (serveNet: accepted ones).
  uint64_t Connections = 0;
  uint64_t Accepted = 0;    ///< TCP accepts + distinct UDP peers
  uint64_t Closed = 0;
  /// Server-side protocol errors, plus the client's protocol errors,
  /// failed connects and reply seq mismatches.
  uint64_t ProtocolErrors = 0;
  uint64_t FramesIn = 0;  ///< complete frames the server decoded
  uint64_t FramesOut = 0; ///< frames the server serialized back
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;
  uint64_t FramesInjected = 0; ///< Inject frames handed to the engine
  uint64_t DeliveryFrames = 0; ///< deliveries routed to a session
  uint64_t RepliesOut = 0;     ///< of those, echo replies (KindReply)
  uint64_t ReassemblyPartial = 0;
  uint64_t BackpressureShed = 0; ///< egress + delivery-ring sheds
  uint64_t RingShed = 0;         ///< of those, shed at the delivery ring
  uint64_t DeliveryUnroutable = 0; ///< conn tag of a dead session
  uint64_t NonNetDeliveries = 0;   ///< deliveries without a conn tag
  uint64_t BarriersAcked = 0;
  uint64_t UdpDatagrams = 0;
  uint64_t ClientDelivers = 0; ///< Deliver frames the client received
  uint64_t ClientReplies = 0;  ///< of those, echo replies
  /// Client-observed round trip (request sent to echo reply received).
  LatencyReport Rtt;
};

/// Streaming Definition 6 verdict (RunOptions::StreamingCheck): the
/// online checker's three-valued result plus its resource attestation —
/// PeakWindow / PeakResidentBytes are the soak harness's evidence that
/// verification memory stayed bounded over the whole run.
struct StreamCheckReport {
  bool Enabled = false;
  size_t Window = 0; ///< configured live-entry cap
  /// Verdict, reason, and resource stats from the streaming checker.
  consistency::StreamResult Result;
  /// Stream items the engine shed because the checker's collector fell
  /// behind (EngineConfig::StreamBufCap). Nonzero forces the verdict to
  /// inconclusive ("stream_backlog").
  uint64_t StreamShed = 0;
  /// CheckDifferential: the batch checker also ran on the full trace.
  bool DifferentialRan = false;
  /// Streaming verdict agreed with the batch verdict (pass<->pass); only
  /// meaningful when DifferentialRan and the streaming verdict was
  /// conclusive.
  bool DifferentialMatched = true;
};

/// The uniform result of a run on any backend.
struct RunReport {
  std::string Backend;
  uint64_t Seed = 0;
  std::string Workload; ///< workload model the run executed ("ping", ...)
  unsigned Shards = 1; ///< 1 on the sequential backends
  unsigned Batch = 1;      ///< engine: hot-loop batch size
  std::string Partition;   ///< engine: shard-placement strategy (else "")
  uint64_t EdgeCut = 0;    ///< engine: weighted inter-shard edge cut
  uint64_t EdgeTotal = 0;  ///< engine: total switch-graph edge weight
  std::string Overload;    ///< engine: overload policy name (else "")

  uint64_t PacketsInjected = 0;  ///< host emissions (incl. echo replies)
  uint64_t PacketsDelivered = 0; ///< packets handed to a host
  uint64_t PacketsDropped = 0;   ///< blocked / table-miss packets
  uint64_t SwitchHops = 0;       ///< switch processing steps
  uint64_t EventsDetected = 0;   ///< distinct NES events that occurred
  uint64_t ConfigTransitions = 0; ///< per-switch register transitions
  double ElapsedSec = 0;          ///< wall time (engine) / sim time (sim)

  /// Engine per-shard counters (queue high-water marks, drops).
  std::vector<ShardReport> ShardDetail;

  /// Event-detection to register-learn latency percentiles (the update
  /// latency; engine backend, zero Samples elsewhere).
  LatencyReport UpdateLatency;
  /// Per-hop queue-dwell percentiles (engine backend with
  /// RunOptions::LatencyHistograms; zero Samples otherwise).
  LatencyReport QueueDwell;
  /// Messages per non-empty hot-loop drain batch (same gating; the
  /// *Sec fields carry dimensionless counts).
  LatencyReport BatchOccupancy;

  /// Packet-conservation audit, filled for every backend. Under a fault
  /// plan the math discounts duplicate-descended outcomes, so injected
  /// faults never mask (or manufacture) silent loss.
  DropAudit Audit;

  /// Socket-layer summary (net backend; Enabled false elsewhere).
  NetReport Net;

  /// Fault-injection summary (Enabled false when no plan was active).
  FaultReport Faults;
  /// Ledger annotations for the Definition 6 checker (excused and
  /// duplicate trace entries); consumed by Run::execute.
  consistency::FaultContext FaultCtx;

  /// obs event-trace totals and the merged timeline (engine backend
  /// with RunOptions::TraceCapacity; else empty). Export with
  /// obs::writePerfettoTrace.
  uint64_t TraceRecorded = 0;
  uint64_t TraceDropped = 0;
  std::vector<obs::TraceEvent> ObsTrace;

  /// The recorded network trace (for replay and external checking).
  consistency::NetworkTrace Trace;
  /// Definition 6 verdict; only meaningful when Checked.
  bool Checked = false;
  consistency::CheckResult Consistency;
  /// Streaming Definition 6 verdict (Enabled false unless
  /// RunOptions::StreamingCheck on an engine-based backend).
  StreamCheckReport StreamCheck;

  /// Human-readable report block (the CLI's default rendering).
  std::string str() const;
  /// The same facts as a flat JSON object (without the trace).
  std::string json() const;
};

/// One execution substrate. Implementations fill every RunReport counter
/// they can observe and record a trace; the Definition 6 replay is done
/// by the caller (Run::execute), not per backend.
class Backend {
public:
  virtual ~Backend() = default;
  virtual const char *name() const = 0;
  /// Executes \p W on \p C. The report's Backend/Seed/Checked fields and
  /// the consistency verdict are filled in by the caller.
  virtual Result<RunReport> execute(const Compilation &C,
                                    const RunOptions &O,
                                    const engine::Workload &W) = 0;
};

/// Registered backend names, sorted ("engine", "machine", "sim" plus any
/// externally registered ones).
std::vector<std::string> backendNames();

/// Instantiates a registry entry; InvalidArgument for unknown names.
Result<std::unique_ptr<Backend>> makeBackend(const std::string &Name);

/// Adds a backend factory under \p Name (replacing any existing entry),
/// so embedders and future PRs add substrates without touching the CLI.
void registerBackend(const std::string &Name,
                     std::function<std::unique_ptr<Backend>()> Factory);

/// A Compilation bound to one backend; the reusable run handle.
/// Keeps a reference to the Compilation, which must outlive it.
class Run {
public:
  /// InvalidArgument if \p BackendName is not registered.
  static Result<Run> create(const Compilation &C,
                            const std::string &BackendName);

  /// Builds the seeded workload, executes it, and (unless disabled)
  /// replays the trace through the Definition 6 checker. A violated
  /// check is reported in the RunReport, not as an error Status; RunError
  /// is reserved for workloads the backend cannot execute at all.
  Result<RunReport> execute(const RunOptions &O = RunOptions());

  const char *backendName() const { return B->name(); }

private:
  Run(const Compilation &C, std::unique_ptr<Backend> B)
      : C(&C), B(std::move(B)) {}

  const Compilation *C;
  std::shared_ptr<Backend> B; ///< shared so Run stays copyable in Result
};

/// One-shot convenience: create + execute.
Result<RunReport> run(const Compilation &C, const std::string &BackendName,
                      const RunOptions &O = RunOptions());

/// Where api::serveNet listens (the eventnetc serve command).
struct ServeNetOptions {
  std::string BindAddr = "127.0.0.1"; ///< "0.0.0.0" serves off-box
  uint16_t Port = 9000;               ///< 0 binds an ephemeral port
  bool Udp = true; ///< also bind a UDP socket on the same port
  /// Stop serving after this many seconds (0 = only RunOptions::StopFlag
  /// or process death ends the loop). The deadline composes with the
  /// stop flag: whichever fires first drains the run. This is the soak
  /// harness's knob: `eventnetc serve --duration 300 --stream-check`.
  unsigned DurationSec = 0;
  /// Called once the listeners are bound, with the resolved TCP port —
  /// how callers learn an ephemeral bind before the loop blocks.
  std::function<void(uint16_t)> OnListening;
};

/// Serves real clients: binds the net front-end (net/Server.h) over a
/// live engine and runs until \p O.StopFlag is set (e.g. net/Signal.h
/// on SIGINT/SIGTERM), then drains sessions and the engine and returns
/// a complete RunReport — engine counters, the socket-layer Net block,
/// the drop audit, and (unless disabled) the Definition 6 verdict over
/// the recorded trace. Unlike run(), the workload comes from whatever
/// connects; RunOptions' workload knobs (Seed, Phases, PingsPerPhase)
/// are ignored.
Result<RunReport> serveNet(const Compilation &C, const RunOptions &O,
                           const ServeNetOptions &S = ServeNetOptions());

} // namespace api
} // namespace eventnet

#endif // EVENTNET_API_RUN_H
