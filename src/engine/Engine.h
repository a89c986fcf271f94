//===- engine/Engine.h - Sharded concurrent data-plane engine ---*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent execution substrate for compiled NESes: N worker
/// threads each own a shard of the topology's switches and exchange
/// packets over lock-free MPSC queues; a controller thread plays the
/// Figure 7 CTRLRECV/CTRLSEND roles. Per-switch event registers are
/// single-writer (the owning shard), so the Section 4 tag/digest
/// protocol runs without locks:
///
///  - IN: an injected packet is stamped with the ingress switch's
///    current event-set tag by the owner, exactly the Figure 7 IN rule.
///  - SWITCH: the owner learns digest events and greedily-consistent
///    fresh events, forwards with the *stamped* tag's pipeline (packets
///    in flight never see a mixed configuration — the table a packet is
///    matched against is chosen by its immutable tag, and all lowered
///    pipelines are immutable), then extends the outgoing digest. The
///    lookup is the pipeline's classifier program (engine/Classifier.h);
///    the FDD walk it was lowered from survives only as a test oracle.
///  - Updates: the detecting shard applies a new event to its own
///    subscribed switches at once; the controller forwards single-event
///    deltas to the other subscribed shards over a priority lane that
///    bypasses the data ring, and sleeps on an eventfd wake in between.
///  - Configuration transitions are atomic pointer swaps of the
///    switch's published view (tag + register); readers (stats, test
///    monitors) are RCU-style lock-free, and old views are retired
///    through an epoch domain (engine/Rcu.h).
///
/// Each shard records every traced hop once, in one owner-private log
/// whose entries carry tickets from a global atomic counter. run() merges
/// the logs into a consistency::NetworkTrace whose log order is a legal
/// global interleaving (per-switch order is the owner's real processing
/// order; a parent's ticket always precedes its children's), so the
/// Definition 6 checker applies to concurrent executions exactly as it
/// does to the sequential Machine and Simulation. The fault ledger's
/// excusal indices and the live stream (drainTraceStream) are read off
/// the same log.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_ENGINE_ENGINE_H
#define EVENTNET_ENGINE_ENGINE_H

#include "consistency/Trace.h"
#include "engine/Compiled.h"
#include "engine/Partition.h"
#include "engine/Queue.h"
#include "engine/Rcu.h"
#include "engine/Stats.h"
#include "engine/TrafficGen.h"
#include "engine/Wake.h"
#include "faults/Injector.h"
#include "nes/Nes.h"
#include "obs/Histogram.h"
#include "obs/TraceRing.h"
#include "support/BitSet.h"
#include "topo/Topology.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace eventnet {
namespace engine {

/// What a producer does when a shard's bounded ring is full and the
/// backlog keeps growing.
enum class OverloadPolicy : uint8_t {
  /// Bounded spin -> yield -> exponential backoff retry on the ring,
  /// then spill to the unbounded overflow deque. Lossless; producers
  /// still never block indefinitely (a cycle of full rings with
  /// blocking producers-who-are-consumers would deadlock).
  Block,
  /// Bound the backlog at ring capacity; beyond it, shed the *oldest*
  /// buffered data-plane message to admit the new one. Control messages
  /// are never shed; every shed is accounted (per-shard counter, drop
  /// tally, excused trace ticket) so the audit stays exact.
  ShedOldest,
  /// Bound the backlog at ring capacity; beyond it, refuse the incoming
  /// data-plane message. Same accounting as ShedOldest.
  ShedNewest,
};

/// Stable lowercase name: "block", "shed-oldest", "shed-newest".
const char *overloadPolicyName(OverloadPolicy P);

/// Inverse of overloadPolicyName; nullopt for unknown names.
std::optional<OverloadPolicy> parseOverloadPolicy(const std::string &Name);

/// Engine construction parameters.
struct EngineConfig {
  /// Worker threads; switches are placed on shards by Partition.
  unsigned NumShards = 1;
  /// How switches map to shards (engine/Partition.h). The default grows
  /// contiguous regions and refines their boundaries so most hops stay
  /// on their owning worker; "modulo" is the historical round-robin
  /// placement, kept as the comparison baseline.
  PartitionStrategy Partition = PartitionStrategy::Refined;
  /// Per-shard queue capacity (rounded up to a power of two).
  size_t QueueCapacity = 1 << 15;
  /// The controller sends every event delta to every shard, and each
  /// shard merges it into every owned register (CTRLSEND to all
  /// switches), instead of only to the switches the subscription index
  /// says the event can affect. Off by default, like the simulator.
  bool CtrlBroadcast = false;
  /// Hosts answer echo requests in-engine (KindRequest -> KindReply).
  bool EchoReplies = true;
  /// Keep each shard's trace log for the whole run, so finish() can
  /// build the merged trace, its tags and the fault ledger's excusal
  /// indices from it. Turn off (with StreamTrace) for pure-throughput
  /// benchmarking: the hot loop then records nothing.
  bool RecordTrace = true;
  /// Hand each shard's trace log to an external collector during the
  /// run (drainTraceStream) instead of — or, for differential testing,
  /// in addition to — keeping it. The streaming Definition 6 checker
  /// rides this: verification memory stays O(window) no matter how long
  /// the run is. With RecordTrace off, a shard clears its log at every
  /// flush and its shed list at every drain, so the run keeps no per-hop
  /// state past the hand-off; the merged trace and the ledger's index
  /// lists stay empty (stream items carry the excusals).
  bool StreamTrace = false;
  /// Per-shard cap on buffered stream items awaiting the collector
  /// (StreamBuf). A collector that falls behind the data path (e.g. the
  /// single-threaded streaming checker on an oversubscribed machine)
  /// must not grow the buffer with the horizon: past the cap the shard
  /// sheds the overflow, counts it (streamLagShed), and the checker
  /// reports inconclusive — the run's memory and exit latency stay
  /// bounded, the verdict degrades honestly, and the data path never
  /// blocks on verification.
  size_t StreamBufCap = 1 << 16;
  /// Has no effect: the engine keeps no delivery log (DeliverySink sees
  /// every delivery). Kept only because perfbench/ still assigns it; it
  /// is deleted with the next change to the benchmark.
  bool RecordDeliveries = true;
  /// Messages dequeued/enqueued per hot-loop iteration (amortizes the
  /// MPSC queue atomics; 1 degenerates to a message-at-a-time loop).
  unsigned BatchSize = 32;
  /// Record per-hop queue-dwell and batch-occupancy histograms (obs/).
  /// Off by default: when off, the hot loop takes no timestamps and the
  /// recording calls reduce to a null-pointer test.
  bool LatencyHistograms = false;
  /// Per-shard obs trace-ring capacity in events (obs/TraceRing.h);
  /// 0 disables tracing entirely (no ring is even allocated).
  size_t TraceEventCapacity = 0;
  /// Behavior when a shard's ring overflows (see OverloadPolicy).
  OverloadPolicy Overload = OverloadPolicy::Block;
  /// Compiled fault plan, or null for no injection (the hooks then cost
  /// one predictable null/flag test, like the obs layer). The Injector
  /// must outlive the engine; it may clamp QueueCapacity.
  const faults::Injector *Faults = nullptr;
  /// Called on the *owning shard's worker thread* for every host
  /// delivery, after the delivery is trace-logged and counted. The sink
  /// must be fast and lock-light (it runs inside the hot loop) and
  /// thread-safe across shards. Empty = no sink, and the hook reduces
  /// to one predictable branch, like the obs layer.
  std::function<void(HostId, const netkat::Packet &)> DeliverySink;
};

/// A sharded multi-threaded data-plane engine executing one NES.
class Engine {
public:
  Engine(const nes::Nes &N, const topo::Topology &Topo,
         EngineConfig C = EngineConfig());
  ~Engine();

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Executes \p W phase by phase (quiescing between phases) and shuts
  /// the threads down. One workload per Engine. Implemented on the
  /// streaming surface below: start(); per phase injectBatch() +
  /// awaitQuiescence(); finish().
  void run(const Workload &W);

  //===--------------------------------------------------------------------===//
  // Streaming mode (the net backend's surface)
  //===--------------------------------------------------------------------===//
  //
  // An external driver — one thread at a time — can run the engine
  // open-ended instead of handing it a whole Workload: start() spins the
  // threads up, injectBatch() feeds traffic as it arrives (grouped by
  // ingress shard and published in BatchSize chunks, one Pending add per
  // chunk), awaitQuiescence() blocks until everything in flight has
  // drained, and finish() joins the threads and merges results exactly
  // as run() does. start/injectBatch/awaitQuiescence/finish must all be
  // called from the same thread.

  /// Spins up the worker and controller threads. Call once.
  void start();
  /// Hands \p N injections to their ingress shards. Each shard's group
  /// is published as soon as it holds EngineConfig::BatchSize messages,
  /// so the workers start on the first chunk while the driver builds the
  /// rest. Quiescence still holds: every chunk is counted into Pending
  /// before it is pushed, and only the single driver calls
  /// awaitQuiescence(), after injectBatch() has returned. Caller must
  /// have called start(). Never blocks indefinitely (full rings spill to
  /// the overflow deque under the overload policy). Allocation-free once
  /// the recycled slots and ring cells are warm. Every Injection::From
  /// must be a host of the topology.
  void injectBatch(const Injection *Inj, size_t N);
  /// Blocks until every in-flight message (packets, echo replies,
  /// controller work) has drained.
  void awaitQuiescence();
  /// Nonblocking quiescence probe. Monotone for the single external
  /// driver: once true, only the driver's own injectBatch() can make it
  /// false again.
  bool quiescent() const { return Pending.load() == 0; }
  /// Stops and joins the threads, merges traces/stats. Idempotent; the
  /// engine is read-only afterwards.
  void finish();

  /// One record of a shard's trace log, and so one element of the
  /// streaming feed (EngineConfig::StreamTrace): either a trace entry or
  /// an excusal (a ledgered drop/shed whose chain may legitimately end at
  /// Ticket). Parent is the producing occurrence's ticket, -1 for a
  /// root; IsDup marks a fault-plan duplicate's egress entry; Tag is the
  /// configuration the entry's packet carried.
  struct StreamItem {
    enum Kind : uint8_t { Entry, Excuse } K = Entry;
    uint64_t Ticket = 0;
    int64_t Parent = -1;
    netkat::Packet Lp;
    bool IsDelivery = false;
    bool IsDup = false;
    nes::SetId Tag = 0;
  };

  /// Drains every shard's buffered stream items into \p Out (appended;
  /// per-shard ticket order, unordered across shards) and returns the
  /// commit watermark W: no shard will ever again produce an entry with
  /// ticket < W, so a checker may commit everything <= W - 1. Returns 0
  /// until every shard has published a first watermark. One collector
  /// thread at a time; callable concurrently with the run.
  uint64_t drainTraceStream(std::vector<StreamItem> &Out);

  /// Stream items shed because a shard's StreamBuf sat at
  /// EngineConfig::StreamBufCap when the shard tried to flush (the
  /// collector was not keeping up). Nonzero means the streaming checker
  /// saw a gappy trace and its verdict must not be a clean pass.
  /// Callable concurrently with the run.
  uint64_t streamLagShed();

  /// Stream items currently buffered and awaiting the collector (sum of
  /// per-shard StreamBuf sizes; excludes worker-local pending items). A
  /// closed-loop producer can poll this between batches and yield until
  /// the checker catches up, keeping the hand-off below StreamBufCap so
  /// nothing is shed. Callable concurrently with the run.
  uint64_t streamBacklog();

  /// Counter snapshot; callable concurrently with run() from another
  /// thread (latency aggregates are only populated once run returned).
  Stats stats() const;

  /// The merged network trace (valid after run; empty if RecordTrace
  /// was off).
  const consistency::NetworkTrace &trace() const { return MergedTrace; }

  /// Moves the merged trace out (for report assembly on a dying engine;
  /// trace() is empty afterwards).
  consistency::NetworkTrace takeTrace() { return std::move(MergedTrace); }

  /// The configuration tag each trace entry's packet carried, parallel
  /// to trace().entries().
  const std::vector<nes::SetId> &traceTags() const { return MergedTags; }

  /// The fault ledger assembled by run(): the deterministic record
  /// multiset (drops/dups/delays/storms) plus the merged-trace indices
  /// the consistency checker needs to excuse ledgered damage. Empty
  /// when no plan was active.
  const faults::FaultLedger &faultLedger() const { return Ledger; }

  /// Moves the ledger out (for report assembly on a dying engine).
  faults::FaultLedger takeFaultLedger() { return std::move(Ledger); }

  /// The merged obs event timeline, sorted by timestamp (valid after
  /// run; empty unless EngineConfig::TraceEventCapacity was set). Moves
  /// the events out; subsequent calls return empty.
  std::vector<obs::TraceEvent> takeObsTrace() {
    return std::move(MergedObsTrace);
  }

  /// Seconds after run() start at which each switch first learned each
  /// event (valid after run) — the Figure 16(b) measurement. Derived
  /// from the monotonic per-shard learn stamps at merge time.
  const std::map<std::pair<SwitchId, nes::EventId>, double> &
  learnTimes() const {
    return MergedLearnTimes;
  }

  /// Raw event-detection -> register-learn latencies in nanoseconds,
  /// one sample per (switch, event) learn (valid after run) — what the
  /// Transition digest summarizes. Exposed raw so benches can merge
  /// percentiles across repeated runs.
  const std::vector<int64_t> &transitionLatenciesNs() const {
    return TransitionNs;
  }

  /// An RCU read of a switch's published view: tag, register, and the
  /// monotonic version stamped at each transition. Lock-free; callable
  /// from any thread at any time.
  struct ViewSnapshot {
    nes::SetId Tag = 0;
    DenseBitSet E;
    uint64_t Version = 0;
  };
  ViewSnapshot readView(SwitchId Sw) const;

  const nes::Nes &structure() const { return N; }
  const topo::Topology &topology() const { return Topo; }

  /// The shard placement this engine runs under (chosen at
  /// construction; immutable afterwards).
  const PartitionResult &partition() const { return Part; }

private:
  /// The immutable state a switch publishes at every transition.
  struct SwitchView {
    nes::SetId Tag = 0;
    DenseBitSet E;
    uint64_t Version = 0;
  };

  /// Owner-private plus published per-switch state.
  struct SwitchSlot {
    SwitchId Id = 0;
    uint32_t Shard = 0;
    nes::SetId Tag = 0; ///< owner's working tag (== setIndex(E))
    DenseBitSet E;      ///< owner's working register
    std::atomic<const SwitchView *> Published{nullptr};
  };

  /// A packet in flight with its Section 4 metadata.
  struct EnginePacket {
    netkat::Packet Pkt;
    nes::SetId Tag = 0;
    DenseBitSet Digest;
    int64_t Parent = -1; ///< trace ticket of the producing occurrence
    uint32_t Dense = 0;  ///< dense index of Pkt.sw() (set by the sender,
                         ///< so the hot loop never hashes a SwitchId)
    bool IngressLogged = false;
    /// Descends from a fault-plan duplicate: its terminal outcome is
    /// tallied separately (DupDelivered/DupDropped) so the drop audit
    /// can net duplicates out of delivered + dropped == injected.
    bool FromDup = false;
  };

  struct Msg {
    enum Kind : uint8_t { PacketIn, Inject, CtrlMerge, CtrlDelta } K =
        PacketIn;
    /// PacketIn: the hop. Inject: P.Pkt is the header already located at
    /// the ingress port and P.Dense the ingress switch; the IN rule
    /// completes the rest in place. Both kinds keep a packet of the same
    /// shape in P.Pkt, so a recycled slot or ring cell sized by one kind
    /// never reallocates for the other.
    EnginePacket P;
    HostId From = 0;       // Inject
    /// CtrlMerge: the full set (fault-plan storms only); CtrlDelta: the
    /// causal-fallback context.
    DenseBitSet Merge;
    uint32_t Event = 0;    // CtrlDelta: one event id
    int64_t EnqNs = 0; ///< ring-enqueue stamp (only when LatencyHistograms)
  };

  /// Control messages must never be shed (dropping a CTRLSEND would
  /// wedge event propagation, not degrade it).
  static bool isCtrlMsg(const Msg &M) {
    return M.K == Msg::CtrlMerge || M.K == Msg::CtrlDelta;
  }

  /// The per-shard latency-histogram pair (heap-allocated only when
  /// EngineConfig::LatencyHistograms is on; ~15 KB each).
  struct ShardLatency {
    obs::LogHistogram DwellNs;    ///< ring enqueue -> owner dequeue, ns
    obs::LogHistogram Occupancy;  ///< messages per non-empty drain batch
  };

  /// A recycled outgoing-message buffer for one target shard: slots keep
  /// their heap capacity across reset(), so steady-state egress batching
  /// allocates nothing (the flush *copies* into the target ring's cells,
  /// which are themselves recycled — see Queue.h).
  using MsgBuf = RecyclePool<Msg>;

  struct Shard {
    uint32_t Index = 0; ///< own position in Shards
    std::unique_ptr<BoundedMpscQueue<Msg>> Q; ///< lock-free fast path
    /// Overflow when the ring is full: producers never block (a cycle
    /// of full bounded queues would otherwise deadlock the workers);
    /// the owner drains the ring first, then the overflow.
    std::mutex OverflowMu;
    std::deque<Msg> Overflow;
    /// Priority control lane: CtrlDelta messages bypass the data ring
    /// entirely, so an update is never stuck behind a storm backlog of
    /// data packets — the owner drains this lane ahead of every ring
    /// batch. Single producer (the controller thread), single consumer
    /// (the owner); Size is the owner's cheap emptiness probe, so the
    /// common empty case costs one relaxed load, no lock.
    std::mutex CtrlMu;
    std::deque<Msg> CtrlLane;
    std::atomic<uint32_t> CtrlLaneSize{0};
    /// The shard's trace log (owner-private): one Entry per logged hop
    /// (IsDup on a duplicate's egress entry) and one Excuse per
    /// fault-dropped hop's parent. With RecordTrace it lives until
    /// mergeResults and the stream sink hands the collector copies of
    /// [Flushed, end); stream-only, the sink moves it out and clears it.
    std::vector<StreamItem> Log;
    size_t Flushed = 0;
    /// First-learn stamp per (switch, event), raw monotonicNs() — the
    /// same clock as DetectNs, so the Transition digest is a pure
    /// monotonic difference (no wall-clock skew can enter it).
    std::map<std::pair<SwitchId, nes::EventId>, int64_t> LearnNs;
    RetireList<SwitchView> Retired;
    std::thread Thread;
    PacketBuf ClsOut;            ///< recycled classifier outputs
    std::vector<Msg> Batch;      ///< recycled dequeue batch slots
    std::vector<MsgBuf> OutBufs; ///< recycled egress, per target
    MsgBuf SelfProc; ///< swap space for draining OutBufs[Index] in place
    /// Scratch bitsets for the SWITCH rule (capacity-reusing; the hot
    /// loop builds no fresh DenseBitSets).
    DenseBitSet ScratchKnown, ScratchFresh, ScratchExt, ScratchNew,
        ScratchDigest;
    /// Scratch register for the fast-update paths (shard-local fan-out
    /// and CtrlDelta merges); separate from the SWITCH-rule scratch so a
    /// mid-detection fan-out cannot clobber the Known/Fresh sets.
    DenseBitSet ScratchFan;
    /// Tallies only this shard's worker writes: single-writer bumps (a
    /// relaxed load and store, no locked add), summed over shards by
    /// stats() and mergeResults(). An engine-global counter would move
    /// one cache line between cores on every worker's every hop. One
    /// aligned block, so no member that other threads write shares its
    /// lines.
    struct alignas(64) OwnerTallies {
      OwnerCounter Injected;  ///< IN-rule stamps (incl. echo replies)
      OwnerCounter Processed; ///< switch hops executed
      OwnerCounter Delivered; ///< packets handed to a host
      OwnerCounter Forwarded; ///< link traversals (incl. delayed and dups)
      /// Table misses, dangling ports and fault-plan drops (not sheds).
      OwnerCounter Dropped;
      OwnerCounter DupDelivered, DupDropped; ///< outcomes of duplicates
      OwnerCounter FaultDrops, FaultDups, FaultDelays;
      OwnerCounter Transitions; ///< published register/view swaps
      OwnerCounter IdleSleeps;
      OwnerCounter Stalls;     ///< fault-plan stalls taken by this worker
      OwnerCounter FastLearns; ///< registers advanced by the local fast path
    } Own;
    /// Written by the owner and by producers spilling into Overflow.
    RelaxedCounter QueueHighWater;
    /// Overload-policy tallies, bumped by whichever producer shed a
    /// message bound here (shedLocked, under OverflowMu). Every shed is
    /// also a drop; a shed injection is also an injection, a shed
    /// duplicate also a duplicate's drop.
    RelaxedCounter Shed, ShedInjects, ShedDups;

    /// Fault-injection state; only touched when a plan is active.
    /// Owner-thread unless noted.
    struct DelayedMsg {
      uint32_t Target = 0;   ///< destination shard
      uint64_t ReleaseAt = 0; ///< DrainPolls threshold for release
      Msg M;
    };
    /// Held hops (delay faults), oldest first, in recycled slots.
    RecycleFifo<DelayedMsg> Delayed;
    Msg Released; ///< a due hop, swapped out of its Delayed slot
    uint64_t DrainPolls = 0;               ///< drainBatch calls, incl. empty
    uint64_t NonEmptyBatches = 0;          ///< stall cadence counter
    uint64_t StallEvery = 0;               ///< resolved stall rule; 0 = none
    uint32_t StallUs = 0;
    std::vector<faults::FaultRecord> FaultRecs; ///< ledgered link faults
    /// Parents of messages shed here, written by whichever producer shed
    /// them (OverflowMu). drainTraceStream surfaces [ShedDrained, end) as
    /// Excuse items, then clears the list unless RecordTrace keeps it
    /// for mergeResults.
    std::vector<int64_t> ShedTickets;
    size_t ShedDrained = 0;
    /// Streaming trace sink (EngineConfig::StreamTrace): the owner
    /// flushes its log to StreamBuf (StreamMu) once per loop iteration
    /// and then publishes StreamWatermark — a promise that this shard
    /// will never again log a ticket below it.
    std::mutex StreamMu;
    std::vector<StreamItem> StreamBuf;
    uint64_t StreamLagShed = 0; ///< items shed at StreamBufCap (StreamMu)
    std::atomic<uint64_t> StreamWatermark{0};
    /// Observability (obs/): both null when the corresponding
    /// EngineConfig knob is off — recording calls then cost one
    /// predictable null test and the hot loop takes no timestamps.
    std::unique_ptr<obs::TraceRing> ObsRing;
    std::unique_ptr<ShardLatency> Lat;
  };

  /// Total growth events of a shard's recycled buffers (classifier
  /// output pool + egress slots). Non-atomic reads: only valid after the
  /// shard thread joined (mergeResults), not from concurrent stats().
  static uint64_t freelistGrowth(const Shard &S) {
    uint64_t G = S.ClsOut.grownCount() + S.SelfProc.grownCount();
    for (const MsgBuf &B : S.OutBufs)
      G += B.grownCount();
    return G;
  }

  void workerLoop(unsigned ShardIdx);
  void controllerLoop();
  /// Builds the event->switch subscription index: which dense switches
  /// care about each event, grouped by owning shard, plus the per-event
  /// list of shards with at least one subscriber.
  void buildSubscriptions();
  /// Shard-local fast path: the detecting shard applies \p E to its own
  /// subscribed switches immediately (one RCU swap each), before the
  /// controller round-trip. \p DetectDense learns via the SWITCH rule's
  /// own Fresh merge and is skipped here. \p Ctx is the detection's
  /// consistent extension — occurred events covering \p E's causes.
  void fanOutLocal(Shard &S, unsigned E, uint32_t DetectDense,
                   const DenseBitSet &Ctx);
  /// Merges the single event \p E into \p Dense's register if new. When
  /// the single-event union is not an NES family member (the register
  /// lacks one of \p E's causes), merges \p Ctx — a set of occurred
  /// events containing \p E's enabling chain — instead.
  void mergeEventInto(Shard &S, uint32_t Dense, unsigned E,
                      const DenseBitSet &Ctx);
  /// Drains \p S's priority control lane (CtrlDelta messages); returns
  /// how many it processed.
  size_t drainCtrlLane(Shard &S);
  size_t drainBatch(Shard &S);
  /// Drains OutBufs[S.Index] in place (self-delivered hops never touch
  /// the ring or Pending) until every chain ends or leaves the shard.
  void drainSelf(Shard &S);
  /// Releases delay-held messages whose poll deadline passed.
  void releaseDelayed(Shard &S);
  /// Admits \p M to \p Dst's overflow under the configured overload
  /// policy (spill, or bounded-backlog shedding with full accounting).
  void overflowMsg(Shard &Dst, Msg &&M);
  /// Retires \p M unprocessed: Pending release, drop/shed tallies,
  /// excused-ticket ledgering. Caller holds Dst.OverflowMu.
  void shedLocked(Shard &Dst, Msg &M);
  void flushOut(Shard &S);
  void prefetchMsg(const Msg &M) const;
  void processMsg(Shard &S, Msg &M);
  /// The IN rule, completed in \p M's own slot (M.P).
  void handleInject(Shard &S, Msg &M);
  void processPacket(Shard &S, EnginePacket &P);
  /// Sends classifier output \p Out on. A plain hop takes \p Out's
  /// buffer (swapped into the egress slot), so \p Out is unspecified
  /// afterwards.
  void forwardOut(Shard &S, const EnginePacket &P, uint32_t AtDense,
                  netkat::Packet &Out, const DenseBitSet &OutDigest);
  void applyRegister(Shard &S, SwitchSlot &Sl, const DenseBitSet &NewE);
  void sendToShard(uint32_t Target, Msg &&M);
  /// Pushes \p N already-Pending-counted messages into \p Target's ring
  /// (batch CAS), spilling leftovers to the overflow deque. Stamps each
  /// message's EnqNs when latency histograms are on (hence non-const).
  void pushBatchToShard(uint32_t Target, Msg *Msgs, size_t N);
  /// Records one obs trace event on \p S's ring; a null test when
  /// tracing is off.
  void obsRecord(Shard &S, obs::TraceKind K, uint32_t A, uint32_t B) {
    if (obs::TraceRing *R = S.ObsRing.get())
      R->record({monotonicNs() - StartNs.load(std::memory_order_relaxed),
                 A, B, K, static_cast<uint8_t>(S.Index)});
  }
  int64_t logEntry(Shard &S, const netkat::Packet &Lp, int64_t Parent,
                   bool IsDelivery, nes::SetId Tag);
  void mergeResults();
  /// The partition summary shared by stats() and mergeResults().
  void fillPartitionStats(Stats &S) const;
  /// Every counter total and the per-shard rows, summed over the shards'
  /// tallies (relaxed reads; live-safe). Shared by stats() and
  /// mergeResults(), so both report shapes have one source of truth;
  /// \p Joined selects the post-join fields (freelist growth, no queue).
  void fillCounterStats(Stats &S, bool Joined) const;
  /// Latency-histogram digests and trace-ring totals (lock-free; exact
  /// after join, racy-but-consistent during run for the sampler).
  void fillObsStats(Stats &S) const;
  static int64_t monotonicNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  double nowSec() const {
    // StartNs is atomic: stats() may race run()'s clock reset.
    return static_cast<double>(monotonicNs() - StartNs.load()) * 1e-9;
  }

  const nes::Nes &N;
  const topo::Topology &Topo;
  EngineConfig C;

  SwitchIndex Idx;
  PartitionResult Part; ///< dense switch -> shard placement + quality
  CompiledNes Compiled;
  std::unique_ptr<SwitchSlot[]> Slots; ///< by dense switch index

  /// Where a host's packets enter the network: its attachment port, that
  /// switch's dense index and owning shard. Resolved once at
  /// construction, so injectBatch does no map lookup or SwitchId hash
  /// per injection, and the IN rule none at all (the message carries
  /// the dense switch).
  struct HostIngress {
    Location At;
    uint32_t Dense = 0;
    uint32_t Shard = 0;
  };
  /// Indexed by HostId when the ids are dense (every builder numbers
  /// hosts from a small base); otherwise parallel to SparseHostIds.
  std::vector<HostIngress> HostTable;
  std::vector<HostId> SparseHostIds; ///< sorted; empty when dense
  const HostIngress &hostIngress(HostId H) const {
    if (SparseHostIds.empty()) {
      assert(H < HostTable.size() && "unknown host");
      return HostTable[H];
    }
    auto It = std::lower_bound(SparseHostIds.begin(), SparseHostIds.end(), H);
    assert(It != SparseHostIds.end() && *It == H && "unknown host");
    return HostTable[static_cast<size_t>(It - SparseHostIds.begin())];
  }
  std::vector<std::unique_ptr<Shard>> Shards;

  // Controller.
  std::unique_ptr<BoundedMpscQueue<uint32_t>> CtrlQ;
  std::thread CtrlThread;
  DenseBitSet Occurred; ///< controller-thread private (R of Figure 7)
  /// Event-driven controller wake: workers notify after pushing to
  /// CtrlQ, finish() notifies after raising StopFlag.
  ControllerWake CtrlWake;

  // Update-pipeline routing (built once at construction; all read-only
  // afterwards).
  /// Dense switches subscribed to event E and owned by shard S, at
  /// [E * NumShards + S]. A switch subscribes to an event iff adding it
  /// to some family set changes the switch's table, or the event shares
  /// a family set with an event detectable at the switch (so its arrival
  /// can gate a future local detection via enables/con).
  std::vector<std::vector<uint32_t>> SubSwitches;
  /// Shards with at least one subscriber, per event (delta routing).
  std::vector<std::vector<uint32_t>> SubShards;
  /// Dense switches owned by each shard (broadcast deltas, storm merges).
  std::vector<std::vector<uint32_t>> OwnedDense;

  mutable EpochDomain Epochs;
  std::atomic<uint64_t> Tickets{0};
  std::atomic<int64_t> Pending{0};
  std::atomic<bool> StopFlag{false};
  std::atomic<int64_t> StartNs{0}; ///< run() start, steady-clock ns
  bool Started = false; ///< start() ran (driver-thread private)
  /// Injection chunks, one recycled pool of BatchSize slots per shard
  /// (driver-thread private): a slot's packet keeps its capacity across
  /// injectBatch() calls, and ring pushes copy out of it.
  std::vector<MsgBuf> InjBufs;

  // Controller-thread counters (see Stats.h). The data-plane counters
  // live in each Shard.
  RelaxedCounter Events;
  RelaxedCounter CtrlDeltas; ///< delta messages routed by the controller
  RelaxedCounter FaultStorms; ///< storm re-broadcasts sent

  // Fault injection. FaultArmed is per dense switch, read-only after
  // construction; StormRecs is controller-thread private until join.
  std::vector<bool> FaultArmed;
  std::vector<faults::FaultRecord> StormRecs;
  faults::FaultLedger Ledger; ///< assembled by mergeResults()
  std::vector<std::unique_ptr<std::atomic<int64_t>>> DetectNs; ///< per event
  double ElapsedSec = 0;
  std::atomic<bool> Ran{false};

  // Merged results (valid after run()).
  consistency::NetworkTrace MergedTrace;
  std::vector<nes::SetId> MergedTags;
  std::map<std::pair<SwitchId, nes::EventId>, double> MergedLearnTimes;
  std::vector<int64_t> TransitionNs; ///< detect->learn samples, ns
  std::vector<obs::TraceEvent> MergedObsTrace;
  Stats FinalStats;
};

} // namespace engine
} // namespace eventnet

#endif // EVENTNET_ENGINE_ENGINE_H
