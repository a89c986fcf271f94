//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the perfbench workloads and probes share: run options, the result
/// record (metrics, checks, failure accounting), the span tracer that
/// times calls into each layer from the benchmark's own code, percentile,
/// window and process-resource helpers, thread placement, and the
/// isolated layer probes.
///
/// Rules every workload follows (each one was measured to matter while
/// sizing the benchmark):
///  - all inputs are generated from the seed before the timed loop
///    (generating churn inside the loop cost ~20% of forward wall time);
///  - no sleep in a timed loop: waits only yield, on quiescent() or
///    streamBacklog();
///  - end-to-end metrics come from untraced loops; spans are recorded in
///    a separate traced loop, and the difference is the tracing overhead.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_PERFBENCH_BENCH_H
#define EVENTNET_PERFBENCH_BENCH_H

#include "engine/Engine.h"
#include "nes/Nes.h"
#include "obs/Histogram.h"
#include "topo/Topology.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace eventnet {
namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Chrome trace_event JSON destination for the traced loop's spans.
  std::string TraceOut;
};

/// A metric the benchmark declares: name and unit.
struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// Everything one run reports.
class Result {
public:
  /// Records a correctness check; a failed check makes the run incorrect
  /// and is listed in the detail line.
  void check(bool Cond, const std::string &What);
  void endToEnd(const std::string &Name, double V, const char *Unit);
  void perLayer(const std::string &Name, double V, const char *Unit);
  /// The number of samples behind a reported percentile.
  void samples(const std::string &Metric, uint64_t N) { Samples[Metric] = N; }
  /// Operations the timed loops attempted, and how many of them failed.
  void ops(uint64_t Attempted, uint64_t Failed) {
    this->Attempted += Attempted;
    this->Failed += Failed;
  }

  /// Prints the detail line and then the result line (the last line of
  /// stdout) holding exactly the declared metrics: \p E2E untraced,
  /// \p Layers traced. A declared end-to-end metric the workload did not
  /// measure, or a reported metric nobody declared, fails the run; a
  /// declared per-layer metric of a layer the workload never calls reads
  /// 0.
  void print(const Options &O, const std::vector<MetricSpec> &E2E,
             const std::vector<MetricSpec> &Layers);

private:
  struct Metric {
    double Value;
    std::string Unit;
  };
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
  std::map<std::string, Metric> E2E, Layers;
  std::map<std::string, uint64_t> Samples;
};

/// Records nested spans on the bench thread, in memory, when on. When
/// off, a scope costs one branch and records nothing.
class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}
  bool on() const { return On; }

  class Scope {
  public:
    Scope(Tracer *T, const char *Name, uint64_t Group);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T;
    int32_t Idx = -1;
  };

  /// Opens a span closed when the returned scope ends.
  Scope span(const char *Name, uint64_t Group) {
    return Scope(On ? this : nullptr, Name, Group);
  }

  struct Totals {
    uint64_t Count = 0;
    int64_t TotalNs = 0;
    int64_t SelfNs = 0; ///< span time not covered by child spans
  };
  /// Per span name: count, total and self time.
  std::map<std::string, Totals> totals() const;
  /// Durations of every span named \p Name, in milliseconds.
  std::vector<double> durationsMs(const char *Name) const;
  /// Appends the spans to \p Path as Chrome trace_event JSON ("X"
  /// complete events, one track per workload). Returns false on I/O
  /// failure.
  bool writeChromeTrace(const std::string &Path,
                        const std::string &Track) const;

private:
  /// One span the bench thread recorded around a call into a layer.
  struct Span {
    const char *Name = nullptr;
    int64_t StartNs = 0, EndNs = 0;
    int32_t Parent = -1; ///< index of the enclosing span, -1 for a root
    uint64_t Group = 0;  ///< batch/rep id shared by the spans of one op
  };

  bool On;
  std::vector<Span> Spans;
  int32_t Top = -1;
};

/// Keeps the bench thread and the program's threads apart. On a machine
/// with N > 1 hardware threads the bench thread runs on the last one and
/// every thread the program starts inside an EngineSide scope (shards,
/// controller, collector, server loop) on the other N - 1. Left to the
/// scheduler, a bench thread spinning on quiescent() shared a core with
/// a shard often enough to move batch times by 10-40% between runs.
class EngineSide {
public:
  enum Placement {
    /// Each new thread gets one engine core to itself, in creation
    /// order. Steadiest for threads that stay busy: a shard never
    /// migrates.
    OneCoreEach,
    /// New threads share the engine cores as the scheduler sees fit.
    /// For threads that sleep and wake often: a wake-up can then land on
    /// a running core instead of a halted virtual CPU, whose wake-up
    /// cost (tens to hundreds of microseconds) would otherwise be what
    /// the latency measures.
    Shared,
  };

  explicit EngineSide(Placement P);
  ~EngineSide();
  EngineSide(const EngineSide &) = delete;
  EngineSide &operator=(const EngineSide &) = delete;

  /// Pins the calling (bench) thread to its own core.
  static void pinBenchThread();

private:
  Placement P;
  std::vector<int> Before; ///< thread ids alive when the scope opened
};

/// The \p Q quantile (nearest rank) of \p V; sorts \p V.
double percentile(std::vector<double> &V, double Q);

/// One completed operation of a timed loop: when it ended, the packets
/// it delivered, and its latency.
struct Op {
  int64_t EndNs = 0;
  uint64_t Packets = 0;
  double LatencyUs = 0;
};

/// The timed loop [\p T0Ns, \p T1Ns) cut into equal windows of about
/// \p WindowSec each, every op in the window its end time falls into.
std::vector<std::vector<const Op *>> windows(const std::vector<Op> &Ops,
                                             int64_t T0Ns, int64_t T1Ns,
                                             double WindowSec);

/// A run reports its better-quartile window. On a shared host, other
/// tenants' load (seen as hypervisor steal time, which ranged from 0.2%
/// to 16% of this benchmark's CPU time within an hour) comes in bursts
/// that slow some windows of a run and not others; the better quartile
/// is what the program does when left alone. A regression slows every
/// window, so it still shows.
double quietRate(std::vector<double> PerWindow);
double quietLatency(std::vector<double> PerWindow);

/// quietRate of the windows' packets delivered per second.
double windowRate(const std::vector<Op> &Ops, int64_t T0Ns, int64_t T1Ns,
                  double WindowSec);
/// quietLatency of the windows' \p Q latency quantiles.
double windowLatency(const std::vector<Op> &Ops, int64_t T0Ns, int64_t T1Ns,
                     double WindowSec, double Q);

/// The \p Q quantile of a log-bucket histogram, interpolated linearly
/// inside the bucket so the value is not snapped to a bucket edge.
double percentile(const obs::HistogramSnapshot &H, double Q);

/// Peak resident set of this process so far, MiB.
double peakRssMiB();

/// CPU seconds (user + system) and context switches (voluntary +
/// involuntary) of this process so far.
struct ProcUsage {
  double CpuSec = 0;
  uint64_t CtxSwitches = 0;
  static ProcUsage now();
  ProcUsage operator-(const ProcUsage &B) const {
    return {CpuSec - B.CpuSec, CtxSwitches - B.CtxSwitches};
  }
};

/// The traced loop's delivery rate lost against the untraced loop's, in
/// percent (both rates as quietRate reports them).
inline double overheadPct(double Untraced, double Traced) {
  return Untraced > 0 ? (1.0 - Traced / Untraced) * 100.0 : 0;
}

/// Reports proc.cpu_s_per_mpkt and proc.ctx_switches_per_kpkt for
/// \p Packets delivered while \p U was spent.
void reportProc(Result &R, const ProcUsage &U, uint64_t Packets);

/// The isolated layer probes, each run on inputs from the workload's
/// own program, topology and seed. Every probe also checks its outputs.
struct ProbeInputs {
  const nes::Nes *N = nullptr;
  const topo::Topology *Topo = nullptr;
  /// The workload's packets (injections at their ingress hosts).
  std::vector<engine::Injection> Packets;
  /// Engine settings for the drain-only stream recording run.
  unsigned Shards = 1;
  uint64_t Seed = 1;
};
/// Classifier lookup, Wire encode/decode, Session::ingest, drain-only
/// stream hand-off and StreamChecker replay. Reports engine.lower_ms,
/// engine.classifier_ns_per_lookup, wire.encode_ns_per_frame,
/// wire.decode_ns_per_frame, net.session_ingest_ns_per_frame,
/// engine.stream_drain_ns_per_item and consistency.ingest_ns_per_entry.
void runProbes(const ProbeInputs &In, Result &R);

/// The Section 5.2 ring of 16 switches (diameter 8) the ring16 workloads
/// run on, and its program compiled the way nes::compileAst does it, with
/// the ETS and NES stages in their own spans.
topo::Topology ring16Topology();
nes::Nes compileRing16(const topo::Topology &Topo, Tracer &T, uint64_t Rep,
                       Result &R);

/// The workloads (one translation unit each).
void runForward(const Options &O, Result &R);
void runEcho(const Options &O, Result &R);

/// The update-pipeline probe (Update.cpp), run in forward-fattree8's
/// traced run: fresh ring16 engines on 2 shards, each converging under a
/// paced storm, for \p Seconds. Records its spans in \p T and reports
/// the update pipeline's per-layer metrics.
void runUpdateProbe(uint64_t Seed, double Seconds, Tracer &T, Result &R);

/// The live-verification probe (Verified.cpp), run in echo-tcp's traced
/// run: ring16 on 1 shard with the streaming checker attached, closed
/// loop gated on the stream backlog, for \p Seconds. Records its spans
/// in \p T and reports the stream hand-off and consistency layers'
/// per-layer metrics.
void runVerifiedProbe(uint64_t Seed, double Seconds, Tracer &T,
                      Result &R);

/// Span self time of \p Name per unit of \p Per, in nanoseconds (0 when
/// the span never ran).
double selfNsPer(const std::map<std::string, Tracer::Totals> &T,
                 const std::string &Name, double Per);

/// Median of the \p Name spans' durations in milliseconds (0 when the
/// span never ran).
double medianSpanMs(const Tracer &T, const char *Name);

/// Runs \p SetUp \p Reps times and returns the median of the seconds
/// each call reports (set-up is short and jittery; the median of several
/// is what setup_s reports).
template <typename FnT> double medianSetupSec(unsigned Reps, FnT SetUp) {
  std::vector<double> Sec;
  for (unsigned I = 0; I != Reps; ++I)
    Sec.push_back(SetUp(I));
  return percentile(Sec, 0.5);
}

} // namespace perfbench
} // namespace eventnet

#endif // EVENTNET_PERFBENCH_BENCH_H
