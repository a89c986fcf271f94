//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           [--trace-out FILE]
///
/// Runs one workload and prints two JSON lines: a detail line (sample
/// counts, failed checks, hardware threads) and, last, the result line
/// {"correct", "attempted", "failed", "metrics"} holding every declared
/// end-to-end metric (--trace 0) or every declared per-layer metric
/// (--trace 1). The metric lists below are the ones BENCHMARK.json
/// declares; run.py checks the two agree.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace eventnet;
using namespace eventnet::perfbench;

namespace {

const std::vector<MetricSpec> EndToEnd = {
    {"setup_s", "s"},
    {"delivered_per_s", "pkts/s"},
    {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},
    {"peak_rss_mib", "MiB"},
};

const std::vector<MetricSpec> PerLayer = {
    // Compile and set-up -> setup_s.
    {"ets.build_ms", "ms"},
    {"nes.from_ets_ms", "ms"},
    {"apps.static_nes_ms", "ms"},
    {"engine.lower_ms", "ms"},
    {"engine.ctor_ms", "ms"},
    {"engine.start_ms", "ms"},
    {"net.open_ms", "ms"},
    // Engine data plane -> delivered_per_s, latency on forward-fattree8.
    {"engine.inject_ns_per_pkt", "ns"},
    {"engine.drain_ns_per_hop", "ns"},
    {"engine.classifier_ns_per_lookup", "ns"},
    {"engine.hops_per_delivery", "count"},
    {"engine.queue_hwm", "count"},
    {"engine.edge_cut_share", "ratio"},
    {"engine.shard_balance", "ratio"},
    {"engine.idle_sleeps_per_batch", "count"},
    // Engine update pipeline: the update probe in forward's traced run.
    {"engine.detect_us", "us"},
    {"engine.propagate_us", "us"},
    {"engine.converge_p50_us", "us"},
    {"engine.converge_p90_us", "us"},
    {"engine.late_rep_share", "ratio"},
    {"engine.fast_learns_per_rep", "count"},
    {"engine.ctrl_deltas_per_rep", "count"},
    {"engine.transition_p50_us", "us"},
    {"engine.rep_start_ms", "ms"},
    {"update.generator_late_us", "us"},
    // Stream hand-off, collector and consistency: isolated probes in
    // every traced run, the live-verification probe in echo's.
    {"engine.stream_drain_ns_per_item", "ns"},
    {"engine.stream_backlog_peak", "count"},
    {"api.backlog_wait_share", "ratio"},
    {"consistency.ingest_ns_per_entry", "ns"},
    {"consistency.wall_ns_per_entry", "ns"},
    {"consistency.finish_ms", "ms"},
    {"consistency.peak_window", "count"},
    {"consistency.peak_resident_kib", "KiB"},
    {"consistency.chains_retired", "count"},
    // Wire and net -> latency and delivered_per_s on echo-tcp.
    {"wire.encode_ns_per_frame", "ns"},
    {"wire.decode_ns_per_frame", "ns"},
    {"net.session_ingest_ns_per_frame", "ns"},
    {"net.bytes_per_reply", "bytes"},
    {"net.reassembly_partial_share", "ratio"},
    {"net.backpressure_shed", "count"},
    // Process and the trace itself -> every latency metric.
    {"proc.cpu_s_per_mpkt", "s"},
    {"proc.ctx_switches_per_kpkt", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.residual_share", "ratio"},
    {"verified.residual_share", "ratio"},
};

int usage(const char *Msg) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload "
          "forward-fattree8|echo-tcp "
          "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
          Msg);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 == argc)
      return usage(("missing value for " + A).c_str());
    const char *V = argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = strtoull(V, &End, 10);
      HaveSeed = *V && *End == '\0';
    } else if (A == "--seconds") {
      O.Seconds = strtod(V, &End);
      HaveSeconds = *V && *End == '\0' && O.Seconds > 0 && O.Seconds <= 600;
    } else if (A == "--trace") {
      HaveTrace = !strcmp(V, "0") || !strcmp(V, "1");
      O.Trace = !strcmp(V, "1");
    } else if (A == "--trace-out") {
      O.TraceOut = V;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds and --trace are required");
  if (O.Trace && O.TraceOut.empty())
    return usage("--trace 1 needs --trace-out");

  EngineSide::pinBenchThread();
  Result R;
  if (O.Workload == "forward-fattree8")
    runForward(O, R);
  else if (O.Workload == "echo-tcp")
    runEcho(O, R);
  else
    return usage(("unknown workload '" + O.Workload + "'").c_str());
  R.print(O, EndToEnd, PerLayer);
  return 0;
}
