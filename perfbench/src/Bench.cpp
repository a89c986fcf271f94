//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ----------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "apps/Programs.h"
#include "ets/Ets.h"
#include "nes/FromEts.h"
#include "topo/Builders.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

using namespace eventnet;
using namespace eventnet::perfbench;

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += (static_cast<unsigned char>(C) < 0x20) ? ' ' : C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

void Result::check(bool Cond, const std::string &What) {
  if (Cond)
    return;
  Correct = false;
  if (std::find(Failures.begin(), Failures.end(), What) == Failures.end())
    Failures.push_back(What);
}

void Result::endToEnd(const std::string &Name, double V, const char *Unit) {
  E2E[Name] = {V, Unit};
}

void Result::perLayer(const std::string &Name, double V, const char *Unit) {
  Layers[Name] = {V, Unit};
}

void Result::print(const Options &O, const std::vector<MetricSpec> &E2ESpec,
                   const std::vector<MetricSpec> &LayerSpec) {
  const std::vector<MetricSpec> &Spec = O.Trace ? LayerSpec : E2ESpec;
  std::map<std::string, Metric> &Got = O.Trace ? Layers : E2E;
  for (const auto &[Name, M] : Got) {
    bool Declared = false;
    for (const MetricSpec &S : Spec)
      Declared |= Name == S.Name && M.Unit == S.Unit;
    check(Declared, "undeclared metric " + Name + " [" + M.Unit + "]");
  }
  for (const MetricSpec &S : Spec) {
    if (Got.count(S.Name))
      continue;
    check(O.Trace, std::string("end-to-end metric not measured: ") + S.Name);
    Got[S.Name] = {0, S.Unit};
  }

  // The detail line: what a reader needs to trust the result line —
  // sample counts behind every percentile, the failed checks, and the
  // hardware the numbers were measured on.
  std::string D = "{\"detail\": {\"workload\": " + jsonString(O.Workload) +
                  ", \"seed\": " + std::to_string(O.Seed) +
                  ", \"trace\": " + (O.Trace ? "1" : "0") +
                  ", \"hw_threads\": " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ", \"samples\": {";
  bool First = true;
  for (const auto &[Name, N] : Samples) {
    D += (First ? "" : ", ") + jsonString(Name) + ": " + std::to_string(N);
    First = false;
  }
  D += "}, \"failed_checks\": [";
  First = true;
  for (const std::string &F : Failures) {
    D += (First ? "" : ", ") + jsonString(F);
    First = false;
  }
  D += "]}}";
  printf("%s\n", D.c_str());

  std::string L = std::string("{\"correct\": ") +
                  (Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  First = true;
  for (const MetricSpec &S : Spec) {
    L += (First ? "" : ", ") + jsonString(S.Name) +
         ": {\"value\": " + jsonNumber(Got[S.Name].Value) +
         ", \"unit\": " + jsonString(S.Unit) + "}";
    First = false;
  }
  L += "}}";
  printf("%s\n", L.c_str());
  fflush(stdout);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer::Scope::Scope(Tracer *T, const char *Name, uint64_t Group) : T(T) {
  if (!T)
    return;
  Span S;
  S.Name = Name;
  S.Parent = T->Top;
  S.Group = Group;
  Idx = static_cast<int32_t>(T->Spans.size());
  T->Spans.push_back(S);
  T->Top = Idx;
  // Stamp last so the bookkeeping above is not inside the span.
  T->Spans[Idx].StartNs = nowNs();
}

Tracer::Scope::~Scope() {
  if (!T)
    return;
  int64_t End = nowNs();
  Span &S = T->Spans[Idx];
  S.EndNs = End;
  T->Top = S.Parent;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, Totals> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    Totals &T = Out[Spans[I].Name];
    int64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
    ++T.Count;
    T.TotalNs += Dur;
    T.SelfNs += Dur - ChildNs[I];
  }
  return Out;
}

std::vector<double> Tracer::durationsMs(const char *Name) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (std::string(S.Name) == Name)
      Out.push_back(static_cast<double>(S.EndNs - S.StartNs) * 1e-6);
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path,
                              const std::string &Track) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  // The same top-level shape `eventnetc run --trace` emits; spans are
  // "X" complete events with microsecond timestamps relative to the
  // first span, parent and batch/rep id in args.
  int64_t T0 = Spans.empty() ? 0 : Spans.front().StartNs;
  OS << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": ["
     << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"args\": {\"name\": \"perfbench "
     << Track << "\"}}";
  char Buf[320];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    snprintf(Buf, sizeof(Buf),
             ", {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
             "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": "
             "{\"id\": %zu, \"parent\": %" PRId32 ", \"group\": %" PRIu64
             "}}",
             S.Name, static_cast<double>(S.StartNs - T0) * 1e-3,
             static_cast<double>(S.EndNs - S.StartNs) * 1e-3, I, S.Parent,
             S.Group);
    OS << Buf;
  }
  OS << "], \"otherData\": {\"spans\": " << Spans.size() << "}}\n";
  return static_cast<bool>(OS);
}

double perfbench::selfNsPer(const std::map<std::string, Tracer::Totals> &T,
                            const std::string &Name, double Per) {
  auto It = T.find(Name);
  if (It == T.end() || Per <= 0)
    return 0;
  return static_cast<double>(It->second.SelfNs) / Per;
}

double perfbench::medianSpanMs(const Tracer &T, const char *Name) {
  std::vector<double> Ms = T.durationsMs(Name);
  return Ms.empty() ? 0 : percentile(Ms, 0.5);
}

//===----------------------------------------------------------------------===//
// Core placement
//===----------------------------------------------------------------------===//

namespace {

unsigned hwThreads() { return std::thread::hardware_concurrency(); }

void pinTo(int Tid, unsigned First, unsigned Last) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (unsigned C = First; C <= Last; ++C)
    CPU_SET(C, &Set);
  sched_setaffinity(Tid, sizeof(Set), &Set);
}

/// Ids of this process's threads, ascending (creation order on Linux).
std::vector<int> threadIds() {
  std::vector<int> Ids;
  if (DIR *D = opendir("/proc/self/task")) {
    while (struct dirent *E = readdir(D))
      if (E->d_name[0] != '.')
        Ids.push_back(atoi(E->d_name));
    closedir(D);
  }
  std::sort(Ids.begin(), Ids.end());
  return Ids;
}

} // namespace

EngineSide::EngineSide(Placement P) : P(P) {
  if (hwThreads() < 2)
    return;
  if (P == OneCoreEach)
    Before = threadIds();
  pinTo(0, 0, hwThreads() - 2);
}

EngineSide::~EngineSide() {
  if (hwThreads() < 2)
    return;
  if (P == OneCoreEach) {
    unsigned Next = 0;
    for (int Tid : threadIds()) {
      if (std::binary_search(Before.begin(), Before.end(), Tid))
        continue;
      pinTo(Tid, Next, Next);
      Next = (Next + 1) % (hwThreads() - 1);
    }
  }
  pinBenchThread();
}

void EngineSide::pinBenchThread() {
  if (hwThreads() > 1)
    pinTo(0, hwThreads() - 1, hwThreads() - 1);
}

//===----------------------------------------------------------------------===//
// Percentiles and process usage
//===----------------------------------------------------------------------===//

double perfbench::percentile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[Rank == 0 ? 0 : Rank - 1];
}

std::vector<std::vector<const Op *>>
perfbench::windows(const std::vector<Op> &Ops, int64_t T0Ns, int64_t T1Ns,
                   double WindowSec) {
  double Span = static_cast<double>(T1Ns - T0Ns);
  size_t N = std::max<size_t>(1, static_cast<size_t>(Span * 1e-9 / WindowSec));
  std::vector<std::vector<const Op *>> W(N);
  for (const Op &O : Ops) {
    double At = static_cast<double>(O.EndNs - T0Ns) / Span;
    W[std::min(N - 1, static_cast<size_t>(std::max(0.0, At) * N))]
        .push_back(&O);
  }
  return W;
}

double perfbench::quietRate(std::vector<double> PerWindow) {
  return percentile(PerWindow, 0.75);
}

double perfbench::quietLatency(std::vector<double> PerWindow) {
  return percentile(PerWindow, 0.25);
}

double perfbench::windowRate(const std::vector<Op> &Ops, int64_t T0Ns,
                             int64_t T1Ns, double WindowSec) {
  auto W = windows(Ops, T0Ns, T1Ns, WindowSec);
  double Len = static_cast<double>(T1Ns - T0Ns) * 1e-9 / W.size();
  std::vector<double> Rates;
  for (const auto &Win : W) {
    uint64_t P = 0;
    for (const Op *O : Win)
      P += O->Packets;
    Rates.push_back(static_cast<double>(P) / Len);
  }
  return quietRate(std::move(Rates));
}

double perfbench::windowLatency(const std::vector<Op> &Ops, int64_t T0Ns,
                                int64_t T1Ns, double WindowSec, double Q) {
  std::vector<double> PerWindow;
  for (const auto &Win : windows(Ops, T0Ns, T1Ns, WindowSec)) {
    std::vector<double> Lat;
    for (const Op *O : Win)
      Lat.push_back(O->LatencyUs);
    if (!Lat.empty())
      PerWindow.push_back(percentile(Lat, Q));
  }
  return quietLatency(std::move(PerWindow));
}

double perfbench::percentile(const obs::HistogramSnapshot &H, double Q) {
  if (H.TotalCount == 0)
    return 0;
  double Rank = std::max(1.0, std::ceil(Q * H.TotalCount));
  uint64_t Seen = 0;
  for (unsigned I = 0; I != H.Counts.size(); ++I) {
    if (H.Counts[I] == 0 || Seen + H.Counts[I] < Rank) {
      Seen += H.Counts[I];
      continue;
    }
    double Lo = I == 0 ? 0
                       : static_cast<double>(
                             obs::LogHistogram::bucketUpperEdge(I - 1) + 1);
    double Hi = static_cast<double>(
        std::min(obs::LogHistogram::bucketUpperEdge(I), H.Max));
    double Frac = (Rank - Seen) / static_cast<double>(H.Counts[I]);
    return Lo + (std::max(Hi, Lo) - Lo) * Frac;
  }
  return static_cast<double>(H.Max);
}

double perfbench::peakRssMiB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

ProcUsage ProcUsage::now() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  ProcUsage P;
  P.CpuSec = U.ru_utime.tv_sec + U.ru_utime.tv_usec * 1e-6 +
             U.ru_stime.tv_sec + U.ru_stime.tv_usec * 1e-6;
  P.CtxSwitches = static_cast<uint64_t>(U.ru_nvcsw + U.ru_nivcsw);
  return P;
}

void perfbench::reportProc(Result &R, const ProcUsage &U, uint64_t Packets) {
  double P = static_cast<double>(Packets);
  R.perLayer("proc.cpu_s_per_mpkt", P > 0 ? U.CpuSec / (P * 1e-6) : 0, "s");
  R.perLayer("proc.ctx_switches_per_kpkt",
             P > 0 ? static_cast<double>(U.CtxSwitches) / (P * 1e-3) : 0,
             "count");
}

//===----------------------------------------------------------------------===//
// The ring16 program
//===----------------------------------------------------------------------===//

topo::Topology perfbench::ring16Topology() {
  return topo::ringTopology(16, 8);
}

nes::Nes perfbench::compileRing16(const topo::Topology &Topo, Tracer &T,
                                  uint64_t Rep, Result &R) {
  stateful::SPolRef P = apps::ringProgram(16, 8);
  ets::BuildResult B;
  {
    auto S = T.span("ets.build", Rep);
    B = ets::buildEts(P, Topo);
  }
  R.check(B.Ok, "ring16: ETS builds");
  auto S = T.span("nes.from_ets", Rep);
  nes::ConvertResult C = nes::fromEts(B.T);
  R.check(C.Ok && C.N && C.N->isLocallyDetermined(),
          "ring16: NES converts and is locally determined");
  return std::move(*C.N);
}
