//===- api/BackendEngine.cpp - "engine" backend ---------------------------===//
//
// The sharded concurrent engine behind the façade's Backend interface:
// construct an engine with the requested shard count, execute the shared
// workload phase by phase, and translate engine::Stats into the uniform
// RunReport shape.
//
//===----------------------------------------------------------------------===//

#include "api/Run.h"

#include "api/EngineOptions.h"
#include "api/StreamCollect.h"
#include "engine/Engine.h"
#include "obs/Metrics.h"
#include "obs/Sampler.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>

using namespace eventnet;
using namespace eventnet::api;

namespace {

class EngineBackend : public Backend {
public:
  const char *name() const override { return "engine"; }

  Result<RunReport> execute(const Compilation &C, const RunOptions &O,
                            const engine::Workload &W) override {
    Result<engine::EngineConfig> Cfg = detail::engineConfig(O);
    if (!Cfg.ok())
      return Cfg.status();
    std::optional<faults::Injector> Inj;
    if (O.Faults && O.Faults->enabled())
      Cfg->Faults = &Inj.emplace(*O.Faults);
    engine::Engine E(C.structure(), C.topology(), *Cfg);

    std::optional<detail::StreamCollector> Col;
    if (O.StreamingCheck)
      Col.emplace(E, C.structure(), C.topology(), detail::streamOptions(O));

    // Optional periodic metrics sampler: JSON-lines counter snapshots to
    // a file or stderr while the run is live.
    std::ofstream MetricsFile;
    std::unique_ptr<obs::MetricsSampler> Sampler;
    if (O.MetricsIntervalMs > 0) {
      std::ostream *Sink = &std::cerr;
      if (!O.MetricsPath.empty()) {
        MetricsFile.open(O.MetricsPath);
        if (!MetricsFile)
          return Status::error(Code::RunError,
                               "cannot open metrics path '" + O.MetricsPath +
                                   "'");
        Sink = &MetricsFile;
      }
      Sampler = std::make_unique<obs::MetricsSampler>(
          O.MetricsIntervalMs,
          [&E] { return obs::metricsJsonLine(E.stats()); }, *Sink);
      Sampler->start();
    }

    // Phase by phase, as Engine::run does. With a streaming collector the
    // loop is closed: after each phase it waits until the shards' summed
    // hand-off holds at most half of StreamBufCap, so the checker catches
    // up instead of the shards shedding stream items and the verdict
    // ending inconclusive. That keeps every shard under its cap as long
    // as one phase's traced hops per shard stay under StreamBufCap / 2;
    // larger phases can still shed.
    E.start();
    for (const engine::Phase &Ph : W.Phases) {
      E.injectBatch(Ph.Injections.data(), Ph.Injections.size());
      E.awaitQuiescence();
      if (Col)
        while (E.streamBacklog() > Cfg->StreamBufCap / 2)
          std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    E.finish();
    if (Sampler)
      Sampler->stop(); // emits one final post-run sample

    RunReport R;
    detail::fillEngineReport(R, E, O, *Cfg, Col ? &*Col : nullptr);
    return R;
  }
};

} // namespace

namespace eventnet {
namespace api {
std::unique_ptr<Backend> makeEngineBackend() {
  return std::make_unique<EngineBackend>();
}
} // namespace api
} // namespace eventnet
