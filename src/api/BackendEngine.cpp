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

#include <fstream>
#include <iostream>

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

    E.run(W);
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
