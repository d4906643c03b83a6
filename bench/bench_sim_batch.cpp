// End-to-end co-simulation benchmarks for the compiled core: the TUTMAC
// case study on the bytecode interpreter, model lowering, and BatchRunner
// thread scaling over one shared CompiledModel image. On a single-core
// container the scaling shows up as CPU-per-scenario, not wall clock.
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "mapping/mapping.hpp"
#include "sim/batch.hpp"
#include "sim/compiled.hpp"
#include "sim/simulator.hpp"
#include "tutmac/tutmac.hpp"

using namespace tut;

namespace {

constexpr sim::Time kHorizon = 100'000'000;  // 100 ms of modelled time

void print_header() {
  bench::banner("A7: compiled simulation core — TUTMAC end-to-end + batch");
  std::cout << "(bytecode EFSM backend; batch over one shared image)\n";
}

tutmac::System& shared_system() {
  static tutmac::System sys = [] {
    tutmac::Options opt;
    opt.horizon = kHorizon;
    return tutmac::build(opt);
  }();
  return sys;
}

// One shared CompiledModel, a bytecode CompiledInstance per process.
void BM_TutmacEndToEndCompiled(benchmark::State& state) {
  tutmac::System& sys = shared_system();
  const mapping::SystemView view(*sys.model);
  const auto compiled = sim::CompiledModel::build(view);
  sim::Config config;
  config.horizon = kHorizon;
  for (auto _ : state) {
    sim::Simulation simulation(compiled, config);
    sys.inject_workload(simulation);
    simulation.run();
    benchmark::DoNotOptimize(simulation.events_dispatched());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TutmacEndToEndCompiled)->Unit(benchmark::kMillisecond);

// Model lowering cost: what batch mode amortizes across scenarios.
void BM_CompiledModelBuild(benchmark::State& state) {
  tutmac::System& sys = shared_system();
  const mapping::SystemView view(*sys.model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::CompiledModel::build(view));
  }
}
BENCHMARK(BM_CompiledModelBuild)->Unit(benchmark::kMicrosecond);

// N scenarios over one shared image; range(0) is the worker-thread count.
void BM_BatchScenarios(benchmark::State& state) {
  tutmac::System& sys = shared_system();
  const mapping::SystemView view(*sys.model);
  const auto compiled = sim::CompiledModel::build(view);
  constexpr std::size_t kScenarios = 8;
  std::vector<sim::BatchScenario> scenarios(kScenarios);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    scenarios[i].name = "s" + std::to_string(i);
    scenarios[i].config.horizon = kHorizon;
    scenarios[i].config.faults.seed = i;
    scenarios[i].setup = [&sys](sim::Simulation& s) {
      sys.inject_workload(s);
    };
  }
  sim::BatchOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  const sim::BatchRunner runner(compiled, options);
  for (auto _ : state) {
    const auto results = runner.run(scenarios);
    benchmark::DoNotOptimize(results.front().log_hash);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kScenarios));
}
BENCHMARK(BM_BatchScenarios)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, print_header);
}
