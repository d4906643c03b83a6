// A4 (part 1): microbenchmarks of the execution substrates — event queue
// throughput, EFSM dispatch, expression evaluation, log append/parse.
#include "bench_util.hpp"
#include "efsm/program.hpp"
#include "sim/event.hpp"
#include "sim/log.hpp"
#include "uml/model.hpp"

using namespace tut;

namespace {

void print_header() {
  bench::banner("A4: kernel / EFSM / log microbenchmarks");
  std::cout << "(tool-scalability substrate: events, transitions, log lines)\n";
}

// Run-to-completion steps show up as zero-delay self-schedules; this is the
// bucket fast path (no heap sift at all). The queue hands back 16-byte
// records, so the whole loop is schedule/poll with no allocation.
void BM_EventQueueZeroDelayCascade(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    std::size_t fired = 0;
    q.schedule_at(0, {sim::EventRec::Kind::StepDone, 0, 0, 0});
    sim::EventRec ev;
    while (q.poll(10, ev)) {
      if (++fired < n) {
        q.schedule_at(q.now(), {sim::EventRec::Kind::StepDone, 0, 0, 0});
      }
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueZeroDelayCascade)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// Many events on few distinct timestamps: dispatch cost is dominated by
// moving records out of the heap, not by sift depth.
void BM_EventQueueSameTimeBurst(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    q.reserve(n);
    std::size_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule_at(1 + i % 4, {sim::EventRec::Kind::StepDone,
                                static_cast<std::uint32_t>(i), 0, 0});
    }
    sim::EventRec ev;
    while (q.poll(10, ev)) ++fired;
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueSameTimeBurst)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_ExprCompile(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        efsm::Expr::compile("pending > 0 && slotcnt % 8 == 0 || len * 4 > 64"));
  }
}
BENCHMARK(BM_ExprCompile)->Unit(benchmark::kMicrosecond);

void BM_ExprEval(benchmark::State& state) {
  const auto expr =
      efsm::Expr::compile("pending > 0 && slotcnt % 8 == 0 || len * 4 > 64");
  const efsm::Env env{{"pending", 3}, {"slotcnt", 16}, {"len", 12}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr.eval(env));
  }
}
BENCHMARK(BM_ExprEval);

// Bytecode counterpart of BM_ExprEval (the reference evaluator): the same
// expression lowered once to an efsm::Program and run over a flat slot
// file.
void BM_ProgramEval(benchmark::State& state) {
  const auto expr =
      efsm::Expr::compile("pending > 0 && slotcnt % 8 == 0 || len * 4 > 64");
  const efsm::Program::SlotMap slot_map{
      {"pending", 0}, {"slotcnt", 1}, {"len", 2}};
  const auto program = efsm::Program::compile(expr, slot_map);
  const std::vector<std::string> names{"pending", "slotcnt", "len"};
  const long values[] = {3, 16, 12};
  const std::uint8_t defined[] = {1, 1, 1};
  const efsm::Program::Slots slots{values, defined, &names};
  std::vector<long> regs(program.reg_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(program.run(slots, regs.data()));
  }
}
BENCHMARK(BM_ProgramEval);

// One guarded signal step with a parameter, an assignment and a compute
// action, on a CompiledInstance.
void BM_EfsmDispatchCompiled(benchmark::State& state) {
  uml::Model model("m");
  auto& sig = model.create_signal("S");
  sig.add_parameter("x", "int");
  auto& cls = model.create_class("C", nullptr, true);
  model.add_port(cls, "in").provide(sig);
  auto& sm = model.create_behavior(cls);
  sm.declare_variable("n", 0);
  auto& idle = model.add_state(sm, "Idle", true);
  model.add_transition(sm, idle, idle, sig, "in")
      .set_guard("x > 0")
      .add_effect(uml::Action::assign("n", "n + x"))
      .add_effect(uml::Action::compute("10"));
  const efsm::CompiledMachine machine(sm);
  efsm::CompiledInstance inst(machine, "i");
  inst.start();
  const efsm::Event ev{&sig, "in", {5}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(inst.deliver(ev));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EfsmDispatchCompiled);

void BM_LogAppend(benchmark::State& state) {
  for (auto _ : state) {
    sim::SimulationLog log;
    for (int i = 0; i < 1000; ++i) {
      log.run(static_cast<sim::Time>(i), "proc", 100, 2000);
    }
    benchmark::DoNotOptimize(log.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_LogAppend)->Unit(benchmark::kMicrosecond);

void BM_LogParse(benchmark::State& state) {
  sim::SimulationLog log;
  for (int i = 0; i < 1000; ++i) {
    log.run(static_cast<sim::Time>(i), "proc", 100, 2000);
    log.send(static_cast<sim::Time>(i), "a", "b", "Sig", 64);
  }
  const std::string text = log.to_text();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::SimulationLog::parse(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_LogParse)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, print_header);
}
