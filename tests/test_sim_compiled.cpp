// Tests for the compiled simulation core: EventQueue ordering,
// CompiledModel lowering, golden TUTMAC logs and statistics (with and
// without a fault plan) on both Simulation constructors, and BatchRunner
// determinism across thread counts.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/batch.hpp"
#include "sim/campaign.hpp"
#include "sim/compiled.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"
#include "tutmac/tutmac.hpp"

using namespace tut;
using namespace tut::sim;

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueue, OrderingMatchesKernel) {
  // The pinned (time, seq) dispatch order.
  EventQueue queue;
  const std::pair<Time, std::uint32_t> schedule[] = {
      {50, 1}, {10, 2}, {50, 3},  // 3: same time as 1, FIFO by schedule
      {10, 4}, {0, 5},            // 5: due immediately (now == 0): bucket
      {30, 6}};
  for (const auto& [t, id] : schedule) {
    queue.schedule_at(t, {EventRec::Kind::Inject, id});
  }
  std::vector<std::uint32_t> order;
  EventRec ev;
  while (queue.poll(100, ev)) order.push_back(ev.a);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{5, 2, 4, 6, 1, 3}));
  EXPECT_EQ(queue.now(), 100u);
  EXPECT_EQ(queue.dispatched(), 6u);
}

TEST(EventQueue, HeapBeforeBucketAtSameInstant) {
  // An event scheduled for time T before time advances (heap) must precede
  // one scheduled at T when now == T (bucket): seq order.
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(10, {EventRec::Kind::Inject, 1});
  queue.schedule_at(10, {EventRec::Kind::Inject, 3});
  EventRec ev;
  while (queue.poll(20, ev)) {
    order.push_back(static_cast<int>(ev.a));
    if (ev.a == 1) queue.schedule_at(10, {EventRec::Kind::Inject, 2});
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(queue.now(), 20u);
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  EventQueue queue;
  queue.schedule_at(100, {EventRec::Kind::Inject, 0});
  EventRec ev;
  while (queue.poll(200, ev)) {
  }
  EXPECT_EQ(queue.now(), 200u);
#ifdef NDEBUG
  EXPECT_THROW(queue.schedule_at(50, {EventRec::Kind::Inject, 1}),
               std::logic_error);
#endif
}

// ---------------------------------------------------------------------------
// CompiledModel
// ---------------------------------------------------------------------------

namespace {

tutmac::System make_tutmac(Time horizon) {
  tutmac::Options opt;
  opt.horizon = horizon;
  return tutmac::build(opt);
}

FaultPlan stress_plan() {
  FaultPlan plan;
  plan.seed = 7;
  plan.pe_faults.push_back({"processor2", 400'000, 900'000});
  plan.segment_faults.push_back({"hibisegment1", 600'000, 700'000});
  plan.bit_errors.push_back({"hibisegment2", 20'000});
  SignalFault sf;
  sf.kind = SignalFault::Kind::Lost;
  sf.process = "rca";
  sf.start = 1'000'000;
  sf.end = 1'200'000;
  plan.signal_faults.push_back(sf);
  plan.watchdog_timeout = 5'000'000;
  return plan;
}

}  // namespace

TEST(CompiledModel, LowersTutmacStructure) {
  const auto sys = make_tutmac(1'000'000);
  mapping::SystemView view(*sys.model);
  const auto model = CompiledModel::build(view);
  EXPECT_EQ(model->pes().size(), view.plat().instances().size());
  EXPECT_EQ(model->segs().size(), view.plat().segments().size());
  EXPECT_EQ(model->procs().size(), view.app().processes().size());
  EXPECT_GE(model->proc_index("rca"), 0);
  EXPECT_GE(model->pe_index("processor1"), 0);
  EXPECT_EQ(model->proc_index("nosuch"), -1);
  for (const auto& proc : model->procs()) {
    ASSERT_NE(proc.machine, nullptr) << proc.name;
    EXPECT_EQ(&proc.machine->source(), proc.behavior) << proc.name;
  }
  // Processes on distinct PEs have a route.
  const auto& crc = model->procs()[model->proc_index("crc")];
  const auto& rca = model->procs()[model->proc_index("rca")];
  ASSERT_NE(crc.home_pe, rca.home_pe);
  EXPECT_FALSE(model->route(rca.home_pe, crc.home_pe).empty());
}

// ---------------------------------------------------------------------------
// Golden TUTMAC logs and statistics
// ---------------------------------------------------------------------------
//
// The digests, sizes and statistics below were recorded from the reference
// AST walker that used to back Simulation(SystemView), when it was checked
// byte for byte against the bytecode interpreter. They pin the interpreter
// now that it is the only one; the native backend is held to the
// interpreter by test_native.

namespace {

struct Golden {
  std::uint64_t digest;
  std::size_t bytes;
  std::size_t records;
  std::uint64_t events;
};

/// Runs the TUTMAC workload on `simulation` and checks its log against
/// `golden`; returns the rendered log.
std::string run_checked(const tutmac::System& sys, Simulation& simulation,
                        const Golden& golden) {
  sys.inject_workload(simulation);
  simulation.run();
  const std::string text = simulation.log().to_text();
  EXPECT_EQ(log_digest(simulation.log()), golden.digest);
  EXPECT_EQ(text.size(), golden.bytes);
  EXPECT_EQ(simulation.log().size(), golden.records);
  EXPECT_EQ(simulation.events_dispatched(), golden.events);
  return text;
}

/// Both constructors (SystemView and shared CompiledModel) reproduce the
/// golden log, byte-identical to each other.
void expect_golden(Time horizon, const FaultPlan& plan, const Golden& golden) {
  const auto sys = make_tutmac(horizon);
  mapping::SystemView view(*sys.model);
  Config config;
  config.horizon = sys.options.horizon;
  config.faults = plan;

  Simulation from_view(view, config);
  const std::string a = run_checked(sys, from_view, golden);
  Simulation from_model(CompiledModel::build(view), config);
  const std::string b = run_checked(sys, from_model, golden);
  EXPECT_EQ(a, b);
}

struct PeGolden {
  const char* name;
  Time busy_time;
  std::uint64_t steps;
  std::uint64_t dispatched;
};

struct SegGolden {
  const char* name;
  std::uint64_t grants;
  std::uint64_t transfers;
  Time busy_time;
};

void expect_stats(const Simulation& simulation,
                  const std::vector<PeGolden>& pes,
                  const std::vector<SegGolden>& segs) {
  ASSERT_EQ(simulation.pe_stats().size(), pes.size());
  for (const PeGolden& g : pes) {
    const PeStats& s = simulation.pe_stats().at(g.name);
    EXPECT_EQ(s.busy_time, g.busy_time) << g.name;
    EXPECT_EQ(s.steps, g.steps) << g.name;
    EXPECT_EQ(s.dispatched, g.dispatched) << g.name;
  }
  ASSERT_EQ(simulation.segment_stats().size(), segs.size());
  for (const SegGolden& g : segs) {
    const SegmentStats& s = simulation.segment_stats().at(g.name);
    EXPECT_EQ(s.grants, g.grants) << g.name;
    EXPECT_EQ(s.transfers, g.transfers) << g.name;
    EXPECT_EQ(s.busy_time, g.busy_time) << g.name;
  }
}

}  // namespace

TEST(CompiledSim, TutmacLogByteIdentical) {
  expect_golden(3'000'000, FaultPlan{},
                {0x75a6444701943260ull, 3114, 116, 75});
  expect_golden(20'000'000, FaultPlan{},
                {0xc0f58b9cc41bb102ull, 28676, 1008, 662});
}

TEST(CompiledSim, TutmacLogByteIdenticalUnderFaults) {
  expect_golden(3'000'000, stress_plan(),
                {0xc687dc9dc81ed8f7ull, 3085, 116, 74});
  expect_golden(20'000'000, stress_plan(),
                {0xeb232cba74f342bdull, 28703, 1011, 694});
}

TEST(CompiledSim, StatsMatchAstPath) {
  {
    const auto sys = make_tutmac(2'000'000);
    mapping::SystemView view(*sys.model);
    Simulation simulation(view, Config{.horizon = sys.options.horizon});
    sys.inject_workload(simulation);
    simulation.run();
    EXPECT_EQ(simulation.events_dispatched(), 48u);
    expect_stats(simulation,
                 {{"accelerator1", 0, 1, 1},
                  {"processor1", 1'512'000, 26, 26},
                  {"processor2", 0, 2, 2},
                  {"processor3", 0, 0, 0}},
                 {{"bridge", 0, 0, 0},
                  {"hibisegment1", 0, 0, 0},
                  {"hibisegment2", 0, 0, 0}});
  }
  // Long enough for inter-PE traffic on every segment, under the fault
  // plan (retries show up as grants without a completed transfer).
  const auto sys = make_tutmac(20'000'000);
  mapping::SystemView view(*sys.model);
  Config config;
  config.horizon = sys.options.horizon;
  config.faults = stress_plan();
  Simulation simulation(CompiledModel::build(view), config);
  sys.inject_workload(simulation);
  simulation.run();
  expect_stats(simulation,
               {{"accelerator1", 12'000, 9, 9},
                {"processor1", 16'188'000, 294, 294},
                {"processor2", 750'000, 27, 27},
                {"processor3", 0, 0, 0}},
               {{"bridge", 16, 16, 1'760},
                {"hibisegment1", 66, 41, 10'260},
                {"hibisegment2", 17, 16, 1'800}});
}

TEST(CompiledSim, InstanceAccessorReadsInterpreterState) {
  const auto sys = make_tutmac(100'000);
  mapping::SystemView view(*sys.model);
  Simulation simulation(CompiledModel::build(view), Config{});
  EXPECT_FALSE(simulation.instance("rca").started());
  simulation.run();
  const efsm::CompiledInstance& rca = simulation.instance("rca");
  EXPECT_TRUE(rca.started());
  EXPECT_FALSE(rca.state_name().empty());
  EXPECT_THROW((void)simulation.instance("nosuch"), std::out_of_range);
}

// ---------------------------------------------------------------------------
// BatchRunner
// ---------------------------------------------------------------------------

namespace {

std::vector<BatchScenario> make_scenarios(const tutmac::System& sys,
                                          std::size_t count) {
  std::vector<BatchScenario> scenarios;
  for (std::size_t i = 0; i < count; ++i) {
    BatchScenario s;
    s.name = "seed" + std::to_string(i);
    s.config.horizon = sys.options.horizon;
    if (i % 2 == 1) {
      s.config.faults = stress_plan();
      s.config.faults.seed = i;
    }
    s.setup = [&sys](Simulation& sim) { sys.inject_workload(sim); };
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

}  // namespace

TEST(BatchRunner, DeterministicAcrossThreadCounts) {
  const auto sys = make_tutmac(1'500'000);
  mapping::SystemView view(*sys.model);
  const auto model = CompiledModel::build(view);
  const auto scenarios = make_scenarios(sys, 6);

  std::vector<std::vector<BatchResult>> runs;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    BatchOptions options;
    options.threads = threads;
    runs.push_back(BatchRunner(model, options).run(scenarios));
  }
  for (std::size_t t = 1; t < runs.size(); ++t) {
    ASSERT_EQ(runs[t].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[t][i].name, runs[0][i].name);
      EXPECT_EQ(runs[t][i].log_hash, runs[0][i].log_hash) << i;
      EXPECT_EQ(runs[t][i].events, runs[0][i].events) << i;
      EXPECT_EQ(runs[t][i].records, runs[0][i].records) << i;
      EXPECT_TRUE(runs[t][i].error.empty()) << runs[t][i].error;
    }
  }
  // Faulted and fault-free scenarios produce distinct logs (the batch is
  // not trivially hashing empty or identical logs).
  EXPECT_NE(runs[0][0].log_hash, runs[0][1].log_hash);
}

TEST(BatchRunner, MatchesSingleSimulationLog) {
  const auto sys = make_tutmac(1'000'000);
  mapping::SystemView view(*sys.model);
  const auto model = CompiledModel::build(view);

  Config config;
  config.horizon = sys.options.horizon;
  Simulation simulation(model, config);
  sys.inject_workload(simulation);
  simulation.run();
  const std::string direct = simulation.log().to_text();

  BatchScenario scenario;
  scenario.name = "only";
  scenario.config = config;
  scenario.setup = [&sys](Simulation& sim) { sys.inject_workload(sim); };
  BatchOptions options;
  options.threads = 1;
  options.keep_logs = true;
  const auto results = BatchRunner(model, options).run({scenario});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].error.empty()) << results[0].error;
  EXPECT_EQ(results[0].log_text, direct);
  EXPECT_EQ(results[0].log_hash, log_digest(simulation.log()));
}

TEST(BatchRunner, ReportsScenarioErrorsWithoutThrowing) {
  const auto sys = make_tutmac(100'000);
  mapping::SystemView view(*sys.model);
  const auto model = CompiledModel::build(view);

  BatchScenario bad;
  bad.name = "bad-plan";
  bad.config.horizon = 100'000;
  bad.config.faults.pe_faults.push_back({"nosuch_pe", 10, 20});
  const auto results = BatchRunner(model, BatchOptions{1, false}).run({bad});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].error.find("unknown component instance"),
            std::string::npos)
      << results[0].error;
  EXPECT_EQ(results[0].events, 0u);
}
