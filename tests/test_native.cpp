// Lockstep tests for the native code-generation backend: a generated
// NativeImage must be indistinguishable from the bytecode interpreter —
// per-step StepResult equality, identical exception types and messages,
// byte-identical SimulationLogs on TUTMAC (with and without fault plans)
// and byte-identical campaign aggregates across thread counts. Every test
// that needs a C++ compiler skips with a notice when none is installed.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "codegen/native.hpp"
#include "efsm/machine.hpp"
#include "efsm/program.hpp"
#include "fixtures.hpp"
#include "sim/batch.hpp"
#include "sim/campaign.hpp"
#include "sim/compiled.hpp"
#include "sim/simulator.hpp"
#include "tutmac/tutmac.hpp"

using namespace tut;

namespace {

#define REQUIRE_COMPILER()                            \
  if (codegen::NativeImage::find_compiler().empty()) \
  GTEST_SKIP() << "no C++ compiler on this host"

std::string describe(const efsm::StepResult& r) {
  std::string out = "fired=" + std::to_string(r.fired) +
                    " cycles=" + std::to_string(r.compute_cycles) +
                    " taken=" + std::to_string(r.transitions_taken);
  for (const efsm::Send& s : r.sends) {
    out += " send(" + s.port + "," +
           (s.signal != nullptr ? s.signal->name() : "?");
    for (const long a : s.args) out += "," + std::to_string(a);
    out += ")";
  }
  for (const efsm::TimerOp& t : r.timers) {
    out += t.kind == efsm::TimerOp::Kind::Set
               ? " set(" + t.name + "," + std::to_string(t.delay) + ")"
               : " reset(" + t.name + ")";
  }
  return out;
}

/// Exception type + message, or "ok" — so both backends' failure behaviour
/// can be compared as strings.
template <typename F>
std::string outcome(F&& f) {
  try {
    f();
    return "ok";
  } catch (const efsm::EvalError& e) {
    return std::string("EvalError: ") + e.what();
  } catch (const efsm::LivelockError& e) {
    return std::string("LivelockError: ") + e.what();
  } catch (const std::out_of_range& e) {
    return std::string("out_of_range: ") + e.what();
  } catch (const std::logic_error& e) {
    return std::string("logic_error: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

std::uint32_t proc_index(const sim::CompiledModel& model,
                         const std::string& name) {
  for (std::uint32_t i = 0; i < model.procs().size(); ++i) {
    if (model.procs()[i].name == name) return i;
  }
  ADD_FAILURE() << "no process '" << name << "'";
  return 0;
}

/// MiniSystem lowered once and wrapped in a native image; shared because
/// each image build shells out to the compiler. The SystemView must outlive
/// the CompiledModel (it is borrowed), hence the unique_ptr member.
struct MiniNative {
  test::MiniSystem sys;
  std::unique_ptr<mapping::SystemView> view;
  std::shared_ptr<const sim::CompiledModel> model;
  std::shared_ptr<const codegen::NativeImage> image;

  MiniNative() {
    view = std::make_unique<mapping::SystemView>(sys.model);
    model = sim::CompiledModel::build(*view);
    image = codegen::NativeImage::build(model);
  }
};

MiniNative& mini() {
  static MiniNative* m = new MiniNative();  // leaked: image dlclose at exit
  return *m;
}

/// Drives the bytecode interpreter and the native image in lock step,
/// asserting identical StepResults, states and failure messages after
/// every operation.
struct NativeLockStep {
  efsm::CompiledInstance code;
  codegen::NativeInstance native;

  NativeLockStep(const MiniNative& m, const std::string& proc)
      : NativeLockStep(*m.model, m.image, proc_index(*m.model, proc)) {}
  NativeLockStep(const sim::CompiledModel& model,
                 const std::shared_ptr<const codegen::NativeImage>& image,
                 std::uint32_t proc)
      : code(*model.procs()[proc].machine, model.procs()[proc].name),
        native(image, image->source().proc_machine[proc],
               model.procs()[proc].name) {}

  void start() { check("start", [&] { return code.start(); },
                       [&] { return native.start(); }); }
  void reset() { check("reset", [&] { return code.reset(); },
                       [&] { return native.reset(); }); }
  void deliver(const efsm::Event& e) {
    check("deliver", [&] { return code.deliver(e); },
          [&] { return native.deliver(e); });
  }
  void timer(const std::string& t) {
    check("timer " + t, [&] { return code.timer_fired(t); },
          [&] { return native.timer_fired(t); });
  }
  void rewind() {
    code.rewind();
    native.rewind();
    compare_state("rewind");
  }
  void variable(const std::string& name) {
    std::string a = outcome([&] { (void)code.variable(name); });
    std::string b = outcome([&] { (void)native.variable(name); });
    EXPECT_EQ(a, b) << "variable " << name;
    if (a == "ok") {
      EXPECT_EQ(code.variable(name), native.variable(name)) << name;
    }
  }

  template <typename A, typename B>
  void check(const std::string& what, A&& a, B&& b) {
    std::string sa, sb;
    const std::string ra = outcome([&] { sa = describe(a()); });
    const std::string rb = outcome([&] { sb = describe(b()); });
    EXPECT_EQ(ra, rb) << what;
    if (ra == "ok") {
      EXPECT_EQ(sa, sb) << what;
    }
    compare_state(what);
  }

  void compare_state(const std::string& what) {
    EXPECT_EQ(code.started(), native.started()) << what;
    EXPECT_EQ(code.state_name(), native.state_name()) << what;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Per-step lockstep on the MiniSystem machines
// ---------------------------------------------------------------------------

TEST(NativeLockstep, ControllerTimersAndSends) {
  REQUIRE_COMPILER();
  MiniNative& m = mini();
  NativeLockStep ls(m, "ctrl");
  ls.start();                              // entry: set_timer tick
  ls.timer("tick");                        // Idle -> Tx: compute + send Req
  ls.timer("tick");                        // Tx -> Tx self-loop
  ls.deliver({m.sys.req, "out", {3}});     // no matching trigger
  ls.deliver({m.sys.rsp, "out", {0}});     // Tx -> Idle
  ls.timer("zzz");                         // unknown timer: discarded
  ls.timer("");                            // completion poll: none pending
  ls.reset();                              // restart from Idle
  ls.timer("tick");
  ls.rewind();                             // back to not-started
  ls.start();
}

TEST(NativeLockstep, DspVariablesAndParamOverlay) {
  REQUIRE_COMPILER();
  MiniNative& m = mini();
  NativeLockStep ls(m, "dsp1");
  ls.start();
  ls.variable("n");
  ls.deliver({m.sys.req, "in", {5}});      // compute 400*5, n+=1, forward
  ls.deliver({m.sys.req, "in", {}});       // missing arg defaults to 0
  ls.variable("n");
  ls.deliver({m.sys.rsp, "hw", {0}});      // hw answer path
  ls.deliver({m.sys.req, "hw", {1}});      // wrong port: no trigger
  ls.variable("n");
  ls.variable("nosuch");                   // out_of_range on both
  ls.reset();
  ls.variable("n");                        // back to declared initial
  ls.deliver({m.sys.req, "in", {2}});
  ls.variable("n");
}

TEST(NativeLockstep, CrcAndErrorsBeforeStart) {
  REQUIRE_COMPILER();
  MiniNative& m = mini();
  NativeLockStep ls(m, "crc");
  // Stepping a not-started instance throws the same logic_error on both
  // backends (message includes the instance name).
  ls.deliver({m.sys.req, "in", {4}});
  ls.timer("t");
  ls.start();
  ls.deliver({m.sys.req, "in", {4}});      // compute 8*4, answer Rsp(1)
  ls.deliver({m.sys.rsp, "in", {0}});      // provided-direction mismatch
}

TEST(NativeLockstep, EvalErrorsMatchInterpreter) {
  REQUIRE_COMPILER();
  // A MiniSystem variant whose Controller grows failing transitions: a
  // division/modulo the delivered argument can zero, and a guard over an
  // undeclared identifier. Exception types and messages must match the
  // interpreter's exactly.
  test::MiniSystem sys;
  auto& csm = *sys.ctrl_comp->behavior();
  uml::State& idle = *csm.states()[0];
  uml::State& tx = *csm.states()[1];
  sys.model.add_transition(csm, idle, idle, *sys.req, "out")
      .add_effect(uml::Action::compute("100 / len"));
  sys.model.add_transition(csm, idle, idle, *sys.rsp, "out")
      .add_effect(uml::Action::compute("7 % status"));
  sys.model.add_transition(csm, tx, tx, *sys.req, "out")
      .set_guard("ghost > 0");

  mapping::SystemView view(sys.model);
  const auto model = sim::CompiledModel::build(view);
  const auto image = codegen::NativeImage::build(model);

  NativeLockStep ls(*model, image, proc_index(*model, "ctrl"));
  ls.start();
  ls.deliver({sys.req, "out", {4}});   // 100 / 4: fires cleanly
  ls.deliver({sys.req, "out", {0}});   // division by zero on both backends
  ls.deliver({sys.rsp, "out", {0}});   // modulo by zero on both backends
  ls.deliver({sys.req, "out", {5}});   // recovered identically
  ls.timer("tick");                    // Idle -> Tx
  ls.deliver({sys.req, "out", {1}});   // guard: unknown identifier 'ghost'
  ls.deliver({sys.rsp, "out", {0}});   // Tx -> Idle still works after
}

// ---------------------------------------------------------------------------
// Full-log byte-identity on TUTMAC
// ---------------------------------------------------------------------------

namespace {

const tutmac::System& shared_tutmac() {
  static tutmac::System sys = [] {
    tutmac::Options opt;
    opt.horizon = 2'000'000;
    return tutmac::build(opt);
  }();
  return sys;
}

std::shared_ptr<const sim::CompiledModel> shared_tutmac_model() {
  static auto model = [] {
    static mapping::SystemView view(*shared_tutmac().model);
    return sim::CompiledModel::build(view);
  }();
  return model;
}

std::shared_ptr<const codegen::NativeImage> shared_tutmac_image() {
  static auto image = codegen::NativeImage::build(shared_tutmac_model());
  return image;
}

sim::FaultPlan degraded_plan() {
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.watchdog_timeout = 300'000;
  plan.max_retries = 2;
  plan.retry_backoff = 150;
  plan.pe_faults.push_back({"processor2", 200'000, 900'000});
  plan.bit_errors.push_back({"hibisegment1", 20'000});
  return plan;
}

}  // namespace

TEST(NativeBackend, TutmacLogByteIdentical) {
  REQUIRE_COMPILER();
  sim::Config config;
  config.horizon = 2'000'000;

  sim::Simulation interp(shared_tutmac_model(), config);
  shared_tutmac().inject_workload(interp);
  interp.run();

  sim::Simulation native(shared_tutmac_image(), config);
  shared_tutmac().inject_workload(native);
  native.run();

  EXPECT_EQ(interp.log().to_text(), native.log().to_text());
  EXPECT_EQ(interp.events_dispatched(), native.events_dispatched());
  // Only the interpreter's process state is inspectable.
  EXPECT_TRUE(interp.instance("rca").started());
  EXPECT_THROW((void)native.instance("rca"), std::logic_error);
  EXPECT_THROW((void)native.instance("nosuch"), std::out_of_range);
}

TEST(NativeBackend, TutmacFaultPlanLogByteIdentical) {
  REQUIRE_COMPILER();
  sim::Config config;
  config.horizon = 2'000'000;
  config.faults = degraded_plan();

  sim::Simulation interp(shared_tutmac_model(), config);
  shared_tutmac().inject_workload(interp);
  interp.run();

  sim::Simulation native(shared_tutmac_image(), config);
  shared_tutmac().inject_workload(native);
  native.run();

  ASSERT_FALSE(interp.log().to_text().empty());
  EXPECT_EQ(interp.log().to_text(), native.log().to_text());
}

TEST(NativeBackend, SimulationResetStaysByteIdentical) {
  REQUIRE_COMPILER();
  // One native context reused across runs must keep reproducing the fresh
  // log (the batch/campaign runners depend on reset semantics).
  sim::Config config;
  config.horizon = 2'000'000;
  sim::Simulation fresh(shared_tutmac_image(), config);
  shared_tutmac().inject_workload(fresh);
  fresh.run();
  const std::string expected = fresh.log().to_text();

  sim::Simulation reused(shared_tutmac_image(), config);
  for (int round = 0; round < 3; ++round) {
    if (round > 0) reused.reset(config);
    shared_tutmac().inject_workload(reused);
    reused.run();
    EXPECT_EQ(reused.log().to_text(), expected) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Batch and campaign integration
// ---------------------------------------------------------------------------

TEST(NativeBackend, BatchHashesAndProvenance) {
  REQUIRE_COMPILER();
  MiniNative& m = mini();
  std::vector<sim::BatchScenario> scenarios(3);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    scenarios[i].name = "s" + std::to_string(i);
    scenarios[i].config.horizon = 50'000;
    scenarios[i].config.faults.seed = i;
  }
  sim::BatchOptions options;
  options.threads = 2;
  const auto interp = sim::BatchRunner(m.model, options).run(scenarios);
  const auto native = sim::BatchRunner(m.image, options).run(scenarios);
  ASSERT_EQ(interp.size(), native.size());
  for (std::size_t i = 0; i < interp.size(); ++i) {
    EXPECT_EQ(interp[i].error, "");
    EXPECT_EQ(native[i].error, "");
    EXPECT_EQ(interp[i].log_hash, native[i].log_hash) << i;
    EXPECT_EQ(interp[i].events, native[i].events) << i;
    EXPECT_EQ(interp[i].backend, "interpreter");
    EXPECT_EQ(interp[i].image_hash, 0u);
    EXPECT_EQ(native[i].backend, "native");
    EXPECT_EQ(native[i].image_hash, m.image->content_hash());
  }
}

TEST(NativeBackend, CampaignAggregateMatchesAcrossBackendsAndThreads) {
  REQUIRE_COMPILER();
  sim::CampaignSpec spec;
  spec.name = "native-lockstep";
  spec.base.horizon = 2'000'000;
  spec.base_seed = 42;
  spec.plans.emplace_back("deg", degraded_plan());
  spec.axes.push_back({"seed", {0, 1, 2}});
  spec.axes.push_back({"slotPeriod", {50'000, 100'000}});
  spec.axes.push_back({"plan", {0, 1}});

  const auto setup = [](sim::Simulation& simulation,
                        const sim::Scenario& sc) {
    const tutmac::System& sys = shared_tutmac();
    tutmac::Options o = sys.options;
    o.horizon = simulation.config().horizon;
    o.slot_period = static_cast<sim::Time>(
        sc.param("slotPeriod", static_cast<long>(o.slot_period)));
    sys.inject_workload(simulation, o);
  };

  const sim::CampaignRunner interp({shared_tutmac_model()}, setup);
  const sim::CampaignRunner native({std::shared_ptr<const sim::BackendImage>(
                                       shared_tutmac_image())},
                                   setup);

  sim::CampaignOptions opt;
  opt.threads = 1;
  const std::string baseline = interp.run(spec, opt).aggregate.serialize();

  for (const std::size_t threads : {1u, 2u, 4u}) {
    sim::CampaignOptions nopt;
    nopt.threads = threads;
    std::vector<std::uint64_t> provenance;
    nopt.on_summary = [&provenance](const sim::ScenarioSummary& s) {
      provenance.push_back(s.backend);
    };
    const sim::CampaignResult result = native.run(spec, nopt);
    EXPECT_EQ(result.aggregate.serialize(), baseline)
        << "threads=" << threads;
    ASSERT_EQ(provenance.size(), spec.total());
    for (const std::uint64_t p : provenance) {
      EXPECT_EQ(p, shared_tutmac_image()->content_hash());
    }
  }

  // Interpreter summaries carry provenance 0 (no image).
  sim::CampaignOptions iopt;
  iopt.threads = 2;
  std::uint64_t max_backend = 0;
  iopt.on_summary = [&max_backend](const sim::ScenarioSummary& s) {
    max_backend = std::max(max_backend, s.backend);
  };
  EXPECT_EQ(interp.run(spec, iopt).aggregate.serialize(), baseline);
  EXPECT_EQ(max_backend, 0u);
}

// ---------------------------------------------------------------------------
// Emission and cache behaviour
// ---------------------------------------------------------------------------

TEST(NativeEmit, DeterministicAndStructured) {
  // No compiler needed: emission is pure. Equal models must emit equal
  // sources (the content-addressed cache depends on it).
  test::MiniSystem sys_a;
  mapping::SystemView view_a(sys_a.model);
  const auto model_a = sim::CompiledModel::build(view_a);
  test::MiniSystem sys_b;
  mapping::SystemView view_b(sys_b.model);
  const auto model_b = sim::CompiledModel::build(view_b);

  const codegen::NativeSource a = codegen::emit_native(*model_a);
  const codegen::NativeSource b = codegen::emit_native(*model_b);
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.proc_machine.size(), model_a->procs().size());
  // dsp1/dsp2 share the DspFilter behaviour: 4 processes, 3 machines.
  EXPECT_EQ(a.machines.size(), 3u);
  EXPECT_EQ(a.proc_machine[proc_index(*model_a, "dsp1")],
            a.proc_machine[proc_index(*model_a, "dsp2")]);
  EXPECT_NE(a.code.find("tut_native_v1_deliver"), std::string::npos);
  EXPECT_NE(a.code.find("tut_native_v1_abi"), std::string::npos);
}

TEST(NativeEmit, RangeFactsElideProvenDivisionChecks) {
  // m is constant 5, so the value-range analysis proves the divisor nonzero
  // and the emitted program carries an unguarded division — no ChkDiv trap
  // (tn_fail(3, ...)) anywhere in the source.
  test::MiniSystem sys;
  auto& dsm = *sys.dsp_comp->behavior();
  auto& idle = *dsm.states()[0];
  dsm.declare_variable("m", 5);
  sys.model.add_transition(dsm, idle, idle, *sys.rsp, "in")
      .add_effect(uml::Action::compute("100 / m"));
  mapping::SystemView view(sys.model);
  const auto model = sim::CompiledModel::build(view);
  const codegen::NativeSource src = codegen::emit_native(*model);
  EXPECT_NE(src.code.find(" / "), std::string::npos);
  EXPECT_EQ(src.code.find("tn_fail(3"), std::string::npos) << src.code;
}

TEST(NativeEmit, UnprovenDivisorKeepsTheCheck) {
  // n is [0, +inf) at rest: the divisor range contains 0, the check stays.
  test::MiniSystem sys;
  auto& dsm = *sys.dsp_comp->behavior();
  auto& idle = *dsm.states()[0];
  sys.model.add_transition(dsm, idle, idle, *sys.rsp, "in")
      .add_effect(uml::Action::compute("100 / n"));
  mapping::SystemView view(sys.model);
  const auto model = sim::CompiledModel::build(view);
  const codegen::NativeSource src = codegen::emit_native(*model);
  EXPECT_NE(src.code.find("tn_fail(3"), std::string::npos);
}

TEST(NativeLockstep, ElidedChecksAndFoldedGuardsStayInvisible) {
  REQUIRE_COMPILER();
  // Range-dead guard (n < 0 is pruned), range-true guard (n >= 0 is
  // folded), and an elidable division — the native image must still be
  // step-for-step identical to the interpreter.
  test::MiniSystem sys;
  auto& dsm = *sys.dsp_comp->behavior();
  auto& idle = *dsm.states()[0];
  auto& cold = sys.model.add_state(dsm, "Cold");
  dsm.declare_variable("m", 5);
  sys.model.add_transition(dsm, idle, cold, *sys.rsp, "in")
      .set_guard("n < 0");
  sys.model.add_transition(dsm, idle, idle, *sys.rsp, "in")
      .set_guard("n >= 0")
      .add_effect(uml::Action::compute("100 / m"))
      .add_effect(uml::Action::assign("n", "n + 2"));
  auto view = std::make_unique<mapping::SystemView>(sys.model);
  const auto model = sim::CompiledModel::build(*view);
  const auto image = codegen::NativeImage::build(model);
  NativeLockStep ls(*model, image, proc_index(*model, "dsp1"));
  ls.start();
  ls.variable("n");
  ls.deliver({sys.rsp, "in", {0}});  // dead guard skipped, folded guard fires
  ls.variable("n");
  ls.deliver({sys.req, "in", {5}});  // the fixture's own n + 1 path
  ls.deliver({sys.rsp, "in", {1}});
  ls.variable("n");
  ls.variable("m");
  EXPECT_EQ(ls.code.state_name(), "Idle");  // Cold was never entered
}

TEST(NativeImage, ContentHashedCacheHitsOnRebuild) {
  REQUIRE_COMPILER();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "tut-native-test-cache";
  std::filesystem::remove_all(dir);

  codegen::NativeOptions opt;
  opt.cache_dir = dir.string();
  const auto first = codegen::NativeImage::build(mini().model, opt);
  EXPECT_FALSE(first->cache_hit());
  const auto second = codegen::NativeImage::build(mini().model, opt);
  EXPECT_TRUE(second->cache_hit());
  EXPECT_EQ(first->content_hash(), second->content_hash());
  EXPECT_EQ(first->library_path(), second->library_path());
  EXPECT_TRUE(std::filesystem::exists(first->library_path()));

  std::filesystem::remove_all(dir);
}
