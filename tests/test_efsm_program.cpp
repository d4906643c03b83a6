// Tests for the compiled EFSM path: Program bytecode vs Expr AST
// equivalence (values, laziness, error precedence and messages) and
// CompiledInstance step sequences over whole machines, pinned as golden
// values.
#include <gtest/gtest.h>

#include "efsm/expr.hpp"
#include "efsm/program.hpp"
#include "uml/model.hpp"

using namespace tut;
using namespace tut::efsm;

namespace {

/// Compiles `text` against the identifiers of `env` and runs it.
long run_program(const std::string& text, const Env& env) {
  const Expr expr = Expr::compile(text);
  Program::SlotMap slot_map;
  std::vector<long> values;
  std::vector<std::uint8_t> defined;
  std::vector<std::string> names;
  for (const auto& [name, value] : env) {
    slot_map.emplace(name, static_cast<std::uint16_t>(values.size()));
    names.push_back(name);
    values.push_back(value);
    defined.push_back(1);
  }
  const Program program = Program::compile(expr, slot_map);
  std::vector<long> regs(program.reg_count());
  return program.run({values.data(), defined.data(), &names}, regs.data());
}

/// The AST result, or the EvalError message.
std::string ast_outcome(const std::string& text, const Env& env) {
  try {
    return std::to_string(Expr::compile(text).eval(env));
  } catch (const EvalError& e) {
    return std::string("EvalError: ") + e.what();
  }
}

/// The bytecode result, or the EvalError message.
std::string program_outcome(const std::string& text, const Env& env) {
  try {
    return std::to_string(run_program(text, env));
  } catch (const EvalError& e) {
    return std::string("EvalError: ") + e.what();
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Program vs Expr
// ---------------------------------------------------------------------------

TEST(Program, MatchesAstOnExpressionCorpus) {
  const Env env{{"a", 7}, {"b", 3}, {"len", 12}, {"x", 0}, {"_u2", 5}};
  const char* corpus[] = {
      "42",
      "a",
      "_u2",
      "a + b - 2",
      "2 + 3 * 4",
      "(2 + 3) * 4",
      "a / b + a % b",
      "-a + 10",
      "--a",
      "!x",
      "!a",
      "a == 7",
      "a != 7",
      "b < a",
      "a <= 7",
      "a > 7",
      "a >= 8",
      "a > 0 && b > 0",
      "a > 0 && x > 0",
      "a > 0 || 1 / x",      // short-circuit skips the division
      "x > 0 && 1 / x",
      "a > b ? 100 : 200",
      "a < b ? 100 : 200",
      "x ? 1 : a ? 2 : 3",
      "400 * len + 2",
      "1 + 2 == 3",
      "x ? 1 / x : a",       // lazy arm never evaluated
      "(a && b) + (x || len)",
      "-(a - b) * -(b - a)",
      "a % 2 == 1 && b % 2 == 1",
  };
  for (const char* text : corpus) {
    EXPECT_EQ(program_outcome(text, env), ast_outcome(text, env)) << text;
  }
}

TEST(Program, ErrorMessagesAndPrecedenceMatchAst) {
  const Env env{{"a", 1}, {"x", 0}};
  // Division by zero, modulo by zero, unknown identifier — and the order in
  // which two possible errors surface (the AST evaluates the divisor first).
  const char* corpus[] = {
      "1 / x",
      "1 % x",
      "nosuch",
      "nosuch / x",      // divisor x==0 wins: division by zero, not unknown
      "x / nosuch",      // divisor evaluated first: unknown identifier
      "1 / (a - 1)",
      "x && nosuch",     // short-circuit: no error, value 0
      "a || nosuch",     // short-circuit: no error, value 1
      "x ? nosuch : 5",  // lazy arm: no error
  };
  for (const char* text : corpus) {
    EXPECT_EQ(program_outcome(text, env), ast_outcome(text, env)) << text;
  }
}

TEST(Program, MissingSlotThrowsLazily) {
  // An identifier absent from the slot map compiles to a Missing op that
  // only throws when reached.
  const Expr expr = Expr::compile("x > 0 && ghost");
  Program::SlotMap slot_map{{"x", 0}};
  const Program program = Program::compile(expr, slot_map);
  const std::vector<std::string> names{"x"};
  std::vector<long> regs(program.reg_count());

  const long x_zero[] = {0};
  const std::uint8_t defined[] = {1};
  EXPECT_EQ(program.run({x_zero, defined, &names}, regs.data()), 0);

  const long x_one[] = {1};
  try {
    (void)program.run({x_one, defined, &names}, regs.data());
    FAIL() << "expected EvalError";
  } catch (const EvalError& e) {
    EXPECT_STREQ(e.what(), "unknown identifier 'ghost'");
  }
}

TEST(Program, UndefinedSlotReadsAsUnknownIdentifier) {
  const Expr expr = Expr::compile("v + 1");
  Program::SlotMap slot_map{{"v", 0}};
  const Program program = Program::compile(expr, slot_map);
  const std::vector<std::string> names{"v"};
  std::vector<long> regs(program.reg_count());
  const long values[] = {41};

  const std::uint8_t undef[] = {0};
  try {
    (void)program.run({values, undef, &names}, regs.data());
    FAIL() << "expected EvalError";
  } catch (const EvalError& e) {
    EXPECT_STREQ(e.what(), "unknown identifier 'v'");
  }

  const std::uint8_t def[] = {1};
  EXPECT_EQ(program.run({values, def, &names}, regs.data()), 42);
}

// ---------------------------------------------------------------------------
// CompiledInstance golden step sequences
// ---------------------------------------------------------------------------

namespace {

/// The counter machine of test_efsm.cpp: parameters, guards, entry sends,
/// completion transitions and dynamic variables.
struct CounterModel {
  uml::Model model{"counter"};
  uml::Signal* inc;
  uml::Signal* get;
  uml::Signal* result;
  uml::StateMachine* sm;

  CounterModel() {
    inc = &model.create_signal("Inc");
    inc->add_parameter("step", "int");
    get = &model.create_signal("Get");
    result = &model.create_signal("Result");
    result->add_parameter("value", "int");

    auto& cls = model.create_class("Counter", nullptr, true);
    model.add_port(cls, "in").provide(*inc).provide(*get);
    model.add_port(cls, "out").require(*result);

    sm = &model.create_behavior(cls);
    sm->declare_variable("n", 0);
    auto& idle = model.add_state(*sm, "Idle", true);
    auto& report = model.add_state(*sm, "Report");
    report.on_entry(uml::Action::send("out", *result, {"n"}));

    model.add_transition(*sm, idle, idle, *inc, "in")
        .add_effect(uml::Action::assign("n", "n + step"))
        .add_effect(uml::Action::compute("10"));
    model.add_transition(*sm, idle, report, *get, "in").set_guard("n >= 3");
    model.add_transition(*sm, report, idle)
        .add_effect(uml::Action::assign("n", "0"));
  }
};

std::string describe(const StepResult& r) {
  std::string out = "fired=" + std::to_string(r.fired) +
                    " cycles=" + std::to_string(r.compute_cycles) +
                    " taken=" + std::to_string(r.transitions_taken);
  for (const Send& s : r.sends) {
    out += " send(" + s.port + "," +
           (s.signal != nullptr ? s.signal->name() : "?");
    for (const long a : s.args) out += "," + std::to_string(a);
    out += ")";
  }
  for (const TimerOp& t : r.timers) {
    out += t.kind == TimerOp::Kind::Set
               ? " set(" + t.name + "," + std::to_string(t.delay) + ")"
               : " reset(" + t.name + ")";
  }
  return out;
}

/// Drives a CompiledInstance and records every StepResult with the state it
/// reached, for comparison against a pinned sequence. The pinned sequences
/// are the ones the reference AST walker produced when it stepped these
/// machines in lock step with the bytecode interpreter.
struct Recorder {
  CompiledMachine machine;
  CompiledInstance code;
  std::vector<std::string> steps;

  explicit Recorder(const uml::StateMachine& sm)
      : machine(sm), code(machine, "p") {}

  void start() { record(code.start()); }
  void reset() { record(code.reset()); }
  void deliver(const Event& e) { record(code.deliver(e)); }
  void timer(const std::string& t) { record(code.timer_fired(t)); }

  void record(const StepResult& r) {
    steps.push_back(describe(r) + " -> " + code.state_name());
  }
};

using Steps = std::vector<std::string>;

}  // namespace

TEST(CompiledInstance, CounterMachineLockStep) {
  CounterModel m;
  Recorder ls(*m.sm);
  ls.start();
  ls.deliver({m.get, "in", {}});   // guard false: discarded
  ls.deliver({m.inc, "in", {5}});
  ls.deliver({m.inc, "in", {}});   // missing arg defaults to 0
  ls.deliver({m.inc, "out", {1}}); // wrong port: no trigger
  ls.deliver({m.get, "in", {}});   // fires: entry send + completion chain
  EXPECT_EQ(ls.code.variable("n"), 0);
  ls.deliver({m.inc, "in", {2}});
  ls.reset();
  EXPECT_EQ(ls.code.variable("n"), 0);
  ls.deliver({m.inc, "in", {4}});
  ls.deliver({m.get, "in", {}});
  EXPECT_EQ(ls.steps,
            (Steps{"fired=0 cycles=0 taken=0 -> Idle",
                   "fired=0 cycles=0 taken=0 -> Idle",
                   "fired=1 cycles=10 taken=1 -> Idle",
                   "fired=1 cycles=10 taken=1 -> Idle",
                   "fired=0 cycles=0 taken=0 -> Idle",
                   "fired=1 cycles=0 taken=2 send(out,Result,5) -> Idle",
                   "fired=1 cycles=10 taken=1 -> Idle",
                   "fired=0 cycles=0 taken=0 -> Idle",
                   "fired=1 cycles=10 taken=1 -> Idle",
                   "fired=1 cycles=0 taken=2 send(out,Result,4) -> Idle"}));
}

TEST(CompiledInstance, ParamShadowsVariableThenRestores) {
  // A signal parameter named like a persistent variable shadows it for the
  // step; an Assign to that name during the step writes through.
  uml::Model model{"m"};
  auto& probe = model.create_signal("Probe");
  probe.add_parameter("v", "int");
  auto& keep = model.create_signal("Keep");
  keep.add_parameter("v", "int");
  auto& out_sig = model.create_signal("Out");
  out_sig.add_parameter("value", "int");

  auto& cls = model.create_class("C", nullptr, true);
  model.add_port(cls, "in").provide(probe).provide(keep);
  model.add_port(cls, "out").require(out_sig);
  auto& sm = model.create_behavior(cls);
  sm.declare_variable("v", 100);
  auto& a = model.add_state(sm, "A", true);
  // Probe: sends the shadowed value, leaves the variable alone.
  model.add_transition(sm, a, a, probe, "in")
      .add_effect(uml::Action::send("out", out_sig, {"v"}));
  // Keep: assigns through the shadow, making the parameter value persist.
  model.add_transition(sm, a, a, keep, "in")
      .add_effect(uml::Action::assign("v", "v + 1"));

  Recorder ls(sm);
  ls.start();
  ls.deliver({&probe, "in", {7}});   // sends 7 (shadow), v stays 100
  EXPECT_EQ(ls.code.variable("v"), 100);
  ls.deliver({&keep, "in", {7}});    // assigns v = 7 + 1
  EXPECT_EQ(ls.code.variable("v"), 8);
  ls.deliver({&probe, "in", {3}});   // sends 3, v stays 8
  EXPECT_EQ(ls.code.variable("v"), 8);
  EXPECT_EQ(ls.steps, (Steps{"fired=0 cycles=0 taken=0 -> A",
                             "fired=1 cycles=0 taken=1 send(out,Out,7) -> A",
                             "fired=1 cycles=0 taken=1 -> A",
                             "fired=1 cycles=0 taken=1 send(out,Out,3) -> A"}));
}

TEST(CompiledInstance, DynamicVariablesAndTimers) {
  uml::Model model{"m"};
  auto& cls = model.create_class("C", nullptr, true);
  auto& sm = model.create_behavior(cls);
  sm.declare_variable("ticks", 0);
  auto& a = model.add_state(sm, "A", true);
  a.on_entry(uml::Action::set_timer("t", "50"));
  model.add_timer_transition(sm, a, a, "t")
      .add_effect(uml::Action::assign("ticks", "ticks + 1"))
      .add_effect(uml::Action::assign("extra", "ticks * 2"));

  Recorder ls(sm);
  ls.start();
  ls.timer("t");
  ls.timer("t");
  EXPECT_EQ(ls.code.variable("ticks"), 2);
  // "extra" was created by an Assign, not declared.
  EXPECT_EQ(ls.code.variable("extra"), 4);
  ls.timer("zzz");  // unknown timer: discarded
  EXPECT_THROW((void)ls.code.variable("nosuch"), std::out_of_range);
  EXPECT_EQ(ls.steps, (Steps{"fired=0 cycles=0 taken=0 set(t,50) -> A",
                             "fired=1 cycles=0 taken=1 set(t,50) -> A",
                             "fired=1 cycles=0 taken=1 set(t,50) -> A",
                             "fired=0 cycles=0 taken=0 -> A"}));
}

TEST(CompiledInstance, ErrorsMatchAstPath) {
  CounterModel m;
  CompiledMachine machine(*m.sm);
  CompiledInstance inst(machine, "c");
  // Stepping before start throws, as the reference AST walker did;
  // declared variables are readable from construction on.
  EXPECT_THROW((void)inst.deliver({m.inc, "in", {1}}), std::logic_error);
  EXPECT_THROW((void)inst.timer_fired("t"), std::logic_error);
  EXPECT_EQ(inst.variable("n"), 0);
  EXPECT_THROW((void)inst.variable("nosuch"), std::out_of_range);
}

TEST(CompiledInstance, CompletionLivelockDetected) {
  uml::Model model{"m"};
  auto& cls = model.create_class("C", nullptr, true);
  auto& sm = model.create_behavior(cls);
  auto& a = model.add_state(sm, "A", true);
  auto& b = model.add_state(sm, "B");
  model.add_transition(sm, a, b);
  model.add_transition(sm, b, a);

  CompiledMachine machine(sm);
  CompiledInstance inst(machine, "loop");
  EXPECT_THROW((void)inst.start(), LivelockError);
}

// ---------------------------------------------------------------------------
// Disassembler
// ---------------------------------------------------------------------------

TEST(Disassemble, ProgramListingPinsInstructionSelection) {
  // Pinned listing: a change in instruction selection for this expression
  // must show up in review as a diff here.
  const Expr expr = Expr::compile("n + 1");
  Program::SlotMap slot_map{{"n", 0}};
  const Program program = Program::compile(expr, slot_map);
  const std::vector<std::string> names{"n"};
  EXPECT_EQ(disassemble(program, &names),
            "0000  Slot    r0, [0]         ; n\n"
            "0001  Const   r1, #0          ; = 1\n"
            "0002  Add     r0, r0, r1\n");
}

TEST(Disassemble, CoversBranchesAndErrors) {
  // Short-circuit && compiles to Jz; division adds a ChkDiv; an unmapped
  // identifier becomes Missing. The listing names them all.
  const Expr expr = Expr::compile("n > 0 && 10 / n > ghost");
  Program::SlotMap slot_map{{"n", 0}};
  const Program program = Program::compile(expr, slot_map);
  const std::vector<std::string> names{"n"};
  const std::string text = disassemble(program, &names);
  EXPECT_NE(text.find("Jz      r"), std::string::npos) << text;
  EXPECT_NE(text.find("ChkDiv"), std::string::npos) << text;
  EXPECT_NE(text.find("; 'ghost'"), std::string::npos) << text;
  EXPECT_EQ(disassemble(Program{}), "(empty)\n");
}

TEST(Disassemble, MachineListingShowsStatesAndTriggers) {
  CounterModel m;
  const CompiledMachine machine(*m.sm);
  const std::string text = disassemble(machine);
  EXPECT_NE(text.find("machine "), std::string::npos);
  EXPECT_NE(text.find("var [0] n = 0"), std::string::npos) << text;
  EXPECT_NE(text.find("state [0] Idle (initial)"), std::string::npos) << text;
  EXPECT_NE(text.find("on Inc@in"), std::string::npos) << text;
  EXPECT_NE(text.find("on completion"), std::string::npos) << text;
  EXPECT_NE(text.find("guard:"), std::string::npos) << text;
  EXPECT_NE(text.find("send Result via out"), std::string::npos) << text;
}

TEST(CompiledMachine, MalformedExpressionThrowsAtLowering) {
  // Malformed text fails when the machine is lowered, never at first
  // evaluation.
  uml::Model model{"m"};
  auto& cls = model.create_class("C", nullptr, true);
  auto& sm = model.create_behavior(cls);
  auto& a = model.add_state(sm, "A", true);
  model.add_transition(sm, a, a).set_guard("1 +");
  EXPECT_THROW((void)CompiledMachine(sm), ExprError);
}
