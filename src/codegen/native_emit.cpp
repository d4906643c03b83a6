// Translator from efsm::Program bytecode + sim::CompiledModel tables to one
// self-contained C++ translation unit behind the tut_native_v1 C ABI.
//
// The semantics contract is efsm::CompiledInstance (program.cpp), mirrored
// construct-for-construct:
//  - each Program becomes a static function with the interpreter's
//    registers as locals and its Jz/Jmp targets as goto labels, or a
//    constant when the program touches no variable (guards the analysis
//    layer could prove are emitted pre-folded the same way);
//  - deliver/timer dispatch is a switch on the current state with the
//    outgoing transitions as sequential trigger+guard ifs in declaration-
//    priority order — exactly find_transition's scan;
//  - the parameter overlay (save, stamp-guarded restore) and the
//    1000-transition completion bound are reproduced literally;
//  - every throwing path raises an internal TnErr carrying the error kind
//    and operand; the host (NativeInstance) rebuilds the interpreter's
//    exact exception type and message from the ABI error code.
//
// Emission is deterministic: equal models yield byte-identical source, so
// the content hash doubles as the image identity for caching and
// provenance.

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/absint.hpp"
#include "codegen/native.hpp"
#include "uml/structure.hpp"

namespace tut::codegen {
namespace {

using efsm::CompiledMachine;
using efsm::Program;

std::string lit(long v) {
  // LONG_MIN has no negatable literal form; build it arithmetically.
  if (v == std::numeric_limits<long>::min())
    return "(" + std::to_string(v + 1) + "L - 1L)";
  return std::to_string(v) + "L";
}

/// How a Program is referenced at its use sites: a call to its emitted
/// function, or a folded constant.
struct ProgRef {
  bool folded = false;
  long value = 0;
  std::string fn;

  std::string expr() const { return folded ? lit(value) : fn + "(I)"; }
  /// Guard condition (fire when the value is non-zero); empty when the
  /// guard folded to a non-zero constant (fires unconditionally).
  std::string cond() const {
    if (folded) return value != 0 ? std::string() : "false";
    return fn + "(I) != 0";
  }
};

/// Emits one machine into `out`, filling the host-side id tables of `info`
/// in the same walk so both ends of the ABI agree by construction.
class MachineEmitter {
 public:
  MachineEmitter(const CompiledMachine& m, int index, NativeMachineInfo& info,
                 const analysis::Facts& facts, std::string& out)
      : m_(m), index_(index), info_(info), facts_(facts), out_(out) {
    info_.machine = &m;
  }

  void emit() {
    build_id_tables();
    out_ += "namespace m" + std::to_string(index_) + " {\n\n";
    emit_inst_struct();
    emit_programs();
    emit_overlay_helpers();
    emit_enter();
    emit_completions();
    emit_start_reset();
    emit_deliver();
    emit_timer();
    emit_introspection();
    out_ += "}  // namespace m" + std::to_string(index_) + "\n\n";
  }

 private:
  // -- id spaces ------------------------------------------------------------

  void build_id_tables() {
    for (const auto& t : m_.transitions()) {
      if (t.trigger_signal != nullptr && !sig_ids_.count(t.trigger_signal)) {
        sig_ids_.emplace(t.trigger_signal,
                         static_cast<int>(info_.signals.size()));
        info_.signals.push_back(t.trigger_signal);
      }
      if (!t.trigger_port.empty() && !port_ids_.count(t.trigger_port)) {
        port_ids_.emplace(t.trigger_port,
                          static_cast<int>(info_.ports.size()));
        info_.ports.push_back(t.trigger_port);
      }
      if (!t.trigger_timer.empty()) intern_timer(t.trigger_timer);
    }
    // SetTimer/ResetTimer operands and Send pairs in the canonical action
    // walk: every state's entry actions, then every transition's effects.
    for (const auto& st : m_.states()) intern_actions(st.entry);
    for (const auto& t : m_.transitions()) intern_actions(t.effects);
  }

  void intern_timer(const std::string& name) {
    if (timer_ids_.count(name)) return;
    timer_ids_.emplace(name, static_cast<int>(info_.timers.size()));
    info_.timers.push_back(name);
  }

  void intern_actions(const std::vector<CompiledMachine::Action>& actions) {
    for (const auto& a : actions) {
      if (a.kind == uml::Action::Kind::SetTimer ||
          a.kind == uml::Action::Kind::ResetTimer) {
        intern_timer(a.name);
      } else if (a.kind == uml::Action::Kind::Send) {
        const auto key = std::make_pair(a.port, a.signal);
        if (!send_ids_.count(key)) {
          send_ids_.emplace(key, static_cast<unsigned>(info_.sends.size()));
          info_.sends.emplace_back(a.port, a.signal);
        }
      }
    }
  }

  int sig_id(const uml::Signal* s) const {
    if (s == nullptr) return -2;
    auto it = sig_ids_.find(s);
    return it == sig_ids_.end() ? -1 : it->second;
  }

  // -- instance layout ------------------------------------------------------

  std::size_t slot_dim() const {
    return std::max<std::size_t>(1, m_.slot_count());
  }

  std::size_t overlay_dim() const {
    std::size_t n = 1;
    for (const uml::Signal* s : info_.signals) {
      if (const auto* slots = m_.param_slots(s)) n = std::max(n, slots->size());
    }
    return n;
  }

  void emit_inst_struct() {
    const std::string n = std::to_string(slot_dim());
    out_ += "struct Inst {\n";
    out_ += "  long slots[" + n + "];\n";
    out_ += "  unsigned long long stamp[" + n + "];\n";
    out_ += "  unsigned long long step;\n";
    out_ += "  struct Sav { long value; unsigned short slot; "
            "unsigned char defined; } ovr[" +
            std::to_string(overlay_dim()) + "];\n";
    out_ += "  int state;\n";
    out_ += "  unsigned ovr_n;\n";
    out_ += "  unsigned char defined[" + n + "];\n";
    out_ += "};\n\n";
    if (!m_.transitions().empty()) {
      out_ += "static constexpr int kTarget[" +
              std::to_string(m_.transitions().size()) + "] = {";
      for (std::size_t i = 0; i < m_.transitions().size(); ++i) {
        out_ += (i ? ", " : " ");
        out_ += std::to_string(m_.transitions()[i].target);
      }
      out_ += " };\n\n";
    }
  }

  // -- expression programs --------------------------------------------------

  void emit_programs() {
    // Canonical program walk; ids and Missing-name interning follow it.
    for (const auto& st : m_.states()) walk_actions(st.entry);
    for (const auto& t : m_.transitions()) {
      if (t.has_guard) emit_program(t.guard);
      walk_actions(t.effects);
    }
  }

  void walk_actions(const std::vector<CompiledMachine::Action>& actions) {
    for (const auto& a : actions) {
      switch (a.kind) {
        case uml::Action::Kind::Assign:
        case uml::Action::Kind::Compute:
        case uml::Action::Kind::SetTimer:
          emit_program(a.expr);
          break;
        case uml::Action::Kind::Send:
          for (const auto& arg : a.args) emit_program(arg);
          break;
        case uml::Action::Kind::ResetTimer:
          break;
      }
    }
  }

  const ProgRef& ref(const Program& p) const { return progs_.at(&p); }

  void emit_program(const Program& p) {
    if (progs_.count(&p)) return;
    ProgRef r;
    if (try_fold(p, r.value)) {
      r.folded = true;
      progs_.emplace(&p, std::move(r));
      return;
    }
    // Range-proven guard outcome (analysis::Facts): fold without emitting a
    // function. Only transition guards land in guard_const, and guards are
    // consumed through cond() alone, so the 0/1 truth value is faithful;
    // totality was proven by the analysis, so skipping the evaluation can
    // never skip a throw the interpreter would surface.
    if (const auto it = facts_.guard_const.find(&p);
        it != facts_.guard_const.end()) {
      r.folded = true;
      r.value = it->second;
      progs_.emplace(&p, std::move(r));
      return;
    }
    r.fn = "p" + std::to_string(prog_count_++);
    emit_program_fn(p, r.fn);
    progs_.emplace(&p, std::move(r));
  }

  /// A program with no Slot/Missing op reads nothing from the instance;
  /// run it now. EvalError (a constant division by zero) means the program
  /// must still throw at its original evaluation point, so it stays live.
  bool try_fold(const Program& p, long& value) {
    for (const auto& in : p.code()) {
      if (in.op == Program::Op::Slot || in.op == Program::Op::Missing)
        return false;
    }
    std::vector<long> regs(p.reg_count(), 0);
    try {
      value = p.run(Program::Slots{}, regs.data());
      return true;
    } catch (const efsm::EvalError&) {
      return false;
    }
  }

  void emit_program_fn(const Program& p, const std::string& fn) {
    const auto& code = p.code();
    const auto& consts = p.consts();
    std::set<std::uint16_t> targets;
    for (const auto& in : code) {
      if (in.op == Program::Op::Jz || in.op == Program::Op::Jmp)
        targets.insert(in.b);
    }
    out_ += "static long " + fn + "(const Inst& I) {\n";
    out_ += "  long";
    for (std::uint16_t r = 0; r < p.reg_count(); ++r) {
      out_ += (r ? ", r" : " r") + std::to_string(r) + " = 0";
    }
    out_ += ";\n";
    const auto R = [](std::uint16_t r) { return "r" + std::to_string(r); };
    const std::vector<std::uint32_t>* elide = nullptr;
    if (const auto it = facts_.elidable_checks.find(&p);
        it != facts_.elidable_checks.end()) {
      elide = &it->second;
    }
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
      if (targets.count(static_cast<std::uint16_t>(pc)))
        out_ += "L" + std::to_string(pc) + ":;\n";
      const auto& in = code[pc];
      if ((in.op == Program::Op::ChkDiv || in.op == Program::Op::ChkMod) &&
          elide != nullptr &&
          std::find(elide->begin(), elide->end(),
                    static_cast<std::uint32_t>(pc)) != elide->end()) {
        continue;  // divisor range-proven nonzero: the zero check vanishes
      }
      out_ += "  ";
      switch (in.op) {
        case Program::Op::Const:
          out_ += R(in.dst) + " = " + lit(consts[in.a]) + ";";
          break;
        case Program::Op::Slot: {
          // Reads the missing-name slot id straight from the slot index so
          // the host can rebuild "unknown identifier '<name>'".
          const std::string a = std::to_string(in.a);
          out_ += "if (!I.defined[" + a + "]) tn_fail(1, " + a + "u); " +
                  R(in.dst) + " = I.slots[" + a + "];";
          break;
        }
        case Program::Op::Missing:
          out_ += "tn_fail(2, " +
                  std::to_string(missing_base_ + in.a) + "u);";
          break;
        case Program::Op::Neg:
          out_ += R(in.dst) + " = -" + R(in.a) + ";";
          break;
        case Program::Op::Not:
          out_ += R(in.dst) + " = " + R(in.a) + " == 0 ? 1 : 0;";
          break;
        case Program::Op::Add:
          out_ += R(in.dst) + " = " + R(in.a) + " + " + R(in.b) + ";";
          break;
        case Program::Op::Sub:
          out_ += R(in.dst) + " = " + R(in.a) + " - " + R(in.b) + ";";
          break;
        case Program::Op::Mul:
          out_ += R(in.dst) + " = " + R(in.a) + " * " + R(in.b) + ";";
          break;
        case Program::Op::Div:
          out_ += R(in.dst) + " = " + R(in.a) + " / " + R(in.b) + ";";
          break;
        case Program::Op::Mod:
          out_ += R(in.dst) + " = " + R(in.a) + " % " + R(in.b) + ";";
          break;
        case Program::Op::ChkDiv:
          out_ += "if (" + R(in.a) + " == 0) tn_fail(3, 0u);";
          break;
        case Program::Op::ChkMod:
          out_ += "if (" + R(in.a) + " == 0) tn_fail(4, 0u);";
          break;
        case Program::Op::Eq:
          out_ += R(in.dst) + " = " + R(in.a) + " == " + R(in.b) +
                  " ? 1 : 0;";
          break;
        case Program::Op::Ne:
          out_ += R(in.dst) + " = " + R(in.a) + " != " + R(in.b) +
                  " ? 1 : 0;";
          break;
        case Program::Op::Lt:
          out_ += R(in.dst) + " = " + R(in.a) + " < " + R(in.b) + " ? 1 : 0;";
          break;
        case Program::Op::Le:
          out_ += R(in.dst) + " = " + R(in.a) + " <= " + R(in.b) +
                  " ? 1 : 0;";
          break;
        case Program::Op::Gt:
          out_ += R(in.dst) + " = " + R(in.a) + " > " + R(in.b) + " ? 1 : 0;";
          break;
        case Program::Op::Ge:
          out_ += R(in.dst) + " = " + R(in.a) + " >= " + R(in.b) +
                  " ? 1 : 0;";
          break;
        case Program::Op::Bool:
          out_ += R(in.dst) + " = " + R(in.a) + " != 0 ? 1 : 0;";
          break;
        case Program::Op::LoadOne:
          out_ += R(in.dst) + " = 1;";
          break;
        case Program::Op::Jz:
          out_ += "if (" + R(in.a) + " == 0) goto L" + std::to_string(in.b) +
                  ";";
          break;
        case Program::Op::Jmp:
          out_ += "goto L" + std::to_string(in.b) + ";";
          break;
      }
      out_ += "\n";
    }
    if (targets.count(static_cast<std::uint16_t>(code.size())))
      out_ += "L" + std::to_string(code.size()) + ":;\n";
    out_ += "  return r0;\n}\n\n";
    for (const std::string& name : p.missing_names())
      info_.missing.push_back(name);
    missing_base_ += static_cast<unsigned>(p.missing_names().size());
  }

  // -- actions --------------------------------------------------------------

  void emit_actions(const std::vector<CompiledMachine::Action>& actions,
                    const std::string& ind) {
    for (const auto& a : actions) {
      switch (a.kind) {
        case uml::Action::Kind::Assign: {
          const std::string s = std::to_string(a.slot);
          out_ += ind + "{ const long v = " + ref(a.expr).expr() +
                  "; I.slots[" + s + "] = v; I.defined[" + s +
                  "] = 1; I.stamp[" + s + "] = I.step; }\n";
          break;
        }
        case uml::Action::Kind::Compute:
          out_ += ind + "O->cycles += " + ref(a.expr).expr() + ";\n";
          break;
        case uml::Action::Kind::Send: {
          const unsigned id = send_ids_.at(std::make_pair(a.port, a.signal));
          if (a.args.empty()) {
            out_ += ind + "S->send(S->ctx, " + std::to_string(id) +
                    "u, nullptr, 0u);\n";
            break;
          }
          out_ += ind + "{";
          for (std::size_t i = 0; i < a.args.size(); ++i) {
            out_ += " const long a" + std::to_string(i) + " = " +
                    ref(a.args[i]).expr() + ";";
          }
          out_ += " const long a[] = {";
          for (std::size_t i = 0; i < a.args.size(); ++i) {
            out_ += (i ? ", a" : " a") + std::to_string(i);
          }
          out_ += " }; S->send(S->ctx, " + std::to_string(id) + "u, a, " +
                  std::to_string(a.args.size()) + "u); }\n";
          break;
        }
        case uml::Action::Kind::SetTimer:
          out_ += ind + "S->timer_set(S->ctx, " +
                  std::to_string(timer_ids_.at(a.name)) + "u, " +
                  ref(a.expr).expr() + ");\n";
          break;
        case uml::Action::Kind::ResetTimer:
          out_ += ind + "S->timer_reset(S->ctx, " +
                  std::to_string(timer_ids_.at(a.name)) + "u);\n";
          break;
      }
    }
  }

  // -- overlay --------------------------------------------------------------

  void emit_overlay_helpers() {
    out_ += "static void push_ovr(Inst& I, unsigned short slot, long v) {\n"
            "  Inst::Sav& s = I.ovr[I.ovr_n];\n"
            "  s.slot = slot; s.value = I.slots[slot]; "
            "s.defined = I.defined[slot];\n"
            "  I.ovr_n += 1u;\n"
            "  I.slots[slot] = v; I.defined[slot] = 1;\n"
            "}\n\n"
            "static void restore(Inst& I) {\n"
            "  for (unsigned i = I.ovr_n; i > 0u; --i) {\n"
            "    const Inst::Sav& s = I.ovr[i - 1u];\n"
            "    if (I.stamp[s.slot] == I.step) continue;\n"
            "    I.slots[s.slot] = s.value; I.defined[s.slot] = s.defined;\n"
            "  }\n"
            "  I.ovr_n = 0u;\n"
            "}\n\n";
  }

  // -- state entry / completions -------------------------------------------

  void emit_enter() {
    bool any_entry = false;
    for (const auto& st : m_.states())
      if (!st.entry.empty()) any_entry = true;
    out_ += "static void enter(Inst& I, const tut_native_sink* S, "
            "tut_native_out* O, int s) {\n";
    out_ += "  I.state = s;\n";
    if (any_entry) {
      out_ += "  switch (s) {\n";
      for (std::size_t i = 0; i < m_.states().size(); ++i) {
        const auto& st = m_.states()[i];
        if (st.entry.empty()) continue;
        out_ += "    case " + std::to_string(i) + ": {\n";
        emit_actions(st.entry, "      ");
        out_ += "      break;\n    }\n";
      }
      out_ += "    default: break;\n  }\n";
    } else {
      out_ += "  (void)S; (void)O;\n";
    }
    out_ += "}\n\n";
  }

  void emit_completions() {
    bool any = false;
    for (const auto& t : m_.transitions())
      if (t.completion) any = true;
    if (!any) {
      out_ += "static void completions(Inst&, const tut_native_sink*, "
              "tut_native_out*) {}\n\n";
      return;
    }
    out_ += "static void completions(Inst& I, const tut_native_sink* S, "
            "tut_native_out* O) {\n";
    out_ += "  for (int i = 0; i < 1000; ++i) {\n";
    out_ += "    switch (I.state) {\n";
    for (std::size_t si = 0; si < m_.states().size(); ++si) {
      const auto& st = m_.states()[si];
      bool has = false;
      for (std::uint32_t ti : st.outgoing)
        if (m_.transitions()[ti].completion) has = true;
      if (!has) continue;
      out_ += "      case " + std::to_string(si) + ": {\n";
      bool unconditional = false;
      for (std::uint32_t ti : st.outgoing) {
        const auto& t = m_.transitions()[ti];
        if (!t.completion || unconditional) continue;
        std::string cond = t.has_guard ? ref(t.guard).cond() : std::string();
        if (cond == "false") continue;  // guard folded false: never fires
        std::string ind = "        ";
        if (!cond.empty()) {
          out_ += "        if (" + cond + ") {\n";
          ind += "  ";
        } else {
          unconditional = true;  // later transitions are unreachable
          out_ += "        {\n";
          ind += "  ";
        }
        emit_actions(t.effects, ind);
        out_ += ind + "O->transitions += 1u;\n";
        out_ += ind + "enter(I, S, O, kTarget[" + std::to_string(ti) +
                "]);\n";
        out_ += ind + "continue;\n";
        out_ += "        }\n";
      }
      if (!unconditional) out_ += "        return;\n";
      out_ += "      }\n";
    }
    out_ += "      default: return;\n    }\n  }\n";
    out_ += "  tn_fail(5, static_cast<unsigned>(I.state));\n";
    out_ += "}\n\n";
  }

  // -- lifecycle ------------------------------------------------------------

  void emit_start_reset() {
    const std::string n = std::to_string(slot_dim());
    out_ += "static void init_slots(Inst& I) {\n";
    out_ += "  for (unsigned i = 0; i < " + n +
            "u; ++i) { I.slots[i] = 0; I.defined[i] = 0; }\n";
    for (const auto& [slot, value] : m_.initial_values()) {
      const std::string s = std::to_string(slot);
      out_ += "  I.slots[" + s + "] = " + lit(value) + "; I.defined[" + s +
              "] = 1;\n";
    }
    out_ += "}\n\n";
    out_ += "static void rewind(Inst& I) {\n";
    out_ += "  init_slots(I);\n";
    out_ += "  for (unsigned i = 0; i < " + n + "u; ++i) I.stamp[i] = 0u;\n";
    out_ += "  I.step = 0u; I.ovr_n = 0u; I.state = -1;\n";
    out_ += "}\n\n";
    if (m_.initial_state() == CompiledMachine::kNoState) {
      out_ += "static int start(Inst&, const tut_native_sink*, "
              "tut_native_out*) { return 7; }\n\n";
    } else {
      out_ += "static int start(Inst& I, const tut_native_sink* S, "
              "tut_native_out* O) {\n";
      out_ += "  try {\n";
      out_ += "    enter(I, S, O, " + std::to_string(m_.initial_state()) +
              ");\n";
      out_ += "    completions(I, S, O);\n";
      out_ += "    return 0;\n";
      out_ += "  } catch (const TnErr& e) { O->err_aux = e.aux; "
              "return e.kind; }\n";
      out_ += "}\n\n";
    }
    out_ += "static int reset(Inst& I, const tut_native_sink* S, "
            "tut_native_out* O) {\n";
    out_ += "  I.state = -1;\n  init_slots(I);\n  return start(I, S, O);\n";
    out_ += "}\n\n";
  }

  // -- deliver --------------------------------------------------------------

  /// Emits one fired-transition body: effects, overlay restore (deliver
  /// only), bookkeeping, target entry, completion chain.
  void emit_fire(const CompiledMachine::Transition& t, std::uint32_t ti,
                 bool restore_overlay, const std::string& ind) {
    out_ += ind + "O->fired = 1;\n";
    emit_actions(t.effects, ind);
    if (restore_overlay) out_ += ind + "restore(I);\n";
    out_ += ind + "O->transitions += 1u;\n";
    out_ += ind + "enter(I, S, O, kTarget[" + std::to_string(ti) + "]);\n";
    out_ += ind + "completions(I, S, O);\n";
    out_ += ind + "return 0;\n";
  }

  void emit_deliver() {
    out_ += "static int deliver(Inst& I, int sig, int port, "
            "const long* args, unsigned nargs,\n"
            "                   const tut_native_sink* S, "
            "tut_native_out* O) {\n";
    out_ += "  if (I.state < 0) return 6;\n";
    out_ += "  I.step += 1u;\n  I.ovr_n = 0u;\n";
    // Parameter overlay per trigger signal (constexpr slot tables).
    bool any_params = false;
    for (const uml::Signal* s : info_.signals) {
      const auto* slots = m_.param_slots(s);
      if (slots != nullptr && !slots->empty()) any_params = true;
    }
    if (any_params) {
      out_ += "  switch (sig) {\n";
      for (std::size_t i = 0; i < info_.signals.size(); ++i) {
        const auto* slots = m_.param_slots(info_.signals[i]);
        if (slots == nullptr || slots->empty()) continue;
        out_ += "    case " + std::to_string(i) + ": {\n";
        out_ += "      static constexpr unsigned short kPs[" +
                std::to_string(slots->size()) + "] = {";
        for (std::size_t j = 0; j < slots->size(); ++j) {
          out_ += (j ? ", " : " ");
          out_ += std::to_string((*slots)[j]);
        }
        out_ += " };\n";
        out_ += "      for (unsigned i = 0; i < " +
                std::to_string(slots->size()) +
                "u; ++i) push_ovr(I, kPs[i], nargs > i ? args[i] : 0);\n";
        out_ += "      break;\n    }\n";
      }
      out_ += "    default: break;\n  }\n";
    } else {
      out_ += "  (void)sig; (void)args; (void)nargs;\n";
    }
    out_ += "  (void)port;\n";
    out_ += "  try {\n";
    out_ += "    switch (I.state) {\n";
    for (std::size_t si = 0; si < m_.states().size(); ++si) {
      const auto& st = m_.states()[si];
      if (st.outgoing.empty()) continue;
      out_ += "      case " + std::to_string(si) + ": {\n";
      for (std::uint32_t ti : st.outgoing) {
        const auto& t = m_.transitions()[ti];
        // The event branch of find_transition matches on the trigger-signal
        // pointer alone (a null-signal event can fire timer/completion
        // transitions); the emitted arm mirrors that with sig id -2.
        std::string cond = "sig == " + std::to_string(sig_id(t.trigger_signal));
        if (!t.trigger_port.empty()) {
          cond += " && port == " +
                  std::to_string(port_ids_.at(t.trigger_port));
        }
        if (t.has_guard) {
          const std::string g = ref(t.guard).cond();
          if (g == "false") continue;  // folded-false guard never fires
          if (!g.empty()) cond += " && (" + g + ")";
        }
        out_ += "        if (" + cond + ") {\n";
        emit_fire(t, ti, /*restore_overlay=*/true, "          ");
        out_ += "        }\n";
      }
      out_ += "        break;\n      }\n";
    }
    out_ += "      default: break;\n    }\n";
    out_ += "    restore(I);\n    return 0;\n";
    out_ += "  } catch (const TnErr& e) {\n";
    out_ += "    restore(I);\n";
    out_ += "    O->err_aux = e.aux;\n    return e.kind;\n  }\n";
    out_ += "}\n\n";
  }

  // -- timer ----------------------------------------------------------------

  void emit_timer() {
    out_ += "static int timer(Inst& I, int tm, const tut_native_sink* S, "
            "tut_native_out* O) {\n";
    out_ += "  if (I.state < 0) return 6;\n";
    out_ += "  (void)tm;\n";
    out_ += "  try {\n";
    out_ += "    switch (I.state) {\n";
    for (std::size_t si = 0; si < m_.states().size(); ++si) {
      const auto& st = m_.states()[si];
      bool relevant = false;
      for (std::uint32_t ti : st.outgoing) {
        const auto& t = m_.transitions()[ti];
        if (!t.trigger_timer.empty() || t.completion) relevant = true;
      }
      if (!relevant) continue;
      out_ += "      case " + std::to_string(si) + ": {\n";
      for (std::uint32_t ti : st.outgoing) {
        const auto& t = m_.transitions()[ti];
        // find_transition's timer branch: a non-empty timer name matches
        // trigger_timer equality; the empty name polls completions.
        std::string cond;
        if (!t.trigger_timer.empty()) {
          cond = "tm == " + std::to_string(timer_ids_.at(t.trigger_timer));
        } else if (t.completion) {
          cond = "tm == -2";
        } else {
          continue;
        }
        if (t.has_guard) {
          const std::string g = ref(t.guard).cond();
          if (g == "false") continue;
          if (!g.empty()) cond += " && (" + g + ")";
        }
        out_ += "        if (" + cond + ") {\n";
        emit_fire(t, ti, /*restore_overlay=*/false, "          ");
        out_ += "        }\n";
      }
      out_ += "        break;\n      }\n";
    }
    out_ += "      default: break;\n    }\n";
    out_ += "    return 0;\n";
    out_ += "  } catch (const TnErr& e) { O->err_aux = e.aux; "
            "return e.kind; }\n";
    out_ += "}\n\n";
  }

  // -- introspection --------------------------------------------------------

  void emit_introspection() {
    out_ += "static long slot(const Inst& I, unsigned s, int* defined) {\n";
    out_ += "  if (s >= " + std::to_string(slot_dim()) +
            "u) { *defined = 0; return 0; }\n";
    out_ += "  *defined = I.defined[s] ? 1 : 0;\n";
    out_ += "  return I.slots[s];\n";
    out_ += "}\n\n";
  }

  const CompiledMachine& m_;
  int index_;
  NativeMachineInfo& info_;
  const analysis::Facts& facts_;
  std::string& out_;

  std::unordered_map<const uml::Signal*, int> sig_ids_;
  std::unordered_map<std::string, int> port_ids_;
  std::unordered_map<std::string, int> timer_ids_;
  std::map<std::pair<std::string, const uml::Signal*>, unsigned> send_ids_;
  std::unordered_map<const Program*, ProgRef> progs_;
  unsigned prog_count_ = 0;
  unsigned missing_base_ = 0;
};

}  // namespace

NativeSource emit_native(const sim::CompiledModel& model) {
  NativeSource src;
  std::unordered_map<const efsm::CompiledMachine*, std::uint32_t> indices;
  std::vector<const efsm::CompiledMachine*> machines;
  src.proc_machine.reserve(model.procs().size());
  for (const auto& proc : model.procs()) {
    auto it = indices.find(proc.machine);
    if (it == indices.end()) {
      it = indices
               .emplace(proc.machine,
                        static_cast<std::uint32_t>(machines.size()))
               .first;
      machines.push_back(proc.machine);
    }
    src.proc_machine.push_back(it->second);
  }

  std::string& out = src.code;
  out +=
      "// Generated by tut codegen::native (ABI tut_native_v1). Do not "
      "edit.\n"
      "// One namespace per distinct state machine; semantics mirror\n"
      "// efsm::CompiledInstance instruction-for-instruction.\n\n"
      "extern \"C\" {\n"
      "struct tut_native_out {\n"
      "  long cycles;\n"
      "  unsigned long long transitions;\n"
      "  int fired;\n"
      "  unsigned err_aux;\n"
      "};\n"
      "struct tut_native_sink {\n"
      "  void* ctx;\n"
      "  void (*send)(void*, unsigned, const long*, unsigned);\n"
      "  void (*timer_set)(void*, unsigned, long);\n"
      "  void (*timer_reset)(void*, unsigned);\n"
      "};\n"
      "}\n\n"
      "namespace {\n\n"
      "struct TnErr { int kind; unsigned aux; };\n"
      "[[noreturn]] inline void tn_fail(int kind, unsigned aux) { "
      "throw TnErr{kind, aux}; }\n\n";

  src.machines.resize(machines.size());
  for (std::size_t i = 0; i < machines.size(); ++i) {
    // Per-machine value-range facts: range-proven guards fold, proven-
    // nonzero divisor checks vanish. The analysis is deterministic, so the
    // emitted source (and with it the content hash / cache identity) stays
    // a pure function of the model.
    const analysis::Facts facts =
        analysis::make_facts(*machines[i], analysis::absint::analyze(*machines[i]));
    MachineEmitter(*machines[i], static_cast<int>(i), src.machines[i], facts,
                   out)
        .emit();
  }

  const std::string count = std::to_string(machines.size());
  out += "static constexpr unsigned long long kInstanceSize[] = {";
  if (machines.empty()) {
    out += " 0ull";
  } else {
    for (std::size_t i = 0; i < machines.size(); ++i) {
      out += (i ? ", " : " ");
      out += "sizeof(m" + std::to_string(i) + "::Inst)";
    }
  }
  out += " };\n\n}  // namespace\n\nextern \"C\" {\n\n";
  out += "int tut_native_v1_abi(void) { return 1; }\n\n";
  out += "unsigned tut_native_v1_machine_count(void) { return " + count +
         "u; }\n\n";
  out += "unsigned long long tut_native_v1_instance_size(unsigned m) {\n"
         "  return m < " + count + "u ? kInstanceSize[m] : 0ull;\n}\n\n";

  const auto dispatch = [&](const std::string& signature,
                            const std::string& call,
                            const std::string& fallback) {
    out += signature + " {\n";
    if (!machines.empty()) {
      out += "  switch (m) {\n";
      for (std::size_t i = 0; i < machines.size(); ++i) {
        const std::string ns = "m" + std::to_string(i);
        std::string line = call;
        // Substitute the per-machine namespace for the "$" placeholder.
        std::size_t pos;
        while ((pos = line.find('$')) != std::string::npos)
          line.replace(pos, 1, ns);
        out += "    case " + std::to_string(i) + "u: " + line + "\n";
      }
      out += "    default: break;\n  }\n";
    }
    out += "  " + fallback + "\n}\n\n";
  };

  dispatch("void tut_native_v1_init(unsigned m, void* p)",
           "$::rewind(*static_cast<$::Inst*>(p)); return;", "(void)p;");
  dispatch(
      "int tut_native_v1_start(unsigned m, void* p, const tut_native_sink* "
      "s, tut_native_out* o)",
      "return $::start(*static_cast<$::Inst*>(p), s, o);",
      "(void)p; (void)s; (void)o; return 100;");
  dispatch(
      "int tut_native_v1_reset(unsigned m, void* p, const tut_native_sink* "
      "s, tut_native_out* o)",
      "return $::reset(*static_cast<$::Inst*>(p), s, o);",
      "(void)p; (void)s; (void)o; return 100;");
  dispatch(
      "int tut_native_v1_deliver(unsigned m, void* p, int sig, int port, "
      "const long* args, unsigned nargs, const tut_native_sink* s, "
      "tut_native_out* o)",
      "return $::deliver(*static_cast<$::Inst*>(p), sig, port, args, nargs, "
      "s, o);",
      "(void)p; (void)sig; (void)port; (void)args; (void)nargs; (void)s; "
      "(void)o; return 100;");
  dispatch(
      "int tut_native_v1_timer(unsigned m, void* p, int tm, const "
      "tut_native_sink* s, tut_native_out* o)",
      "return $::timer(*static_cast<$::Inst*>(p), tm, s, o);",
      "(void)p; (void)tm; (void)s; (void)o; return 100;");
  dispatch("int tut_native_v1_state(unsigned m, const void* p)",
           "return static_cast<const $::Inst*>(p)->state;",
           "(void)p; return -1;");
  dispatch(
      "long tut_native_v1_slot(unsigned m, const void* p, unsigned s, int* "
      "defined)",
      "return $::slot(*static_cast<const $::Inst*>(p), s, defined);",
      "(void)p; (void)s; *defined = 0; return 0;");

  out += "}  // extern \"C\"\n";
  return src;
}

}  // namespace tut::codegen
