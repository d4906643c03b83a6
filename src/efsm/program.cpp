#include "efsm/program.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "uml/structure.hpp"

namespace tut::efsm {

// ---------------------------------------------------------------------------
// Program: bytecode compiler
// ---------------------------------------------------------------------------

/// Walks an Expr AST emitting instructions. Register allocation is the
/// operand-stack depth: a node's result lands in `dst`, its second operand
/// (if any) in `dst + 1`. Short-circuit forms become forward jumps patched
/// once the skipped code is emitted, so operand evaluation order — and which
/// EvalError surfaces first — is exactly Expr::eval's.
class ProgramCompiler {
 public:
  ProgramCompiler(Program& p, const Program::SlotMap& slots)
      : p_(p), slots_(slots) {}

  void compile(const Expr::Node& n, std::uint16_t dst) {
    using Op = Expr::Node::Op;
    using P = Program::Op;
    touch(dst);
    switch (n.op) {
      case Op::Const: {
        const std::uint16_t idx = intern_const(n.value);
        emit({P::Const, dst, idx, 0});
        return;
      }
      case Op::Var: {
        auto it = slots_.find(n.name);
        if (it == slots_.end()) {
          const auto idx = static_cast<std::uint16_t>(p_.missing_.size());
          p_.missing_.push_back(n.name);
          emit({P::Missing, dst, idx, 0});
        } else {
          emit({P::Slot, dst, it->second, 0});
        }
        return;
      }
      case Op::Neg:
        compile(*n.a, dst);
        emit({P::Neg, dst, dst, 0});
        return;
      case Op::Not:
        compile(*n.a, dst);
        emit({P::Not, dst, dst, 0});
        return;
      case Op::Add: return binary(n, P::Add, dst);
      case Op::Sub: return binary(n, P::Sub, dst);
      case Op::Mul: return binary(n, P::Mul, dst);
      case Op::Div: return division(n, P::Div, P::ChkDiv, dst);
      case Op::Mod: return division(n, P::Mod, P::ChkMod, dst);
      case Op::Eq: return binary(n, P::Eq, dst);
      case Op::Ne: return binary(n, P::Ne, dst);
      case Op::Lt: return binary(n, P::Lt, dst);
      case Op::Le: return binary(n, P::Le, dst);
      case Op::Gt: return binary(n, P::Gt, dst);
      case Op::Ge: return binary(n, P::Ge, dst);
      case Op::And: {
        // a == 0 skips b with the result already 0 in dst.
        compile(*n.a, dst);
        const std::size_t jz = emit({P::Jz, 0, dst, 0});
        compile(*n.b, dst);
        emit({P::Bool, dst, dst, 0});
        patch(jz, here());
        return;
      }
      case Op::Or: {
        compile(*n.a, dst);
        const std::size_t jz = emit({P::Jz, 0, dst, 0});
        emit({P::LoadOne, dst, 0, 0});
        const std::size_t jend = emit({P::Jmp, 0, 0, 0});
        patch(jz, here());
        compile(*n.b, dst);
        emit({P::Bool, dst, dst, 0});
        patch(jend, here());
        return;
      }
      case Op::Ternary: {
        compile(*n.a, dst);
        const std::size_t jz = emit({P::Jz, 0, dst, 0});
        compile(*n.b, dst);
        const std::size_t jend = emit({P::Jmp, 0, 0, 0});
        patch(jz, here());
        compile(*n.c, dst);
        patch(jend, here());
        return;
      }
    }
    throw ExprError("corrupt expression node");
  }

 private:
  void binary(const Expr::Node& n, Program::Op op, std::uint16_t dst) {
    compile(*n.a, dst);
    compile(*n.b, static_cast<std::uint16_t>(dst + 1));
    emit({op, dst, dst, static_cast<std::uint16_t>(dst + 1)});
  }

  // Expr::eval evaluates the divisor first and throws on zero
  // before ever touching the dividend; compile in the same order.
  void division(const Expr::Node& n, Program::Op op, Program::Op chk,
                std::uint16_t dst) {
    compile(*n.b, dst);
    emit({chk, 0, dst, 0});
    compile(*n.a, static_cast<std::uint16_t>(dst + 1));
    emit({op, dst, static_cast<std::uint16_t>(dst + 1), dst});
  }

  std::uint16_t intern_const(long v) {
    for (std::size_t i = 0; i < p_.consts_.size(); ++i) {
      if (p_.consts_[i] == v) return static_cast<std::uint16_t>(i);
    }
    p_.consts_.push_back(v);
    return static_cast<std::uint16_t>(p_.consts_.size() - 1);
  }

  std::size_t emit(Program::Instr i) {
    p_.code_.push_back(i);
    return p_.code_.size() - 1;
  }

  std::uint16_t here() const {
    return static_cast<std::uint16_t>(p_.code_.size());
  }

  void patch(std::size_t at, std::uint16_t target) {
    p_.code_[at].b = target;
  }

  void touch(std::uint16_t dst) {
    // division() uses dst + 1 as scratch even though binary() owns the
    // "+ 1 per operand" growth, so reserve one past the deepest dst seen.
    if (static_cast<std::uint16_t>(dst + 2) > p_.reg_count_) {
      p_.reg_count_ = static_cast<std::uint16_t>(dst + 2);
    }
  }

  Program& p_;
  const Program::SlotMap& slots_;
};

Program Program::compile(const Expr& expr, const SlotMap& slots) {
  Program p;
  ProgramCompiler(p, slots).compile(expr.root(), 0);
  return p;
}

long Program::run(const Slots& slots, long* r) const {
  const Instr* code = code_.data();
  const std::size_t n = code_.size();
  std::size_t pc = 0;
  while (pc < n) {
    const Instr& i = code[pc];
    switch (i.op) {
      case Op::Const: r[i.dst] = consts_[i.a]; break;
      case Op::Slot:
        if (!slots.defined[i.a]) {
          throw EvalError("unknown identifier '" + (*slots.names)[i.a] + "'");
        }
        r[i.dst] = slots.values[i.a];
        break;
      case Op::Missing:
        throw EvalError("unknown identifier '" + missing_[i.a] + "'");
      case Op::Neg: r[i.dst] = -r[i.a]; break;
      case Op::Not: r[i.dst] = r[i.a] == 0 ? 1 : 0; break;
      case Op::Add: r[i.dst] = r[i.a] + r[i.b]; break;
      case Op::Sub: r[i.dst] = r[i.a] - r[i.b]; break;
      case Op::Mul: r[i.dst] = r[i.a] * r[i.b]; break;
      case Op::Div: r[i.dst] = r[i.a] / r[i.b]; break;
      case Op::Mod: r[i.dst] = r[i.a] % r[i.b]; break;
      case Op::ChkDiv:
        if (r[i.a] == 0) throw EvalError("division by zero");
        break;
      case Op::ChkMod:
        if (r[i.a] == 0) throw EvalError("modulo by zero");
        break;
      case Op::Eq: r[i.dst] = r[i.a] == r[i.b] ? 1 : 0; break;
      case Op::Ne: r[i.dst] = r[i.a] != r[i.b] ? 1 : 0; break;
      case Op::Lt: r[i.dst] = r[i.a] < r[i.b] ? 1 : 0; break;
      case Op::Le: r[i.dst] = r[i.a] <= r[i.b] ? 1 : 0; break;
      case Op::Gt: r[i.dst] = r[i.a] > r[i.b] ? 1 : 0; break;
      case Op::Ge: r[i.dst] = r[i.a] >= r[i.b] ? 1 : 0; break;
      case Op::Bool: r[i.dst] = r[i.a] != 0 ? 1 : 0; break;
      case Op::LoadOne: r[i.dst] = 1; break;
      case Op::Jz:
        if (r[i.a] == 0) {
          pc = i.b;
          continue;
        }
        break;
      case Op::Jmp:
        pc = i.b;
        continue;
    }
    ++pc;
  }
  return r[0];
}

// ---------------------------------------------------------------------------
// CompiledMachine
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kCompletionBound = 1000;

}  // namespace

std::uint16_t CompiledMachine::intern_slot(const std::string& name) {
  auto it = slot_index_.find(name);
  if (it != slot_index_.end()) return it->second;
  const auto idx = static_cast<std::uint16_t>(slot_names_.size());
  slot_names_.push_back(name);
  slot_index_.emplace(name, idx);
  return idx;
}

Program CompiledMachine::lower(const std::string& text) {
  const Expr expr = Expr::compile(text);
  // Intern every referenced identifier so reads hit the slot file and the
  // per-slot defined bit reproduces Expr::eval's lazy unknown-identifier
  // errors (dynamic variables created by Assign later become defined).
  Program::SlotMap map;
  for (const std::string& id : expr.identifiers()) {
    map.emplace(id, intern_slot(id));
  }
  Program p = Program::compile(expr, map);
  if (p.reg_count() > max_regs_) max_regs_ = p.reg_count();
  return p;
}

CompiledMachine::Action CompiledMachine::lower_action(const uml::Action& a) {
  Action out;
  out.kind = a.kind;
  switch (a.kind) {
    case uml::Action::Kind::Assign:
      out.slot = intern_slot(a.var);
      out.name = a.var;
      out.expr = lower(a.expr);
      break;
    case uml::Action::Kind::Compute:
      out.expr = lower(a.expr);
      break;
    case uml::Action::Kind::Send:
      out.port = a.port;
      out.signal = a.signal;
      out.args.reserve(a.args.size());
      for (const std::string& arg : a.args) out.args.push_back(lower(arg));
      break;
    case uml::Action::Kind::SetTimer:
      out.name = a.var;
      out.expr = lower(a.expr);
      break;
    case uml::Action::Kind::ResetTimer:
      out.name = a.var;
      break;
  }
  return out;
}

CompiledMachine::CompiledMachine(const uml::StateMachine& sm) : sm_(&sm) {
  // Declared variables first: initials are applied in declaration order
  // (later duplicates win).
  for (const auto& [var, initial] : sm.variables()) {
    initials_.emplace_back(intern_slot(var), initial);
  }

  std::unordered_map<const uml::State*, std::uint32_t> state_index;
  states_.reserve(sm.states().size());
  for (const uml::State* s : sm.states()) {
    state_index.emplace(s, static_cast<std::uint32_t>(states_.size()));
    State st;
    st.name = s->name();
    for (const uml::Action& a : s->entry_actions()) {
      st.entry.push_back(lower_action(a));
    }
    states_.push_back(std::move(st));
  }
  if (const uml::State* initial = sm.initial_state()) {
    initial_ = state_index.at(initial);
  }

  std::unordered_map<const uml::Transition*, std::uint32_t> transition_index;
  transitions_.reserve(sm.transitions().size());
  for (const uml::Transition* t : sm.transitions()) {
    transition_index.emplace(t, static_cast<std::uint32_t>(transitions_.size()));
    Transition tr;
    tr.trigger_signal = t->trigger_signal();
    tr.trigger_port = t->trigger_port();
    tr.trigger_timer = t->trigger_timer();
    tr.completion = t->is_completion();
    if (!t->guard().empty()) {
      tr.has_guard = true;
      tr.guard = lower(t->guard());
    }
    for (const uml::Action& a : t->effects()) {
      tr.effects.push_back(lower_action(a));
    }
    tr.target = state_index.at(t->target());
    transitions_.push_back(std::move(tr));

    // Every parameter of a trigger signal gets a slot: deliveries overlay
    // them so guards and effects see the event's arguments.
    if (const uml::Signal* sig = t->trigger_signal();
        sig != nullptr && !params_.count(sig)) {
      std::vector<std::uint16_t> slots;
      slots.reserve(sig->parameters().size());
      for (const auto& param : sig->parameters()) {
        slots.push_back(intern_slot(param.name));
      }
      params_.emplace(sig, std::move(slots));
    }
  }

  // Outgoing dispatch tables in declaration-priority order
  // (uml::StateMachine::outgoing).
  for (const uml::State* s : sm.states()) {
    std::vector<std::uint32_t>& out = states_[state_index.at(s)].outgoing;
    for (const uml::Transition* t : sm.outgoing(*s)) {
      out.push_back(transition_index.at(t));
    }
  }
}

std::uint16_t CompiledMachine::slot_of(std::string_view name) const {
  // slot_index_ is keyed by std::string; the map is tiny and this lookup is
  // off the hot path (introspection only).
  auto it = slot_index_.find(std::string(name));
  return it == slot_index_.end() ? kNoSlot : it->second;
}

const std::vector<std::uint16_t>* CompiledMachine::param_slots(
    const uml::Signal* s) const {
  auto it = params_.find(s);
  return it == params_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// CompiledInstance
// ---------------------------------------------------------------------------

CompiledInstance::CompiledInstance(const CompiledMachine& machine,
                                   std::string name)
    : machine_(&machine),
      name_(std::move(name)),
      slots_(machine.slot_count(), 0),
      defined_(machine.slot_count(), 0),
      regs_(machine.max_regs(), 0),
      slot_stamp_(machine.slot_count(), 0) {
  init_slots();
}

void CompiledInstance::init_slots() {
  std::fill(slots_.begin(), slots_.end(), 0);
  std::fill(defined_.begin(), defined_.end(), 0);
  for (const auto& [slot, initial] : machine_->initial_values()) {
    slots_[slot] = initial;
    defined_[slot] = 1;
  }
}

long CompiledInstance::eval(const Program& p) {
  Program::Slots ctx;
  ctx.values = slots_.data();
  ctx.defined = defined_.data();
  ctx.names = &machine_->slot_names();
  return p.run(ctx, regs_.data());
}

StepResult CompiledInstance::start() {
  StepResult result;
  if (machine_->initial_state() == CompiledMachine::kNoState) {
    throw std::logic_error("state machine '" + machine_->source().name() +
                           "' has no initial state");
  }
  enter(machine_->initial_state(), result);
  run_completions(result);
  return result;
}

StepResult CompiledInstance::reset() {
  state_ = CompiledMachine::kNoState;
  init_slots();
  return start();
}

void CompiledInstance::rewind() {
  state_ = CompiledMachine::kNoState;
  init_slots();
  overlay_.clear();
  std::fill(slot_stamp_.begin(), slot_stamp_.end(), 0);
  step_ = 0;
}

const CompiledMachine::Transition* CompiledInstance::find_transition(
    const Event* event, const std::string& timer) {
  const auto& transitions = machine_->transitions();
  for (std::uint32_t ti : machine_->states()[state_].outgoing) {
    const CompiledMachine::Transition& t = transitions[ti];
    if (event != nullptr) {
      if (t.trigger_signal != event->signal) continue;
      if (!t.trigger_port.empty() && t.trigger_port != event->port) continue;
    } else if (!timer.empty()) {
      if (t.trigger_timer != timer) continue;
    } else {
      if (!t.completion) continue;
    }
    if (t.has_guard && eval(t.guard) == 0) continue;
    return &t;
  }
  return nullptr;
}

void CompiledInstance::execute_actions(
    const std::vector<CompiledMachine::Action>& actions, StepResult& result) {
  for (const CompiledMachine::Action& a : actions) {
    switch (a.kind) {
      case uml::Action::Kind::Assign: {
        const long v = eval(a.expr);
        slots_[a.slot] = v;
        defined_[a.slot] = 1;
        slot_stamp_[a.slot] = step_;
        break;
      }
      case uml::Action::Kind::Compute:
        result.compute_cycles += eval(a.expr);
        break;
      case uml::Action::Kind::Send: {
        Send send;
        send.port = a.port;
        send.signal = a.signal;
        send.args.reserve(a.args.size());
        for (const Program& arg : a.args) send.args.push_back(eval(arg));
        result.sends.push_back(std::move(send));
        break;
      }
      case uml::Action::Kind::SetTimer:
        result.timers.push_back({TimerOp::Kind::Set, a.name, eval(a.expr)});
        break;
      case uml::Action::Kind::ResetTimer:
        result.timers.push_back({TimerOp::Kind::Reset, a.name, 0});
        break;
    }
  }
}

void CompiledInstance::enter(std::uint32_t state, StepResult& result) {
  state_ = state;
  execute_actions(machine_->states()[state].entry, result);
}

void CompiledInstance::run_completions(StepResult& result) {
  for (std::size_t i = 0; i < kCompletionBound; ++i) {
    const CompiledMachine::Transition* t = find_transition(nullptr, "");
    if (t == nullptr) return;
    execute_actions(t->effects, result);
    ++result.transitions_taken;
    enter(t->target, result);
  }
  throw LivelockError("instance '" + name_ + "' chained more than " +
                      std::to_string(kCompletionBound) +
                      " completion transitions in state '" +
                      machine_->states()[state_].name + "'");
}

void CompiledInstance::restore_overlay() {
  // Reverse order so a parameter name listed twice restores the original
  // value; slots assigned during this step keep their assigned value
  // (assignments write through to the persistent variables, while
  // parameters live only for the triggering transition's effects).
  for (auto it = overlay_.rbegin(); it != overlay_.rend(); ++it) {
    if (slot_stamp_[it->slot] == step_) continue;
    slots_[it->slot] = it->value;
    defined_[it->slot] = it->defined;
  }
  overlay_.clear();
}

StepResult CompiledInstance::deliver(const Event& event) {
  StepResult result;
  if (state_ == CompiledMachine::kNoState) {
    throw std::logic_error("instance '" + name_ + "' not started");
  }
  ++step_;
  overlay_.clear();
  if (event.signal != nullptr) {
    if (const auto* slots = machine_->param_slots(event.signal)) {
      for (std::size_t i = 0; i < slots->size(); ++i) {
        const std::uint16_t slot = (*slots)[i];
        overlay_.push_back({slot, slots_[slot], defined_[slot]});
        slots_[slot] = i < event.args.size() ? event.args[i] : 0;
        defined_[slot] = 1;
      }
    }
  }
  try {
    const CompiledMachine::Transition* t = find_transition(&event, "");
    if (t == nullptr) {
      restore_overlay();
      return result;  // unhandled signals are discarded
    }
    result.fired = true;
    execute_actions(t->effects, result);
    // Entry actions and completions see persistent variables only.
    restore_overlay();
    ++result.transitions_taken;
    enter(t->target, result);
    run_completions(result);
  } catch (...) {
    restore_overlay();  // no-op when already restored
    throw;
  }
  return result;
}

StepResult CompiledInstance::timer_fired(const std::string& timer) {
  StepResult result;
  if (state_ == CompiledMachine::kNoState) {
    throw std::logic_error("instance '" + name_ + "' not started");
  }
  const CompiledMachine::Transition* t = find_transition(nullptr, timer);
  if (t == nullptr) return result;  // stale timer: discard
  result.fired = true;
  execute_actions(t->effects, result);
  ++result.transitions_taken;
  enter(t->target, result);
  run_completions(result);
  return result;
}

const std::string& CompiledInstance::state_name() const {
  static const std::string kEmpty;
  if (state_ == CompiledMachine::kNoState) return kEmpty;
  return machine_->states()[state_].name;
}

long CompiledInstance::variable(const std::string& name) const {
  const std::uint16_t slot = machine_->slot_of(name);
  if (slot == kNoSlot || !defined_[slot]) {
    throw std::out_of_range("instance '" + name_ + "' has no variable '" +
                            name + "'");
  }
  return slots_[slot];
}

}  // namespace tut::efsm
