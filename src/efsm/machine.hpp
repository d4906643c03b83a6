// EFSM step surface: the values exchanged between the co-simulator and the
// executor that steps an application process's state machine.
//
// Delivery of a signal or timer event fires the first eligible transition
// (declaration order, guard satisfied), executes its effect actions plus the
// target state's entry actions, then chains any eligible completion
// transitions. The executor does not own time or communication:
// computation cycles, outgoing sends and timer requests are returned in a
// StepResult for the co-simulator to realize. Executors are the bytecode
// interpreter (efsm::CompiledInstance) and out-of-line backends behind
// sim::ProcExecutor.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "uml/structure.hpp"

namespace tut::efsm {

/// An incoming signal occurrence.
struct Event {
  const uml::Signal* signal = nullptr;
  std::string port;        ///< receiving port on the process's class
  std::vector<long> args;  ///< one value per signal parameter
};

/// An outgoing signal occurrence produced by a Send action.
struct Send {
  std::string port;  ///< sending port
  const uml::Signal* signal = nullptr;
  std::vector<long> args;
};

/// A timer request produced by SetTimer / ResetTimer actions.
struct TimerOp {
  enum class Kind { Set, Reset };
  Kind kind;
  std::string name;
  long delay = 0;  ///< Set only
};

/// Everything one event delivery produced.
struct StepResult {
  bool fired = false;             ///< an eligible transition was found
  long compute_cycles = 0;        ///< total cycles from Compute actions
  std::vector<Send> sends;        ///< in action order
  std::vector<TimerOp> timers;    ///< in action order
  std::size_t transitions_taken = 0;  ///< incl. chained completions
};

/// Thrown when completion transitions chain beyond a sane bound (a modelling
/// error: a guard-true completion cycle).
class LivelockError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

}  // namespace tut::efsm
