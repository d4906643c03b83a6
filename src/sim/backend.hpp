// tut::sim — pluggable process-behaviour backends.
//
// The simulator owns event routing, timing and logging; *how* one process
// steps its state machine is a backend decision. Two executors exist: the
// bytecode interpreter (efsm::CompiledInstance) and, through this
// interface, out-of-line executors such as codegen::NativeImage's
// dlopen'ed machine code. The interface is deliberately the exact
// CompiledInstance step surface — identical StepResults in, identical
// SimulationLogs out — so a backend swap is observable only through
// wall-clock time and the provenance fields (name + content hash) that
// batch and campaign runs record. Resource envelopes (sim::ResourceProfile)
// are part of that parity: caps live in the simulator layer (log, event
// queue), never in a backend, so an envelope miss raises the same
// EnvelopeError — same tag, same message, same sim time — under every
// executor, and in-envelope runs stay byte-identical across backends.
//
// sim must not depend on codegen (codegen links sim), so the simulator only
// sees these abstract classes; codegen::NativeImage implements them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "efsm/machine.hpp"

namespace tut::sim {

class CompiledModel;

/// Which executor a run steps its processes with. Interpreter is the
/// bytecode interpreter (the default for image-based runs); Native is a
/// generated-and-dlopen'ed BackendImage.
enum class Backend { Interpreter, Native };

/// Mutable per-process execution state behind a backend. Mirrors
/// efsm::CompiledInstance's stepping surface exactly, including which
/// exceptions escape (EvalError, LivelockError, std::logic_error) — the
/// simulator's fault handling and the lockstep tests rely on parity.
class ProcExecutor {
 public:
  virtual ~ProcExecutor() = default;
  virtual efsm::StepResult start() = 0;
  virtual efsm::StepResult reset() = 0;
  virtual efsm::StepResult deliver(const efsm::Event& event) = 0;
  virtual efsm::StepResult timer_fired(const std::string& timer) = 0;
  /// Rewind to the freshly-constructed state (CompiledInstance::rewind()).
  virtual void rewind() = 0;
};

/// A loaded behaviour image covering every process of one CompiledModel.
/// Shared and immutable: batch and campaign workers on any number of
/// threads draw executors from one image.
class BackendImage {
 public:
  virtual ~BackendImage() = default;
  /// The model this image was generated from; Simulation runs it for
  /// routing, mapping and timing while the image supplies behaviour.
  virtual std::shared_ptr<const CompiledModel> model() const = 0;
  /// Fresh executor for process `proc` (CompiledModel process index).
  virtual std::unique_ptr<ProcExecutor> make_executor(
      std::uint32_t proc) const = 0;
  /// Short backend name for provenance output, e.g. "native".
  virtual std::string_view name() const = 0;
  /// Content hash of the generated image (source + flags); 0 is reserved
  /// for "no image" (interpreter) in ScenarioSummary provenance.
  virtual std::uint64_t content_hash() const = 0;
};

}  // namespace tut::sim
