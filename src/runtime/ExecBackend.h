//===- ExecBackend.h - Engine-dispatch strategy for a Simulation -*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-backend seam: one object per Simulation deciding *how*
/// memoized steps execute. Simulation::step() owns the policy around a step
/// (keys, INDEX chaining, admission, eviction, fault framing) and delegates
/// the engine work — record a cold step, replay a cached entry — to its
/// backend:
///
///  - InterpretBackend runs the template-specialized interpreter loops
///    exactly as before this seam existed; it is the fallback everywhere
///    the template JIT cannot run (non-x86-64 hosts, --jit=off).
///  - JitBackend additionally arms the engines with a jit::JitSession: the
///    slow engine calls the plan's compiled slow-step function (built by
///    the plan's jit::JitCache), and a hot entry (replays >=
///    Options::JitThreshold) binds to a compiled trace shape that replays
///    the step in one native call and chains into the next one under
///    run(). Bail codes map onto the same faults the interpreter raises.
///
/// Both backends record and replay bit-identically — BackendKind never
/// enters compatKey().
///
/// The three on*() hooks are the invalidation contract (INTERNALS.md "JIT
/// backend"): compiled code bakes plan and image constants plus raw state
/// pointers, so the owner must be told when state vectors are replaced
/// (refresh the frame), when the cache arenas are rebuilt (trace bindings
/// name node ids, so they are dropped), and when the plan is privatized for
/// mutation (native code for the old plan must never run again).
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_RUNTIME_EXECBACKEND_H
#define FACILE_RUNTIME_EXECBACKEND_H

#include "src/runtime/Simulation.h"

namespace facile {

namespace jit {
struct JitRuntimeHooks;
} // namespace jit

namespace rt {

/// How a Simulation executes memoized steps. Backends are stateful peers
/// of the engines, not wrappers around them: they share the Simulation's
/// private state (friendship) because record/replay *are* the engines.
class ExecBackend {
public:
  explicit ExecBackend(Simulation &Sim) : Sim(Sim) {}
  virtual ~ExecBackend();

  ExecBackend(const ExecBackend &) = delete;
  ExecBackend &operator=(const ExecBackend &) = delete;

  /// The resolved backend name: "interpret" or "jit".
  virtual const char *name() const = 0;
  virtual BackendKind kind() const = 0;

  /// Replays cache entry \p Entry (looked up under \p Key) through the
  /// fast simulator. \p ChainFrom is the End node whose NextKey gave
  /// \p Key by an INDEX-chain hit, or ActionNode::NoNode. The base
  /// implementation is the interpreter replay; JitBackend keeps it too —
  /// the loop dispatches a bound entry's trace — after binding hot entries
  /// and filling the chain link \p ChainFrom's hit names.
  virtual Simulation::ReplayResult replay(EntryId Entry, KeyId Key,
                                          uint32_t ChainFrom);

  /// Records one step through the slow simulator (\p Rec may be NoId for
  /// unrecorded slow steps: memoization off, or an unadmitted first touch).
  virtual void record(EntryId Rec);

  //===-- Invalidation hooks -------------------------------------------------
  // Called by Simulation at every point where state a backend may have
  // cached becomes stale. All default to no-ops (the interpreter caches
  // nothing between steps).

  /// deserializeState() replaced the dynamic-state vectors (their data
  /// pointers moved).
  virtual void onStateReplaced() {}
  /// The action-cache arenas were rebuilt: eviction, adoptCacheImage(),
  /// attachCacheBase() / detachCacheBase().
  virtual void onCacheRebuilt() {}
  /// mutablePlan() handed out a mutable reference to the plan this
  /// simulation executes. Anything compiled from the plan is now suspect
  /// and must be retired before the caller mutates it.
  virtual void onPlanPrivatized() {}

  /// Emits the "jit" metric group (RuntimeMetrics.cpp). The base
  /// implementation reports the interpret shape with zeroed counters so
  /// the statsJson schema is identical across backends.
  virtual void exportMetrics(telemetry::MetricSink &Sink) const;

  /// Artifacts compiled to native code so far across both tiers
  /// (slow-step blocks + trace shapes; 0 on the interpreter) — the cheap
  /// programmatic probe for "did the JIT actually engage". The metric
  /// group keeps the per-tier breakdown.
  virtual uint64_t compiledActions() const { return 0; }

  /// Steps entered by a native chain jump so far (jit.chained_steps; 0 on
  /// the interpreter).
  virtual uint64_t chainedSteps() const { return 0; }

protected:
  Simulation &Sim;
};

/// Builds the backend for \p Sim. \p Kind is resolved first: Auto follows
/// the FACILE_JIT environment override (on/jit vs off/interpret) and then
/// picks Jit wherever jit::available(); an explicit Jit request on a host
/// without JIT support degrades to Interpret — never an error. A Jit
/// backend compiles into the SharedProgram's lazily-built shared code
/// cache when the plan is shared, else into a private per-simulation one.
std::unique_ptr<ExecBackend> makeExecBackend(Simulation &Sim,
                                             BackendKind Kind);

/// The process-wide table of runtime services compiled code calls out to
/// (memory access, extern dispatch, print).
const jit::JitRuntimeHooks &jitRuntimeHooks();

} // namespace rt
} // namespace facile

#endif // FACILE_RUNTIME_EXECBACKEND_H
