//===- SharedProgram.h - Process-shared immutable program state -*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The read-only half of a running simulation, split out so many sessions
/// can share it. Constructing a Simulation used to rebuild the packed
/// ExecPlan per instance and required the caller to keep the target image
/// alive; a SharedProgram bundles everything that is immutable for the
/// lifetime of a program — the compiled program, the target image and the
/// execution plan compiled from it — behind const accessors. N simulations
/// constructed over one SharedProgram reference this state without copying
/// it, while every piece of mutable state (registers, target memory, the
/// action cache, statistics) stays private per Simulation.
///
/// Thread-safety contract: a SharedProgram is deeply immutable after
/// construction, so any number of threads may construct, step and destroy
/// Simulations over the same instance concurrently without locking. The
/// one deliberate escape hatch is Simulation::mutablePlan(), which
/// privatizes the plan (copy-on-write) before handing out a mutable
/// reference — a fault injector truncating one session's plan never
/// touches its siblings.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_RUNTIME_SHAREDPROGRAM_H
#define FACILE_RUNTIME_SHAREDPROGRAM_H

#include "src/facile/Compiler.h"
#include "src/isa/TargetImage.h"
#include "src/runtime/ExecPlan.h"

#include <memory>
#include <mutex>

namespace facile {

namespace jit {
class JitCache;
struct JitRuntimeHooks;
} // namespace jit

namespace rt {

/// One compiled Facile program bound to one target image, with the packed
/// execution plan built once. \p Prog must outlive this object (the
/// process-wide simulatorProgram() cache satisfies that); the image is
/// owned.
class SharedProgram {
public:
  SharedProgram(const CompiledProgram &Prog, isa::TargetImage Image);
  ~SharedProgram(); ///< out-of-line: JitCache is forward-declared

  const CompiledProgram &program() const { return Prog; }
  const isa::TargetImage &image() const { return Image; }
  const ExecPlan &plan() const { return Plan; }

  /// The process-shared JIT code cache for this plan, built lazily on the
  /// first Jit-backend session. The one internally-synchronized exception
  /// to "deeply immutable": the cache is monotonic (code is only ever
  /// added, entry points flip null -> published once) and thread-safe, so
  /// the concurrency contract above still holds — sessions on any thread
  /// may trip compilations and run each other's published code.
  jit::JitCache &jitCache(const jit::JitRuntimeHooks &Hooks) const;
  /// The code cache if a Jit-backend session built it, else null (for
  /// reporting; builds nothing).
  const jit::JitCache *builtJitCache() const;

  SharedProgram(const SharedProgram &) = delete;
  SharedProgram &operator=(const SharedProgram &) = delete;

private:
  const CompiledProgram &Prog;
  const isa::TargetImage Image;
  const ExecPlan Plan;
  mutable std::mutex JitMu;
  mutable std::unique_ptr<jit::JitCache> Jit;
};

} // namespace rt
} // namespace facile

#endif // FACILE_RUNTIME_SHAREDPROGRAM_H
