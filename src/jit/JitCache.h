//===- JitCache.h - Per-plan compiled-action cache --------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile queue and code store for one ExecPlan. Like the plan it is
/// compiled from, a JitCache is shared by every session running that plan
/// (SharedProgram holds one lazily; owned-plan simulations hold a private
/// one), so all mutation is thread-safe:
///
///  - visit counters are relaxed atomics bumped from the replay loop and
///    the slow engine;
///  - compilation is serialized by a mutex and happens at most once per
///    action, and once per plan for the slow-step function (success or a
///    permanent "leave it interpreted" verdict);
///  - entry points are published by a release store after the W^X arena
///    flipped the chunk read-execute; the engines acquire-load them, so a
///    non-null pointer always sees finished code.
///
/// Two variants exist per action — guarded and unguarded — differing only
/// in the Fetch template (bail vs produce-0 on out-of-range addresses),
/// mirroring the two interpreter instantiations.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_JIT_JITCACHE_H
#define FACILE_JIT_JITCACHE_H

#include "src/jit/JitArena.h"
#include "src/jit/JitEmitter.h"

#include <atomic>
#include <memory>
#include <mutex>

namespace facile {
namespace jit {

class JitCache {
public:
  /// \p Prog, \p Plan and \p Image must outlive the cache and never mutate
  /// while any published code can still run (Simulation privatizing its
  /// plan detaches from the cache first).
  JitCache(const CompiledProgram &Prog, const rt::ExecPlan &Plan,
           const isa::TargetImage &Image, const JitRuntimeHooks &Hooks);

  JitCache(const JitCache &) = delete;
  JitCache &operator=(const JitCache &) = delete;

  uint32_t actionCount() const { return NumActions; }

  /// The emit context built for this plan — shared with the trace tier so
  /// both compile against identical constants.
  const EmitContext &ctx() const { return Ctx; }

  /// The compiled entry point for \p Action in the given guard mode, or
  /// null while it is still interpreted.
  JitFn fn(uint32_t Action, bool Guarded) const {
    return (Guarded ? GuardedFns : UnguardedFns)[Action].load(
        std::memory_order_acquire);
  }

  /// Placeholder words the compiled action consumes. Only meaningful once
  /// fn() returned non-null (the acquire load orders this read); callers
  /// must verify a node's DataLen equals this before running native code.
  uint32_t words(uint32_t Action) const { return Words[Action]; }

  /// Counts one interpreted replay visit; compiles the action once the
  /// count reaches \p Threshold (sessions may configure different trip
  /// points over one shared cache — first to trip compiles).
  void noteVisit(uint32_t Action, uint32_t Threshold);

  //===-- Slow-step function -----------------------------------------------
  // The whole slow stream compiles once per plan, into one function per
  // variant — Guarded × Recording — that the slow engine calls on every
  // cold or unmemoized step. It trips on the plan's slow-step count, and
  // compiles all blocks or none.

  /// The compiled slow-step function for the variant, or null while the
  /// slow stream is interpreted.
  JitSlowFn slowFn(bool Guarded, bool Recording) const {
    return SlowFns[variant(Guarded, Recording)].load(
        std::memory_order_acquire);
  }
  /// The most placeholder words one recording call can capture.
  /// Meaningful once slowFn() returned non-null.
  uint32_t slowCaptureWords() const { return SlowWords; }
  /// Counts one interpreted slow step; compiles all four variants once the
  /// count reaches \p Threshold.
  void noteSlowStep(uint32_t Threshold);

  uint64_t compiledActions() const {
    return Compiled.load(std::memory_order_relaxed);
  }
  /// Blocks covered by the compiled slow-step function (0 until then).
  uint64_t compiledBlocks() const {
    return CompiledBlocks.load(std::memory_order_relaxed);
  }
  /// Microseconds spent compiling the slow-step function.
  uint64_t slowCompileMicros() const {
    return SlowCompileUs.load(std::memory_order_relaxed);
  }
  uint64_t codeBytes() const {
    return CodeBytes.load(std::memory_order_relaxed);
  }

private:
  enum : uint8_t { Cold = 0, Published = 1, NoCompile = 2 };

  static unsigned variant(bool Guarded, bool Recording) {
    return (Guarded ? 2u : 0u) + (Recording ? 1u : 0u);
  }

  void compileLocked(uint32_t Action);
  void compileSlowLocked();

  EmitContext Ctx;
  uint32_t NumActions = 0;
  std::unique_ptr<std::atomic<JitFn>[]> GuardedFns;
  std::unique_ptr<std::atomic<JitFn>[]> UnguardedFns;
  std::unique_ptr<std::atomic<uint32_t>[]> Visits;
  std::unique_ptr<std::atomic<uint8_t>[]> State;
  std::vector<uint32_t> Words; ///< written under Mu before publication
  std::atomic<JitSlowFn> SlowFns[4]; ///< by variant()
  std::atomic<uint32_t> SlowSteps{0};
  std::atomic<uint8_t> SlowState{Cold};
  uint32_t SlowWords = 0; ///< written under Mu before publication
  std::mutex Mu;
  JitArena Arena;
  std::atomic<uint64_t> Compiled{0};
  std::atomic<uint64_t> CompiledBlocks{0};
  std::atomic<uint64_t> SlowCompileUs{0};
  std::atomic<uint64_t> CodeBytes{0};
};

} // namespace jit
} // namespace facile

#endif // FACILE_JIT_JITCACHE_H
