//===- JitCache.h - Per-plan slow-step code cache ---------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The code store for one ExecPlan: its slow-step function and the emit
/// context the trace tier compiles against. Like the plan it is compiled
/// from, a JitCache is shared by every session running that plan
/// (SharedProgram holds one lazily; owned-plan simulations hold a private
/// one), so all mutation is thread-safe:
///
///  - the slow-step counter is a relaxed atomic bumped from the slow
///    engine;
///  - compilation is serialized by a mutex and happens at most once per
///    plan (success or a permanent "leave it interpreted" verdict);
///  - entry points are published by a release store after the W^X arena
///    flipped the chunk read-execute; the slow engine acquire-loads them,
///    so a non-null pointer always sees finished code.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_JIT_JITCACHE_H
#define FACILE_JIT_JITCACHE_H

#include "src/jit/JitArena.h"
#include "src/jit/JitEmitter.h"

#include <atomic>
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

  /// The emit context built for this plan — shared with the trace tier so
  /// both compile against identical constants.
  const EmitContext &ctx() const { return Ctx; }

  //===-- Slow-step function -----------------------------------------------
  // The whole slow stream compiles once per plan, into two functions —
  // recording and not — that the slow engine calls on every cold or
  // unmemoized step. It trips on the plan's slow-step count, and
  // compiles all blocks or none.

  /// The compiled slow-step function, or null while the slow stream is
  /// interpreted.
  JitSlowFn slowFn(bool Recording) const {
    return SlowFns[Recording].load(std::memory_order_acquire);
  }
  /// The most placeholder words one recording call can capture.
  /// Meaningful once slowFn() returned non-null.
  uint32_t slowCaptureWords() const { return SlowWords; }
  /// Counts one interpreted slow step; compiles both functions once the
  /// count reaches \p Threshold.
  void noteSlowStep(uint32_t Threshold);

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

  void compileSlowLocked();

  EmitContext Ctx;
  std::atomic<JitSlowFn> SlowFns[2]; ///< by Recording
  std::atomic<uint32_t> SlowSteps{0};
  std::atomic<uint8_t> SlowState{Cold};
  uint32_t SlowWords = 0; ///< written under Mu before publication
  std::mutex Mu;
  JitArena Arena;
  std::atomic<uint64_t> CompiledBlocks{0};
  std::atomic<uint64_t> SlowCompileUs{0};
  std::atomic<uint64_t> CodeBytes{0};
};

} // namespace jit
} // namespace facile

#endif // FACILE_JIT_JITCACHE_H
