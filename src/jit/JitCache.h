//===- JitCache.h - Per-plan code cache: slow step and trace shapes -*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The code store for one ExecPlan: its slow-step function, its trace
/// shapes and chain stub, and the emit context both compile against. Like
/// the plan it is compiled from, a JitCache is shared by every session
/// running that plan (SharedProgram holds one lazily; owned-plan
/// simulations hold a private one), so all mutation is thread-safe:
///
///  - the slow-step counter is a relaxed atomic bumped from the slow
///    engine;
///  - compilation is serialized by a mutex: the slow-step function at most
///    once per plan (success or a permanent "leave it interpreted"
///    verdict), each trace shape at most once per plan;
///  - code lives in a JitArena, whose executable views never change
///    protection, so publishing never disturbs code another thread runs;
///  - slow-step entry points are published by a release store; the slow
///    engine acquire-loads them, so a non-null pointer always sees
///    finished code. Shapes are handed out under the mutex and immutable
///    once published.
///
/// Shapes name no cache node and no session state: code reads everything
/// session-mutable through the JitFrame and a binding's table (JitTrace.h),
/// so one compiled shape serves every entry of every session with the
/// same tree. Bindings, slots and chain links stay per session.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_JIT_JITCACHE_H
#define FACILE_JIT_JITCACHE_H

#include "src/jit/JitArena.h"
#include "src/jit/JitEmitter.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace facile {
namespace jit {

/// Compiled code for one trace-shape descriptor sequence, shared by every
/// entry bound to it in any session of the plan.
struct TraceShape {
  JitTraceFn Fn = nullptr;
  const uint8_t *Body = nullptr; ///< Fn past its prologue (chain entry)
  uint32_t Cells = 0; ///< table cells a binding takes: pairs, then links
  uint32_t LinkBytes = 0; ///< bytes per End exit's link (0: no chaining)
  std::vector<TraceNodeDesc> Nodes; ///< the key
  std::vector<TraceExitDesc> Exits; ///< indexed by Fn's return value
  /// Per descriptor: its DFS parent (TraceNoSucc at the head), the
  /// outcome by which the parent reaches it (Plain edges record 0) and
  /// its depth below the head — what a side exit needs to rebuild the
  /// replayed prefix from a binding.
  struct Link {
    uint32_t Parent = TraceNoSucc;
    uint32_t Depth = 0;
    int64_t Value = 0;
  };
  std::vector<Link> Links;
};

class JitCache {
public:
  /// \p Prog, \p Plan and \p Image must outlive the cache and never mutate
  /// while any published code can still run (Simulation privatizing its
  /// plan detaches from the cache first).
  JitCache(const CompiledProgram &Prog, const rt::ExecPlan &Plan,
           const isa::TargetImage &Image, const JitRuntimeHooks &Hooks);

  JitCache(const JitCache &) = delete;
  JitCache &operator=(const JitCache &) = delete;

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
  /// The capture buffer (words and node log) a recording call needs.
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
  /// Bytes of the slow-step functions.
  uint64_t codeBytes() const {
    return CodeBytes.load(std::memory_order_relaxed);
  }

  //===-- Trace shapes -----------------------------------------------------

  /// The lookup hash of a descriptor sequence: one multiply per 64-bit
  /// word. Never persisted, so free to change.
  static uint64_t shapeHash(const std::vector<TraceNodeDesc> &Nodes);

  /// The shape keyed by exactly \p Nodes (\p Hash is shapeHash(Nodes)),
  /// compiled and published first when no session of the plan has yet;
  /// \p Compiled says this call did. Null when a node is inexpressible,
  /// the budget has no room for a new shape or no executable memory is
  /// available.
  const TraceShape *shape(const std::vector<TraceNodeDesc> &Nodes,
                          uint64_t Hash, bool &Compiled);

  /// The publishing half of shape(): copies \p Code into executable
  /// memory as the shape \p Nodes, with \p Exits its exit table, its body
  /// at \p BodyOfs and \p LinkBytes its link stride. Returns the equal
  /// shape instead when one exists, and null when the code does not fit
  /// the budget (which refuses every later new shape) or executable
  /// memory is unavailable.
  const TraceShape *addShape(const std::vector<TraceNodeDesc> &Nodes,
                             uint64_t Hash,
                             const std::vector<TraceExitDesc> &Exits,
                             const std::vector<uint8_t> &Code,
                             uint32_t BodyOfs, uint32_t LinkBytes);

  /// The plan's chain stub (see jit::emitChainStub), emitted with the
  /// first shape; null until then, or when the program's compared key
  /// words do not fit the stub. Shapes compiled with a non-zero LinkBytes
  /// jump to it, so it is published before any of them.
  const void *chainStub() const {
    return ChainStub.load(std::memory_order_acquire);
  }

  /// True once shape code no longer fits MaxCodeBytes: only entries whose
  /// shape is already compiled can still bind.
  bool shapeBudgetSpent() const {
    return BudgetSpent.load(std::memory_order_relaxed);
  }
  /// Shapes compiled for this plan so far, by every session.
  uint64_t shapeCount() const {
    return Shapes.load(std::memory_order_relaxed);
  }
  /// Chunk bytes mapped for shape code and the chain stub.
  uint64_t traceCodeBytes() const {
    return TraceBytes.load(std::memory_order_relaxed);
  }

  /// Ceiling on chunk bytes of shape code per plan; once a new shape no
  /// longer fits, entries whose shape is not compiled stay interpreted
  /// instead of the code growing without bound. One shape serves every
  /// entry with the same tree in every session of the plan: at 1 M
  /// instructions and threshold 1, mgrid, tomcatv and swim make 2.0-9.1 K
  /// bindings to 122-197 shapes in 256-384 KB, so the ceiling only bites
  /// on shape-diverse runs (go, gcc and m88ksim fill it with 559-575
  /// shapes). Kept at 1 MB, the fastest budget measured when every entry
  /// had its own trace: it then held ~1.2-1.45 K traces, and 4 MB compiled
  /// 4-5 K and gained nothing, compile time and icache pressure eating the
  /// win.
  static constexpr uint64_t MaxCodeBytes = 1ull << 20;

private:
  enum : uint8_t { Cold = 0, Published = 1, NoCompile = 2 };

  void compileSlowLocked();
  const TraceShape *findLocked(const std::vector<TraceNodeDesc> &Nodes,
                               uint64_t Hash) const;
  const TraceShape *addShapeLocked(const std::vector<TraceNodeDesc> &Nodes,
                                   uint64_t Hash,
                                   const std::vector<TraceExitDesc> &Exits,
                                   const std::vector<uint8_t> &Code,
                                   uint32_t BodyOfs, uint32_t LinkBytes);
  /// Emits the chain stub on the first call; the link stride new shapes
  /// compile with (0 when there is no stub).
  uint32_t linkBytesLocked();

  EmitContext Ctx;
  std::atomic<JitSlowFn> SlowFns[2]; ///< by Recording
  std::atomic<uint32_t> SlowSteps{0};
  std::atomic<uint8_t> SlowState{Cold};
  uint32_t SlowWords = 0; ///< written under Mu before publication
  std::mutex Mu;
  JitArena Arena; ///< slow-step code
  std::atomic<uint64_t> CompiledBlocks{0};
  std::atomic<uint64_t> SlowCompileUs{0};
  std::atomic<uint64_t> CodeBytes{0};

  // Trace shapes; everything below is guarded by Mu unless atomic.
  JitArena TraceArena; ///< shape code and the chain stub
  /// Compiled shapes by key hash (node-based: shapes never move).
  std::unordered_multimap<uint64_t, std::unique_ptr<TraceShape>> ShapeMap;
  std::vector<ChainWord> ChainWords; ///< the program's compared key words
  std::atomic<const void *> ChainStub{nullptr};
  uint32_t LinkBytes = 0;
  bool ChainTried = false;
  std::vector<uint8_t> EmitCode; ///< shape emission buffers, reused
  std::vector<TraceExitDesc> EmitExits;
  std::atomic<bool> BudgetSpent{false};
  std::atomic<uint64_t> Shapes{0};
  std::atomic<uint64_t> TraceBytes{0};
};

} // namespace jit
} // namespace facile

#endif // FACILE_JIT_JITCACHE_H
