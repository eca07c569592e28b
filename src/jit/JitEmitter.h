//===- JitEmitter.h - x86-64 template emitter for fast streams --*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Copy-and-patch compilation of the plan's XInst streams to native
/// x86-64: one fixed instruction template per XOp, stitched in stream
/// order with the operand fields patched in as immediates and fixed
/// displacements. There is no IR and no register allocation — the CVC
/// observation applies: direct emission over a small opcode set already
/// removes the whole dispatch-and-decode cost that dominates replay. Two
/// kinds of function use the templates: the plan's slow-step function
/// (emitSlowStep) and entry-trace shapes (emitTrace), whose End exits
/// chain through a per-plan stub (emitChainStub).
///
/// Register plan (all callee-saved, so helper calls need no spills):
///   rbx  JitFrame*              r14  DynGlobals base
///   r12  DynSlots base          r15  TestValue accumulator
///   r13  span / capture cursor  rbp  function-specific (see each emitter)
/// rax/rcx/rdx/rsi/rdi/r8-r11 are per-template scratch. Every prologue
/// reserves a 128-byte extern argument scratch and keeps rsp 16-aligned at
/// every call site.
///
/// Placeholder reads of a fast stream compile to fixed `Span[K]`
/// displacements: the number of words an action consumes is a
/// compile-time constant of the plan, so a trace refuses any node whose
/// recorded DataLen differs from it.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_JIT_JITEMITTER_H
#define FACILE_JIT_JITEMITTER_H

#include "src/jit/JitAbi.h"
#include "src/runtime/ExecPlan.h"

#include <cstdint>
#include <vector>

namespace facile {

namespace isa {
struct TargetImage;
}

namespace jit {

/// Everything immutable the emitter bakes into code as constants.
struct EmitContext {
  const rt::ExecPlan *Plan = nullptr;
  const isa::TargetImage *Image = nullptr;
  uint32_t NumSlots = 0;
  /// Element count per global id; 0 for scalars.
  std::vector<uint32_t> ArraySizes;
  /// Element count per local-array id.
  std::vector<uint32_t> LocArraySizes;
  /// Per block id: the action id of an action block (the slow engine
  /// records a node for it), -1 for a fully rt-static block.
  std::vector<int32_t> BlockActions;
  JitRuntimeHooks Hooks;
};

/// Smallest capture buffer, in words, a recording slow-step function is
/// given: room for a typical recorded step's words and descriptors, so
/// most steps commit once.
inline constexpr uint32_t SlowLogWords = 1024;

/// Compiles the whole slow stream of the plan — every block of Plan.Code —
/// into one JitSlowFn (see JitAbi.h) in \p Code: block bodies use the same
/// templates as trace nodes, run-time-static instructions against the
/// frame's Stat* state and dynamic ones against the shared state; Jump and
/// Branch terminators become native jumps between block labels, and the
/// function runs from its entry block to Ret in one call. A \p Recording
/// variant also logs each action block it runs without leaving: every word
/// the recording interpreter would pushData() for the block — static
/// operands in placeholder order, memoized sync values — goes to the
/// capture buffer, and at the terminator one descriptor (action id, node
/// kind or edge, word count: immediates per branch arm) goes to the node
/// log. It returns early only with a flush, before an action block whose
/// capture might not fit. The caller commits the log through the cache in
/// one pass (preserving seal and peak accounting). \p CaptureWordsOut
/// receives the buffer size, in words, the caller must provide. Returns
/// false when any block contains anything the templates cannot express
/// bit-exactly or any control transfer leaves the block table; the plan
/// then stays interpreted.
bool emitSlowStep(const EmitContext &Ctx, bool Recording,
                  std::vector<uint8_t> &Code, uint32_t &CaptureWordsOut);

/// Sentinel successor for TraceNodeDesc: control leaves the trace here
/// (the emitter materializes a side exit returning the exit's id).
inline constexpr uint32_t TraceNoSucc = ~0u;

/// One node of a trace shape: the action to run, the node's placeholder
/// span length and pool side, and successors as *descriptor indices* (the
/// trace is a tree, emitted in DFS pre-order so Succ[0] is usually the
/// fallthrough). Nothing here names a cache node or span offset — those
/// come from the binding table the code is called with — so every entry
/// whose walk yields the same descriptor sequence shares one compiled
/// shape.
struct TraceNodeDesc {
  int32_t ActionId = -1;
  uint32_t DataLen = 0;  ///< recorded span length; must equal the words
                         ///< the compiled stream consumes
  bool BaseSide = false; ///< span lives in the base pool (JitFrame+88)
  uint8_t Kind = 0;      ///< 0 = Plain, 1 = Test, 2 = End
  uint32_t Succ[2] = {TraceNoSucc, TraceNoSucc}; ///< Plain uses Succ[0]

  bool operator==(const TraceNodeDesc &) const = default;
};

/// One exit of a compiled trace, in exit-id order (the trace's return
/// value indexes this list): either a clean end-of-step (IsEnd) or a side
/// exit at Test node \p Desc whose outcome \p Value had no compiled
/// successor.
struct TraceExitDesc {
  uint32_t Desc = 0;
  uint8_t Value = 0;
  bool IsEnd = false;
  uint32_t Link = 0; ///< End exits: ordinal of the exit's ChainLink
};

/// Compiles a trace shape — the node tree a replay can walk — into one
/// JitTraceFn. Descriptor i's span is read as BaseData or OverlayData plus
/// Table[i].SpanOfs words; the return value is an index into \p Exits
/// (>= 0) or a bail code (< 0). With \p LinkBytes non-zero every End exit
/// leaves through the frame's chain stub instead of returning, with the
/// exit id in ax and, above it, the table cell of its ChainLink: links
/// sit \p LinkBytes per End exit after the shape's table pairs.
/// \p BodyOfs receives the offset of the code past the prologue, where a
/// chain jump enters. Returns false when any node's stream is
/// inexpressible or consumes a different word count than its DataLen.
bool emitTrace(const EmitContext &Ctx, const std::vector<TraceNodeDesc> &Nodes,
               uint32_t LinkBytes, std::vector<uint8_t> &Code,
               std::vector<TraceExitDesc> &Exits, uint32_t &BodyOfs);

/// One compared (non-key-static) key word: word \p Index of global
/// \p Global, an array global when \p Array.
struct ChainWord {
  uint32_t Global = 0;
  uint32_t Index = 0;
  bool Array = false;
};

/// Most compared key words the chain stub checks; a program with more
/// replays without chaining.
inline constexpr size_t MaxChainWords = 8;

/// Compiles a plan's chain stub: the code every End exit of its shapes
/// jumps to (see emitTrace). It enters the linked step's shape body —
/// past the prologue, with rbp set to the target's binding table — when
/// the frame's ChainBudget is positive, *Halt and *MemLatch are clear,
/// the dynamic store's \p Words equal the link's, and the target slot is
/// bound at the link's generation and at the cache's current epoch to an
/// entry that is not detached. Before jumping it takes one from the
/// budget, counts the step (*Steps), refreshes the target's recency as a
/// lookup hit would, and stores the target's key (*StateKey) and entry
/// (ChainEntry). Otherwise it returns the End exit id as the shape would
/// have.
/// \p SlotBytes is the stride of the frame's slot array. False when
/// \p Words has more than MaxChainWords words.
bool emitChainStub(const std::vector<ChainWord> &Words, uint32_t SlotBytes,
                   std::vector<uint8_t> &Code);

/// True when this build can emit and run native code (x86-64 with mmap).
bool available();

} // namespace jit
} // namespace facile

#endif // FACILE_JIT_JITEMITTER_H
