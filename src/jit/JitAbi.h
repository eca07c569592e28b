//===- JitAbi.h - Contract between JIT code and the runtime -----*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ABI shared by the template JIT (src/jit) and the runtime that calls
/// into its code (src/runtime/FastEngine.cpp and SlowEngine.cpp via the
/// Jit ExecBackend). Three kinds of code exist, all compiled once per plan
/// and shared by its sessions: the slow-step function (JitSlowFn),
/// entry-trace shapes (JitTraceFn) and the chain stub, which End exits of
/// shapes jump through.
///
/// Return values >= 0 are the function's own (an exit id, a packed slow
/// exit); values < 0 are bail codes (JitBail). Bails only occur for
/// conditions that are immediate faults in the interpreter too — never for
/// conditions the interpreter would recover from — so the caller must
/// never re-run what bailed (its side effects already happened).
///
/// Everything session-mutable is reached through the JitFrame; everything
/// immutable per plan/image (text base, array sizes, data pointers of the
/// image text, helper addresses) is baked into the code as immediates.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_JIT_JITABI_H
#define FACILE_JIT_JITABI_H

#include <cstdint>
#include <vector>

namespace facile {
namespace jit {

struct TraceBind;

/// Per-session execution frame. Field offsets are fixed — the emitter
/// hard-codes them — and static_asserted in JitEmitter.cpp. The owning
/// backend must refresh every pointer whenever the session's vectors are
/// replaced (deserializeState), since compiled code dereferences them raw.
struct JitFrame {
  int64_t *Slots = nullptr;              ///< +0  DynSlots.data()
  int64_t *Globals = nullptr;            ///< +8  DynGlobals.data()
  int64_t *const *Arrays = nullptr;      ///< +16 per-global-id array data()
  int64_t *const *LocArrays = nullptr;   ///< +24 per-local-array data()
  void *Mem = nullptr;                   ///< +32 TargetMemory*
  void *Sim = nullptr;                   ///< +40 Simulation* (extern thunk)
  uint64_t *RetiredTotal = nullptr;      ///< +48
  uint64_t *RetiredFast = nullptr;       ///< +56
  uint64_t *Cycles = nullptr;            ///< +64
  bool *Halt = nullptr;                  ///< +72
  int64_t ExternRet = 0;                 ///< +80 extern-result scratch
  /// +88: base-layer data pool, refreshed by the caller before every trace
  /// call (trace code resolves base-side spans off it).
  const int64_t *BaseData = nullptr;
  // Slow-path (complete stream) state, used only by the compiled slow-step
  // function: the recording simulator's private run-time-static state,
  // plus the placeholder capture buffer recording variants write through.
  int64_t *StatSlots = nullptr;            ///< +96  StatSlots.data()
  int64_t *StatGlobals = nullptr;          ///< +104 StatGlobals.data()
  int64_t *const *StatArrays = nullptr;    ///< +112 per-global-id data()
  int64_t *const *StatLocArrays = nullptr; ///< +120 per-local-array data()
  /// +128: capture buffer base. Recording variants write captured words
  /// up from here and node descriptors down from NodeLog (+256); the
  /// caller sizes the buffer to JitCache::slowCaptureWords() before the
  /// first recording call.
  int64_t *Capture = nullptr;
  /// +136: capture cursor at exit (set by recording slow-step variants on
  /// every exit path, bails included, so the caller can commit exactly the
  /// words the interpreter would have pushed before a fault).
  int64_t *CaptureEnd = nullptr;
  /// +144: the block a bail left from (set on bail paths only).
  int64_t SlowBlock = 0;
  /// +152: overlay data pool, refreshed with BaseData before every trace
  /// call (trace code resolves overlay-side spans off it).
  const int64_t *OverlayData = nullptr;

  // Native chaining across replayed steps (the chain stub, see
  // jit::emitChainStub). The caller stores ChainBudget before every trace
  // call, and the slot, table and entry views whenever the budget is
  // non-zero; the other pointers are set once with the rest of the frame.

  /// +160: the plan's chain stub; End exits of shape code jump to it.
  const void *ChainStub = nullptr;
  /// +168: chain jumps the stub may still take (each takes one); 0 makes
  /// every End exit return as an unchained trace would.
  int64_t ChainBudget = 0;
  /// +176: the entry of the step in flight, written by every chain jump.
  uint64_t ChainEntry = 0;
  /// +184: the cache's mutation epoch, read live: a target bound at any
  /// other epoch is not entered, even when an extern call moved it
  /// mid-chain.
  const uint64_t *ChainEpoch = nullptr;
  /// +192 / +200 / +208: the trace cache's slot array (one TraceSlot-
  /// headed slot per cache entry), its length, and its binding table.
  const void *ChainSlots = nullptr;
  uint64_t ChainSlotCount = 0;
  const TraceBind *ChainTable = nullptr;
  /// +216: the action cache's entry array: a chain jump is a lookup hit
  /// and refreshes the target's recency from the tick at +224.
  void *ChainEntries = nullptr;
  uint64_t *ChainTick = nullptr;
  /// +232: Simulation::Stats::Steps, bumped by every chain jump.
  uint64_t *Steps = nullptr;
  /// +240: the Simulation's StateKey, set by every chain jump to the key
  /// the entered step runs under.
  uint32_t *StateKey = nullptr;
  /// +248: TargetMemory's resident-page budget latch.
  const bool *MemLatch = nullptr;
  /// +256: one past the capture buffer's last word: the top of the node
  /// log, which recording variants grow down from one descriptor
  /// (slowNodeDesc) per action block run.
  uint64_t *NodeLog = nullptr;
  /// +264: the node-log cursor at exit (recording variants, every exit
  /// path): the call logged [NodeLogEnd, NodeLog), first node highest.
  uint64_t *NodeLogEnd = nullptr;
};

/// One node of a trace binding: where descriptor i of a trace shape sits
/// in one session's cache. Trace code reads only SpanOfs (at +4), as a
/// word offset off BaseData or OverlayData; Node serves the caller's exit
/// handling (PendingEndNode, the replayed prefix of a side exit).
struct TraceBind {
  uint32_t Node = 0;    ///< global cache node id
  uint32_t SpanOfs = 0; ///< word offset into the node's side of the pool
};
static_assert(sizeof(TraceBind) == 8, "trace code indexes bindings by 8");

/// The head of one trace-cache slot (one per cache entry), the part the
/// chain stub reads: the bound shape's code past its prologue, the
/// binding's generation and epoch, and where its table run starts.
struct TraceSlot {
  const uint8_t *Body = nullptr; ///< +0  null when unbound
  uint64_t Gen = 0;              ///< +8  0 when unbound; never reused
  uint64_t Epoch = 0;            ///< +16 cache mutation epoch at binding
  uint32_t TableOfs = 0;         ///< +24 first cell of the binding's run
  uint32_t TableCap = 0;         ///< +28 cells reserved at TableOfs
};
static_assert(sizeof(TraceSlot) == 32, "the chain stub reads slot heads");

/// The stride of a session's slot array: a TraceSlot head, then the
/// runtime's private per-entry fields (jit::JitTraceCache). One chain stub
/// serves every session of a plan, so the stride is fixed.
inline constexpr uint32_t TraceSlotStride = 48;

/// The chain link of one End descriptor of one binding: what the End
/// node's NextKey resolved to the first time a step chained through it.
/// Links sit in the binding's table run after its pairs, one per End
/// descriptor in exit order, each followed by the NextKey's compared
/// (non-key-static) words, 8 bytes apiece. An all-zero link is unfilled.
struct ChainLink {
  uint32_t Target = 0; ///< +0 the entry NextKey looks up
  uint32_t Key = 0;    ///< +4 NextKey
  uint64_t Gen = 0;    ///< +8 Target's binding generation when filled
};
static_assert(sizeof(ChainLink) == 2 * sizeof(TraceBind),
              "links occupy whole table cells");

/// A compiled trace shape, run over one entry's binding: \p Table holds
/// one TraceBind per descriptor of the shape. The return value is an index
/// into the shape's exit table (>= 0) or a bail code (< 0).
using JitTraceFn = int64_t (*)(const JitFrame *Frame, const TraceBind *Table);

/// The compiled slow-step function of a plan: every block of Plan.Code in
/// one function, entered at block \p Block through an entry table indexed
/// by block id. Control moves between blocks natively; the function
/// returns at Ret (SlowRet), on a bail (< 0, a JitBail, with
/// Frame->SlowBlock naming the block that bailed) and — recording
/// variants only — with SlowFlush when the capture buffer has no room for
/// the next action block's worst-case capture plus its descriptor. A
/// flush return packs the block to resume at above the two SlowExit bits;
/// the caller commits the log and calls again at that block.
///
/// A recording variant logs every action block it runs, at the block's
/// terminator: the block's captured words at Frame->Capture onward, and
/// one descriptor (slowNodeDesc) down from Frame->NodeLog. On every exit
/// the cursors are left in CaptureEnd and NodeLogEnd; after a bail the
/// words past the last logged block are the bailing block's partial
/// capture.
using JitSlowFn = int64_t (*)(const JitFrame *Frame, uint64_t Block);

/// Why a slow-step function returned (low two bits of a non-negative
/// return value).
enum SlowExit : int64_t {
  SlowRet = 0,   ///< Ret: the step is over
  SlowFlush = 1, ///< recording: the node log is full; resume at R >> 2
};

/// How a logged action block left: its node's kind and link.
enum SlowNodeKind : uint64_t {
  SlowPlain = 0, ///< Jump or rt-static Branch: a plain node
  SlowEdge0 = 1, ///< dynamic-result Branch not taken: a Test node, edge 0
  SlowEdge1 = 2, ///< dynamic-result Branch taken: a Test node, edge 1
  SlowEnd = 3,   ///< Ret: the End node of the step
};

/// One node-log descriptor, a compile-time immediate per branch arm: the
/// action id in the low 32 bits, the SlowNodeKind in bits 32-33 and the
/// number of words the block captured above them.
constexpr uint64_t slowNodeDesc(uint32_t ActionId, SlowNodeKind Kind,
                                uint32_t Words) {
  return ActionId | (static_cast<uint64_t>(Kind) << 32) |
         (static_cast<uint64_t>(Words) << 34);
}
constexpr int32_t slowNodeAction(uint64_t D) {
  return static_cast<int32_t>(static_cast<uint32_t>(D));
}
constexpr SlowNodeKind slowNodeKind(uint64_t D) {
  return static_cast<SlowNodeKind>((D >> 32) & 3);
}
constexpr uint32_t slowNodeWords(uint64_t D) {
  return static_cast<uint32_t>(D >> 34);
}

/// Negative return values of a JitTraceFn or JitSlowFn.
enum JitBail : int64_t {
  /// Instruction fetch outside the text segment. The caller raises the
  /// same DecodeError fault the interpreter raises mid-node.
  BailFetchOob = -1,
  /// An extern call failed. The fault was already raised inside the extern
  /// thunk (by Simulation::externCall); the caller just reports Faulted.
  BailExternFail = -2,
};

/// Addresses of runtime services compiled code calls out to. The runtime
/// fills this once per process (rt::jitRuntimeHooks()); the emitter bakes
/// the pointers into call sites as 64-bit immediates. Memory reads return
/// pre-widened uint64_t so the emitted code needs no extension.
struct JitRuntimeHooks {
  uint64_t (*MemRead32)(void *Mem, uint32_t Addr) = nullptr;
  uint64_t (*MemRead8)(void *Mem, uint32_t Addr) = nullptr;
  void (*MemWrite32)(void *Mem, uint32_t Addr, uint32_t Value) = nullptr;
  void (*MemWrite8)(void *Mem, uint32_t Addr, uint8_t Value) = nullptr;
  /// Dispatches Plan->Fast[FastIdx] (a CallExtern) through the session's
  /// extern table, fault hooks included. False = a fault was raised.
  bool (*Extern)(void *Sim, uint32_t FastIdx, const int64_t *Args,
                 int64_t *Ret) = nullptr;
  /// Same, for slow-stream code: \p CodeIdx indexes Plan->Code.
  bool (*ExternSlow)(void *Sim, uint32_t CodeIdx, const int64_t *Args,
                     int64_t *Ret) = nullptr;
  void (*Print)(int64_t Value) = nullptr;
};

/// Per-session JIT view, armed by the Jit ExecBackend and consulted by the
/// replay loop: the frame, the plan's shared code cache, the session's
/// private trace bindings, the compile trip point and the session-local
/// counters.
class JitCache;
class JitTraceCache;
struct JitSession {
  JitFrame Frame;
  JitCache *Cache = nullptr;
  JitTraceCache *Traces = nullptr; ///< per-session trace bindings
  /// Replays of an entry before it binds to a trace shape; slow steps
  /// before the plan's slow-step function compiles.
  uint32_t Threshold = 1;
  uint64_t JitSteps = 0;       ///< steps where >=1 node ran natively
  uint64_t TraceSteps = 0;     ///< steps completed entirely by one trace call
  uint64_t TraceSideExits = 0; ///< trace calls that left at a side exit
  uint64_t SlowCalls = 0;      ///< native slow-step function calls
  uint64_t ChainedSteps = 0;   ///< steps entered by a native chain jump
  /// The trace End exit the last replayed step left through: the entry
  /// and the exit id whose link the next step fills on an INDEX-chain
  /// hit. LinkFrom is NoLink when that step ended any other way.
  static constexpr uint32_t NoLink = ~0u;
  uint32_t LinkFrom = NoLink;
  uint32_t LinkExit = 0;
  /// Capture buffer and node log of recording slow-step variants (words
  /// up from the front, descriptors down from the back); sized once to
  /// JitCache::slowCaptureWords().
  std::vector<int64_t> Capture;
};

} // namespace jit
} // namespace facile

#endif // FACILE_JIT_JITABI_H
