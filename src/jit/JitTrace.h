//===- JitTrace.h - Per-session trace shapes and entry bindings -*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second JIT tier: whole cache entries run as one native call per
/// replayed step. The tier splits code from data the way the paper's
/// residual simulator splits actions from placeholders:
///
///  - A *shape* is compiled code for one exact DFS descriptor sequence —
///    per node the action id, kind, span length, base/overlay side and
///    successor slots. Shapes are looked up by hash and compared in full,
///    and reference no cache arena, so they survive cache rebuilds
///    (eviction, snapshot loads, base attach/detach).
///  - A *binding* ties one entry to a shape: a run of the flat per-session
///    table holding one (node id, span word offset) pair per descriptor.
///    Shape code loads each node's span as pool base + table[i] * 8.
///    Bindings name cache nodes and are dropped wholesale on a rebuild.
///
/// The cache is per session and single-threaded, owned by that session's
/// Jit backend. That is what lets shape code share pages: shapes are
/// appended 16-byte aligned into 64 KB chunks of a Packed JitArena, and an
/// append flips only the tail page(s) read-write and back to read-execute
/// (never both at once). No other thread can be running this session's
/// code during the flip, which the shared per-plan JitCache — one page per
/// unit, never writable again — cannot assume.
///
/// Validity is epoch-gated per binding: a binding records the cache's
/// mutation epoch and is only dispatched while the epoch still matches.
/// Every out-of-band corruption channel (fault injection) bumps the epoch,
/// so bound code can never run over state the interpreter would
/// have re-verified — the step falls back to the interpreter, which
/// performs the full seal sweep and detects or absorbs the corruption.
///
/// Bindings are also where native chaining keeps its state. Each End
/// descriptor of a binding has a ChainLink (JitAbi.h) in the binding's
/// table run: the entry its End node's NextKey looked up, that key, its
/// compared words and the target binding's generation. The runtime fills
/// a link the first time a step chains through it in C++; from then on
/// the session's chain stub follows it natively while every check holds.
/// Links are data in the table, so filling one patches no code; bind()
/// zeroes a run's links, and every unbind clears the slot's generation,
/// so a link into a dropped, invalidated or re-bound entry never matches.
///
/// Shape code exits by returning an index into the shape's exit table:
/// either a clean end-of-step (the End node's id is in the binding) or a
/// side exit at a Test edge that had no recorded successor when the shape
/// was compiled. The caller rebuilds a side exit's replayed prefix — the
/// (node, value) path from the entry head — from the shape's parent links
/// and the binding, so recovery gets the exact state an interpreted walk
/// would have built; or it resumes interpretation mid-chain when the
/// successor has been recorded since (a stale binding, dropped so the
/// entry re-binds with the new branch included).
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_JIT_JITTRACE_H
#define FACILE_JIT_JITTRACE_H

#include "src/jit/JitAbi.h"
#include "src/jit/JitArena.h"
#include "src/jit/JitEmitter.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace facile {
namespace jit {

class JitTraceCache {
public:
  /// Compiled code for one descriptor sequence, shared by every entry
  /// bound to it.
  struct Shape {
    JitTraceFn Fn = nullptr;
    const uint8_t *Body = nullptr; ///< Fn past its prologue (chain entry)
    uint32_t Cells = 0; ///< table cells a binding takes: pairs, then links
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

  /// A dispatchable binding: the shape and this entry's table.
  struct Bound {
    const Shape *S = nullptr;
    const TraceBind *Table = nullptr;
  };

  /// The binding of \p Entry, or none when it has none or the cache's
  /// mutation epoch moved past it (corruption was injected since; the
  /// interpreter must re-verify).
  Bound find(uint32_t Entry, uint64_t Epoch) const {
    if (Entry >= Slots.size())
      return {};
    const Slot &S = Slots[Entry];
    if (!S.Sh || S.Native.Epoch != Epoch)
      return {};
    return {S.Sh, Table.data() + S.Native.TableOfs};
  }

  /// Emits and publishes the session's chain stub over the compared key
  /// words \p Words (see jit::emitChainStub); later shapes then chain
  /// through it. Null — and shapes return at End exits — when the words
  /// do not fit the stub or no executable memory is available.
  const void *enableChaining(const std::vector<ChainWord> &Words);
  /// Bytes of one End descriptor's link plus its compared words; 0 until
  /// enableChaining succeeds (the LinkBytes shapes are compiled with).
  uint32_t linkBytes() const { return LinkBytes; }

  /// Points \p F's chain views at the slot array and binding table; they
  /// move when a slot or binding is added.
  void exposeChain(JitFrame &F) const {
    F.ChainSlots = Slots.data();
    F.ChainSlotCount = Slots.size();
    F.ChainTable = Table.data();
  }

  /// Fills the link of End exit \p Exit of \p From's binding: its End
  /// node NextKey \p Key, whose compared words are the \p Head bytes,
  /// looks up entry \p To. Does nothing unless both entries are bound at
  /// \p Epoch and that exit's bound End node is \p EndNode — the node
  /// whose NextKey the step just chained through.
  void link(uint32_t From, uint32_t Exit, uint32_t EndNode, uint32_t To,
            uint32_t Key, const char *Head, uint64_t Epoch);

  /// Counts one replay of \p Entry; true when the entry just crossed
  /// \p Threshold and the caller should walk and bind it now. Entries
  /// pinned no-compile or already bound at the current epoch never trip.
  bool shouldCompile(uint32_t Entry, uint32_t Threshold, uint64_t Epoch);

  /// The compiled shape keyed by exactly \p Nodes, or null.
  const Shape *findShape(const std::vector<TraceNodeDesc> &Nodes) const;

  /// True once shape code no longer fits MaxCodeBytes: only entries whose
  /// shape is already compiled can still bind.
  bool budgetSpent() const { return BudgetSpent; }

  /// Copies \p Code into executable memory as the shape \p Nodes, with
  /// \p Exits its exit table and its body at \p BodyOfs. Returns null
  /// when executable memory is unavailable or the code does not fit the
  /// budget; the latter refuses every later new shape.
  const Shape *addShape(const std::vector<TraceNodeDesc> &Nodes,
                        const std::vector<TraceExitDesc> &Exits,
                        const std::vector<uint8_t> &Code, uint32_t BodyOfs);

  /// Binds \p Entry to \p S at \p Epoch; \p Nodes holds one pair per
  /// descriptor of \p S, each verified by the caller.
  void bind(uint32_t Entry, const Shape &S, const TraceBind *Nodes,
            uint64_t Epoch);

  /// Pins \p Entry to the interpreter (inexpressible, unverifiable or over
  /// limits).
  void noCompile(uint32_t Entry);

  /// Drops \p Entry's binding and restarts its visit count: the recording
  /// grew past the bound tree (a side exit found a successor), so the
  /// entry re-trips and re-binds with the new branch included.
  void invalidate(uint32_t Entry);

  /// Drops every binding: the cache arenas were rebuilt (eviction,
  /// snapshot load, base attach/detach) and every bound node id and span
  /// offset is garbage. Shapes name no cache node and stay.
  void dropBindings();

  /// Shapes compiled so far.
  uint64_t compiledTraces() const { return Compiled; }
  /// Entries bound so far (re-bindings included).
  uint64_t bindings() const { return Bindings; }
  /// Packed chunk bytes mapped for shape code.
  uint64_t codeBytes() const { return Arena ? Arena->mappedBytes() : 0; }

  /// Ceiling on packed chunk bytes held; once a new shape no longer fits,
  /// entries whose shape is not compiled stay interpreted instead of the
  /// code growing without bound. One shape serves every entry with the
  /// same tree: at 1 M instructions and the default threshold, mgrid,
  /// tomcatv and swim make 1.9-5.9 K bindings to 78-113 shapes in
  /// 128-192 KB of chunks (at threshold 1, 2.0-9.1 K bindings to 122-197
  /// shapes in 256-384 KB), so the ceiling only bites on shape-diverse
  /// runs. Kept at 1 MB, the fastest budget measured when every entry had
  /// its own trace: it then held ~1.2-1.45 K traces, and 4 MB compiled
  /// 4-5 K and gained nothing, compile time and icache pressure eating
  /// the win.
  static constexpr uint64_t MaxCodeBytes = 1ull << 20;

  /// Growth invalidations tolerated per entry before pinning it to the
  /// interpreter. An entry whose recorded tree keeps growing (a side exit
  /// discovers a new successor after each re-bind) churns walk time for a
  /// binding that is about to be stale again.
  static constexpr uint32_t MaxRecompiles = 3;

  /// Longest descriptor sequence a shape may have.
  static constexpr uint32_t MaxNodes = 256;

private:
  struct Slot {
    TraceSlot Native;          ///< what the chain stub reads (JitAbi.h)
    const Shape *Sh = nullptr; ///< bound shape; null when unbound
    uint32_t Visits = 0;
    uint32_t Recompiles = 0; ///< growth invalidations so far (churn pin)
    bool Pinned = false;     ///< no-compile: stays interpreted
  };
  static uint64_t shapeHash(const std::vector<TraceNodeDesc> &Nodes);
  /// Drops \p S's binding: no find() and no link reaches it any more.
  static void unbind(Slot &S) {
    S.Sh = nullptr;
    S.Native.Body = nullptr;
    S.Native.Gen = 0;
  }
  /// Maps the executable arena on first use.
  JitArena &arena();

  std::vector<Slot> Slots;
  std::vector<TraceBind> Table; ///< every binding's pairs and links, flat
  /// Compiled shapes by key hash (node-based: shapes never move).
  std::unordered_multimap<uint64_t, std::unique_ptr<Shape>> Shapes;
  std::unique_ptr<JitArena> Arena;
  uint64_t Compiled = 0;
  uint64_t Bindings = 0;
  uint64_t LastGen = 0;     ///< binding generations handed out, never reset
  uint32_t LinkBytes = 0;   ///< see linkBytes()
  bool BudgetSpent = false; ///< MaxCodeBytes reached: compile no new shape
};

} // namespace jit
} // namespace facile

#endif // FACILE_JIT_JITTRACE_H
