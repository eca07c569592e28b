//===- JitTrace.h - Per-session trace bindings ------------------*- C++ -*-===//
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
///    successor slots. Shapes live in the plan's jit::JitCache, compiled
///    once for every session of the plan, looked up by hash and compared
///    in full. They reference no cache arena, so they survive cache
///    rebuilds (eviction, snapshot loads, base attach/detach).
///  - A *binding* ties one entry to a shape: a run of the flat per-session
///    table holding one (node id, span word offset) pair per descriptor.
///    Shape code loads each node's span as pool base + table[i] * 8.
///    Bindings name cache nodes and are dropped wholesale on a rebuild.
///
/// This cache holds a session's bindings and is single-threaded, owned by
/// that session's Jit backend.
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
/// the plan's chain stub follows it natively while every check holds.
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

#include "src/jit/JitCache.h"

#include <cstdint>
#include <vector>

namespace facile {
namespace jit {

class JitTraceCache {
public:
  /// A dispatchable binding: the shape and this entry's table.
  struct Bound {
    const TraceShape *S = nullptr;
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

  /// Binds \p Entry to \p S at \p Epoch; \p Nodes holds one pair per
  /// descriptor of \p S, each verified by the caller.
  void bind(uint32_t Entry, const TraceShape &S, const TraceBind *Nodes,
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

  /// Entries bound so far (re-bindings included).
  uint64_t bindings() const { return Bindings; }
  /// Bytes the slot array and binding table hold.
  uint64_t bytes() const {
    return Slots.capacity() * sizeof(Slot) +
           Table.capacity() * sizeof(TraceBind);
  }

  /// Growth invalidations tolerated per entry before pinning it to the
  /// interpreter. An entry whose recorded tree keeps growing (a side exit
  /// discovers a new successor after each re-bind) churns walk time for a
  /// binding that is about to be stale again.
  static constexpr uint32_t MaxRecompiles = 3;

  /// Longest descriptor sequence a shape may have.
  static constexpr uint32_t MaxNodes = 256;

private:
  struct Slot {
    TraceSlot Native;               ///< what the chain stub reads (JitAbi.h)
    const TraceShape *Sh = nullptr; ///< bound shape; null when unbound
    uint32_t Visits = 0;
    uint8_t Recompiles = 0; ///< growth invalidations so far (churn pin)
    bool Pinned = false;    ///< no-compile: stays interpreted
  };
  static_assert(sizeof(Slot) == TraceSlotStride,
                "the plan's chain stub strides over slots");
  /// Drops \p S's binding: no find() and no link reaches it any more.
  static void unbind(Slot &S) {
    S.Sh = nullptr;
    S.Native.Body = nullptr;
    S.Native.Gen = 0;
  }
  std::vector<Slot> Slots;
  std::vector<TraceBind> Table; ///< every binding's pairs and links, flat
  uint64_t Bindings = 0;
  uint64_t LastGen = 0; ///< binding generations handed out, never reset
};

} // namespace jit
} // namespace facile

#endif // FACILE_JIT_JITTRACE_H
