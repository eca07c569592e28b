//===- JitTrace.cpp - Per-session trace shapes and entry bindings ---------===//

#include "src/jit/JitTrace.h"

#include "src/support/Hashing.h"

#include <algorithm>

using namespace facile;
using namespace facile::jit;

bool JitTraceCache::shouldCompile(uint32_t Entry, uint32_t Threshold,
                                  uint64_t Epoch) {
  if (Entry >= Slots.size())
    Slots.resize(Entry + 1);
  Slot &S = Slots[Entry];
  if (S.Pinned)
    return false;
  if (S.Sh) {
    if (S.Epoch == Epoch)
      return false;
    // The epoch moved (corruption was injected since binding): the bound
    // nodes may hold post-mutation state nobody verified. Drop the binding
    // and recount — the interpreted replays in between re-verify the
    // chain, and a re-bind only happens if the entry proves hot again.
    S.Sh = nullptr;
    S.Visits = 0;
  }
  return ++S.Visits >= Threshold;
}

uint64_t JitTraceCache::shapeHash(const std::vector<TraceNodeDesc> &Nodes,
                                  bool Guarded) {
  uint64_t H = hashCombine(FNVOffset, Guarded);
  for (const TraceNodeDesc &N : Nodes) {
    H = hashCombine(H, static_cast<uint32_t>(N.ActionId) |
                           static_cast<uint64_t>(N.DataLen) << 32);
    H = hashCombine(H, N.Succ[0] | static_cast<uint64_t>(N.Succ[1]) << 32);
    H = hashCombine(H, N.Kind | static_cast<uint64_t>(N.BaseSide) << 8);
  }
  return H;
}

const JitTraceCache::Shape *
JitTraceCache::findShape(const std::vector<TraceNodeDesc> &Nodes,
                         bool Guarded) const {
  auto [I, E] = Shapes.equal_range(shapeHash(Nodes, Guarded));
  for (; I != E; ++I)
    if (I->second->Guarded == Guarded && I->second->Nodes == Nodes)
      return I->second.get();
  return nullptr;
}

const JitTraceCache::Shape *
JitTraceCache::addShape(const std::vector<TraceNodeDesc> &Nodes, bool Guarded,
                        const std::vector<TraceExitDesc> &Exits,
                        const std::vector<uint8_t> &Code) {
  if (BudgetSpent)
    return nullptr;
  if (!Arena)
    Arena = std::make_unique<JitArena>(JitArena::Layout::Packed);
  if (Arena->mappedBytesAfter(Code.size()) > MaxCodeBytes) {
    // The last chunk is full and the budget has no room for another: no
    // new shape compiles from here on, existing ones still bind.
    BudgetSpent = true;
    return nullptr;
  }
  const uint8_t *Exec = Arena->publish(Code.data(), Code.size());
  if (!Exec) {
    if (!Arena->intact()) {
      // A failed append left earlier shapes' pages unexecutable: drop
      // every shape and binding and compile nothing more.
      dropBindings();
      Shapes.clear();
      BudgetSpent = true;
    }
    return nullptr;
  }
  auto S = std::make_unique<Shape>();
  S->Fn = reinterpret_cast<JitTraceFn>(reinterpret_cast<uintptr_t>(Exec));
  S->Guarded = Guarded;
  S->Nodes = Nodes;
  S->Exits = Exits;
  // Descriptors come in DFS pre-order, so a parent precedes its children.
  S->Links.resize(Nodes.size());
  for (uint32_t D = 0; D != Nodes.size(); ++D)
    for (int V = 0; V != 2; ++V) {
      const uint32_t C = Nodes[D].Succ[V];
      if (C == TraceNoSucc || C >= Nodes.size())
        continue;
      S->Links[C] = {D, S->Links[D].Depth + 1,
                     Nodes[D].Kind == 1 ? static_cast<int64_t>(V) : 0};
    }
  const Shape *Out = S.get();
  Shapes.emplace(shapeHash(Nodes, Guarded), std::move(S));
  ++Compiled;
  return Out;
}

void JitTraceCache::bind(uint32_t Entry, const Shape &S,
                         const TraceBind *Nodes, uint64_t Epoch) {
  Slot &Sl = Slots[Entry]; // sized by shouldCompile
  const uint32_t N = static_cast<uint32_t>(S.Nodes.size());
  if (N > Sl.TableCap) {
    // A re-bind after growth needs more pairs than the entry reserved:
    // take a fresh run (the old one is dead until the next rebuild).
    Sl.TableOfs = static_cast<uint32_t>(Table.size());
    Sl.TableCap = N;
    Table.resize(Table.size() + N);
  }
  std::copy(Nodes, Nodes + N, Table.begin() + Sl.TableOfs);
  Sl.Sh = &S;
  Sl.Epoch = Epoch;
  ++Bindings;
}

void JitTraceCache::noCompile(uint32_t Entry) {
  if (Entry >= Slots.size())
    Slots.resize(Entry + 1);
  Slots[Entry].Pinned = true;
  Slots[Entry].Sh = nullptr;
}

void JitTraceCache::invalidate(uint32_t Entry) {
  if (Entry >= Slots.size())
    return;
  Slot &S = Slots[Entry];
  // An entry that keeps outgrowing its bound tree churns walk time for a
  // binding that is about to be stale again: pin it after a few rounds.
  S.Pinned = ++S.Recompiles >= MaxRecompiles;
  S.Visits = 0;
  S.Sh = nullptr;
}

void JitTraceCache::dropBindings() {
  Slots.clear();
  Table.clear();
}
