//===- JitTrace.cpp - Per-session trace shapes and entry bindings ---------===//

#include "src/jit/JitTrace.h"

#include "src/support/Hashing.h"

#include <algorithm>
#include <cstring>

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
    if (S.Native.Epoch == Epoch)
      return false;
    // The epoch moved (corruption was injected since binding): the bound
    // nodes may hold post-mutation state nobody verified. Drop the binding
    // and recount — the interpreted replays in between re-verify the
    // chain, and a re-bind only happens if the entry proves hot again.
    unbind(S);
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

JitArena &JitTraceCache::arena() {
  if (!Arena)
    Arena = std::make_unique<JitArena>(JitArena::Layout::Packed);
  return *Arena;
}

const void *JitTraceCache::enableChaining(const std::vector<ChainWord> &Words) {
  std::vector<uint8_t> Code;
  if (BudgetSpent || !emitChainStub(Words, sizeof(Slot), Code))
    return nullptr;
  const uint8_t *Stub = arena().publish(Code.data(), Code.size());
  if (!Stub) {
    BudgetSpent = !Arena->intact(); // as addShape: compile nothing more
    return nullptr;
  }
  LinkBytes = static_cast<uint32_t>(sizeof(ChainLink) + 8 * Words.size());
  return Stub;
}

const JitTraceCache::Shape *
JitTraceCache::addShape(const std::vector<TraceNodeDesc> &Nodes, bool Guarded,
                        const std::vector<TraceExitDesc> &Exits,
                        const std::vector<uint8_t> &Code, uint32_t BodyOfs) {
  if (BudgetSpent || BodyOfs >= Code.size())
    return nullptr;
  arena();
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
  S->Body = Exec + BodyOfs;
  S->Guarded = Guarded;
  S->Nodes = Nodes;
  S->Exits = Exits;
  const size_t Ends = static_cast<size_t>(
      std::count_if(Exits.begin(), Exits.end(),
                    [](const TraceExitDesc &X) { return X.IsEnd; }));
  S->Cells = static_cast<uint32_t>(Nodes.size() +
                                   Ends * LinkBytes / sizeof(TraceBind));
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
  if (S.Cells > Sl.Native.TableCap) {
    // A re-bind after growth needs more cells than the entry reserved:
    // take a fresh run (the old one is dead until the next rebuild).
    Sl.Native.TableOfs = static_cast<uint32_t>(Table.size());
    Sl.Native.TableCap = S.Cells;
    Table.resize(Table.size() + S.Cells);
  }
  const auto Run = Table.begin() + Sl.Native.TableOfs;
  std::copy(Nodes, Nodes + S.Nodes.size(), Run);
  std::fill(Run + static_cast<ptrdiff_t>(S.Nodes.size()), Run + S.Cells,
            TraceBind{}); // every link unfilled
  Sl.Sh = &S;
  Sl.Native.Body = S.Body;
  Sl.Native.Gen = ++LastGen;
  Sl.Native.Epoch = Epoch;
  ++Bindings;
}

void JitTraceCache::link(uint32_t From, uint32_t Exit, uint32_t EndNode,
                         uint32_t To, uint32_t Key, const char *Head,
                         uint64_t Epoch) {
  if (LinkBytes == 0 || From >= Slots.size() || To >= Slots.size())
    return;
  const Slot &F = Slots[From], &T = Slots[To];
  if (!F.Sh || F.Native.Epoch != Epoch || !T.Sh || T.Native.Epoch != Epoch ||
      Exit >= F.Sh->Exits.size())
    return;
  const TraceExitDesc &X = F.Sh->Exits[Exit];
  const TraceBind *Run = Table.data() + F.Native.TableOfs;
  if (!X.IsEnd || Run[X.Desc].Node != EndNode)
    return;
  TraceBind *L = Table.data() + F.Native.TableOfs + F.Sh->Nodes.size() +
                 X.Link * LinkBytes / sizeof(TraceBind);
  const ChainLink Link{To, Key, T.Native.Gen};
  // Table cells are raw storage to native code; copy bytes into them.
  std::memcpy(static_cast<void *>(L), &Link, sizeof(Link));
  std::memcpy(static_cast<void *>(L + sizeof(Link) / sizeof(TraceBind)), Head,
              LinkBytes - sizeof(Link));
}

void JitTraceCache::noCompile(uint32_t Entry) {
  if (Entry >= Slots.size())
    Slots.resize(Entry + 1);
  Slots[Entry].Pinned = true;
  unbind(Slots[Entry]);
}

void JitTraceCache::invalidate(uint32_t Entry) {
  if (Entry >= Slots.size())
    return;
  Slot &S = Slots[Entry];
  // An entry that keeps outgrowing its bound tree churns walk time for a
  // binding that is about to be stale again: pin it after a few rounds.
  S.Pinned = ++S.Recompiles >= MaxRecompiles;
  S.Visits = 0;
  unbind(S);
}

void JitTraceCache::dropBindings() {
  Slots.clear();
  Table.clear();
}
