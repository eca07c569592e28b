//===- JitTrace.cpp - Per-session trace bindings --------------------------===//

#include "src/jit/JitTrace.h"

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

void JitTraceCache::bind(uint32_t Entry, const TraceShape &S,
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
  if (From >= Slots.size() || To >= Slots.size())
    return;
  const Slot &F = Slots[From], &T = Slots[To];
  if (!F.Sh || F.Sh->LinkBytes == 0 || F.Native.Epoch != Epoch || !T.Sh ||
      T.Native.Epoch != Epoch || Exit >= F.Sh->Exits.size())
    return;
  const uint32_t LinkBytes = F.Sh->LinkBytes;
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
