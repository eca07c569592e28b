//===- JitTrace.cpp - Per-session compiled entry traces --------------------===//

#include "src/jit/JitTrace.h"

using namespace facile;
using namespace facile::jit;

bool JitTraceCache::shouldCompile(uint32_t Entry, uint32_t Threshold,
                                  uint64_t Epoch) {
  if (Entry >= Slots.size())
    Slots.resize(Entry + 1);
  Slot &S = Slots[Entry];
  if (S.State == NoCompile)
    return false;
  if (S.State == Published) {
    if (S.T.Epoch == Epoch)
      return false;
    // The epoch moved (corruption was injected since compilation): the
    // code may encode pre-mutation state. Drop it and recount — the
    // interpreted replays in between re-verify the chain, and a recompile
    // only happens if the entry proves hot again.
    S.State = Cold;
    S.Visits = 0;
    S.T = Trace();
  }
  if (BudgetSpent) {
    S.State = NoCompile;
    return false;
  }
  return ++S.Visits >= Threshold;
}

bool JitTraceCache::publish(uint32_t Entry, Trace T,
                            const std::vector<uint8_t> &Code) {
  Slot &S = Slots[Entry]; // sized by shouldCompile
  if (!Arena)
    Arena = std::make_unique<JitArena>(JitArena::Layout::Packed);
  if (Arena->mappedBytesAfter(Code.size()) > MaxCodeBytes) {
    // The last chunk is full and the budget has no room for another:
    // every later candidate stays interpreted without paying a compile.
    BudgetSpent = true;
    S.State = NoCompile;
    return false;
  }
  const uint8_t *Exec = Arena->publish(Code.data(), Code.size());
  if (!Exec) {
    if (!Arena->intact()) {
      // A failed append left earlier traces' pages unexecutable: drop
      // them all and compile nothing more until the next reset().
      Slots.clear();
      Arena.reset();
      BudgetSpent = true;
      return false;
    }
    S.State = NoCompile;
    return false;
  }
  T.Fn = reinterpret_cast<JitFn>(reinterpret_cast<uintptr_t>(Exec));
  S.T = std::move(T);
  S.State = Published;
  ++Compiled;
  return true;
}

void JitTraceCache::noCompile(uint32_t Entry) {
  if (Entry >= Slots.size())
    Slots.resize(Entry + 1);
  Slots[Entry].State = NoCompile;
  Slots[Entry].T = Trace();
}

void JitTraceCache::invalidate(uint32_t Entry) {
  if (Entry >= Slots.size())
    return;
  Slot &S = Slots[Entry];
  // An entry that keeps outgrowing its compiled tree churns compile time
  // for code that is about to be stale again: pin it after a few rounds.
  S.State = ++S.Recompiles >= MaxRecompiles ? NoCompile : Cold;
  S.Visits = 0;
  S.T = Trace();
}

void JitTraceCache::reset() {
  Slots.clear();
  Arena.reset(); // single-threaded per session: no trace can be mid-flight
  BudgetSpent = false;
  ++Resets;
}
