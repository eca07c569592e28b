//===- ActionCache.cpp - The specialized action cache ----------------------===//

#include "src/runtime/ActionCache.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace facile;
using namespace facile::rt;

//===----------------------------------------------------------------------===//
// Key interning
//===----------------------------------------------------------------------===//

std::vector<uint32_t>
ActionCache::buildProbeTable(const std::vector<KeyRecord> &Keys,
                             size_t MinSize, KeyId FirstId) {
  // Smallest power of two keeping the load factor below ~2/3.
  size_t NewSize = 64;
  while (NewSize * 2 < (Keys.size() + 1) * 3)
    NewSize *= 2;
  NewSize = std::max(NewSize, MinSize);
  std::vector<uint32_t> Table(NewSize, NoId);
  size_t Mask = NewSize - 1;
  for (KeyId K = 0; K != Keys.size(); ++K) {
    size_t I = static_cast<size_t>(Keys[K].Hash) & Mask;
    while (Table[I] != NoId)
      I = (I + 1) & Mask;
    Table[I] = FirstId + K;
  }
  return Table;
}

void ActionCache::growTable() {
  // Never shrink an already-grown table. Slots store global ids; only
  // overlay keys live in this table.
  Table = buildProbeTable(Keys, Table.size() * 2, Base.NumKeys);
}

KeyId ActionCache::findKey(const char *Data, size_t Len, uint64_t H) {
  // Level one: the read-only base table (mapped store file). Hits return
  // the base key id; misses fall through to the private overlay table —
  // the base is immutable, so nothing is ever inserted there.
  uint64_t Probes = 0;
  KeyId Found = NoId;
  auto probe = [&](const uint32_t *Tab, size_t Size, const KeyRecord *Recs,
                   KeyId FirstId, const char *Pool) {
    const size_t Mask = Size - 1;
    for (size_t I = static_cast<size_t>(H) & Mask;; I = (I + 1) & Mask) {
      const uint32_t Slot = Tab[I];
      if (Slot == NoId)
        return false;
      const KeyRecord &R = Recs[Slot - FirstId];
      if (R.Hash == H && R.Len == Len &&
          std::memcmp(Pool + R.Ofs, Data, Len) == 0) {
        Found = Slot;
        return true;
      }
      ++Probes;
    }
  };
  auto count = [&] {
    S.ProbeTotal += Probes;
    S.ProbeMax = std::max(S.ProbeMax, Probes);
    Probes = 0;
  };
  if (HasBase && Base.TableSize != 0) {
    const bool Hit = probe(Base.Table, static_cast<size_t>(Base.TableSize),
                           Base.Keys, 0, Base.KeyPool);
    count();
    if (Hit)
      return Found;
  }
  if (!Table.empty()) {
    probe(Table.data(), Table.size(), Keys.data(), Base.NumKeys,
          KeyPool.data());
    count();
  }
  return Found;
}

KeyId ActionCache::internAbsent(const char *Data, size_t Len, uint64_t H) {
  if (Table.empty())
    growTable();
  const size_t Mask = Table.size() - 1;
  size_t I = static_cast<size_t>(H) & Mask;
  while (Table[I] != NoId)
    I = (I + 1) & Mask;

  KeyId K = static_cast<KeyId>(Base.NumKeys + Keys.size());
  KeyRecord R;
  R.Ofs = static_cast<uint32_t>(KeyPool.size());
  R.Len = static_cast<uint32_t>(Len);
  R.Hash = H;
  KeyPool.insert(KeyPool.end(), Data, Data + Len);
  Keys.push_back(R);
  KeyToEntry.push_back(NoId);
  Table[I] = K;
  ++S.KeysInterned;
  // Keep the load factor below ~2/3 so probe sequences stay short. The
  // table grows here, ahead of the next lookup, so findKey never writes
  // and every lookup probes a table with room for one more key.
  if ((Keys.size() + 1) * 3 > Table.size() * 2)
    growTable();
  notePeak();
  return K;
}

KeyId ActionCache::internKey(const char *Data, size_t Len, uint64_t H) {
  const KeyId K = findKey(Data, Len, H);
  return K != NoId ? K : internAbsent(Data, Len, H);
}

//===----------------------------------------------------------------------===//
// Entries
//===----------------------------------------------------------------------===//

EntryId ActionCache::create(KeyId K) {
  assert(KeyToEntry[K] == NoId && "key already has an entry");
  ++S.EntriesCreated;
  EntryId E = static_cast<EntryId>(Entries.size());
  Entries.emplace_back();
  Entries.back().Key = K;
  Entries.back().LastUse = ++Tick;
  BornTick.push_back(Tick);
  KeyToEntry[K] = E;
  notePeak();
  return E;
}

uint64_t ActionCache::neverHitEntries() const {
  uint64_t N = 0;
  for (EntryId E = 0; E != Entries.size(); ++E)
    N += Entries[E].Head != ActionNode::NoNode && !entryHit(E);
  return N;
}

//===----------------------------------------------------------------------===//
// First-touch filter
//===----------------------------------------------------------------------===//

size_t ActionCache::filterWords() {
  unsigned Log2Bits = 12;
  while (Log2Bits < 24 && (uint64_t(1) << (Log2Bits + 6)) < Budget)
    ++Log2Bits;
  SeenShift = 64 - Log2Bits;
  return (size_t(1) << Log2Bits) / 64;
}

uint64_t ActionCache::seenKeyBits() const {
  uint64_t N = 0;
  for (uint64_t W : Seen)
    N += static_cast<uint64_t>(std::popcount(W));
  return N;
}

void ActionCache::resetEntryHistory() {
  std::fill(Seen.begin(), Seen.end(), 0);
  BornTick.resize(Entries.size());
  for (EntryId E = 0; E != Entries.size(); ++E)
    BornTick[E] = Entries[E].LastUse;
}

//===----------------------------------------------------------------------===//
// Base layer
//===----------------------------------------------------------------------===//

bool ActionCache::attachBase(const BaseArenas &B) {
  if (HasBase || !Keys.empty() || !Entries.empty() || !NodeArena.empty() ||
      !DataPool.empty() || !KeyPool.empty())
    return false;
  Base = B;
  HasBase = true;
  KeyToEntry.clear();
  if (B.NumKeys != 0)
    KeyToEntry.assign(B.KeyToEntry, B.KeyToEntry + B.NumKeys);
  Entries.clear();
  if (B.NumEntries != 0)
    Entries.assign(B.Entries, B.Entries + B.NumEntries);
  BaseVerified.assign(B.NumNodes, 0);
  Table.clear();
  Tick = std::max(Tick, B.Tick);
  ++Epoch;
  PendingXor = 0;
  resetEntryHistory();
  notePeak();
  return true;
}

void ActionCache::detachBase() {
  HasBase = false;
  Base = BaseArenas{};
  BaseVerified.clear();
  Patches.clear();
  KeyPool.clear();
  Keys.clear();
  KeyToEntry.clear();
  Table.clear();
  Entries.clear();
  NodeArena.clear();
  NodeSeal.clear();
  VerifyMark.clear();
  ++Epoch;
  DataPool.clear();
  PendingXor = 0;
  resetEntryHistory();
}

void ActionCache::resetToBase() {
  KeyPool.clear();
  Keys.clear();
  Table.clear();
  NodeArena.clear();
  NodeSeal.clear();
  VerifyMark.clear();
  Patches.clear();
  DataPool.clear();
  PendingXor = 0;
  KeyToEntry.clear();
  if (Base.NumKeys != 0)
    KeyToEntry.assign(Base.KeyToEntry, Base.KeyToEntry + Base.NumKeys);
  Entries.clear();
  if (Base.NumEntries != 0)
    Entries.assign(Base.Entries, Base.Entries + Base.NumEntries);
  // BaseVerified survives: the base mapping did not change.
  ++Epoch;
  resetEntryHistory();
}

//===----------------------------------------------------------------------===//
// Eviction
//===----------------------------------------------------------------------===//

void ActionCache::clear() {
  notePeak();
  if (HasBase) {
    resetToBase();
    ++S.Clears;
    return;
  }
  KeyPool.clear();
  Keys.clear();
  KeyToEntry.clear();
  Table.clear();
  Entries.clear();
  NodeArena.clear();
  NodeSeal.clear();
  VerifyMark.clear();
  ++Epoch;
  DataPool.clear();
  PendingXor = 0;
  resetEntryHistory();
  ++S.Clears;
}

//===----------------------------------------------------------------------===//
// Compaction
//===----------------------------------------------------------------------===//

ActionCache::FlatImage ActionCache::compactImage() const {
  FlatImage Img;
  Img.Tick = Tick;
  // Reachable nodes, data and live entries are at most what the arenas
  // hold, so the copy below never reallocates.
  Img.Nodes.reserve(nodeCount());
  Img.Seals.reserve(nodeCount());
  Img.Data.reserve(dataSize());
  Img.Entries.reserve(Entries.size());

  // Copies key \p Old into the new pool once, returning its new id.
  std::vector<KeyId> KeyRemap(keyCount(), NoId);
  auto remapKey = [&](KeyId Old) -> KeyId {
    if (Old == NoId)
      return NoId;
    if (KeyRemap[Old] != NoId)
      return KeyRemap[Old];
    KeyId New = static_cast<KeyId>(Img.Keys.size());
    KeyRecord C;
    C.Ofs = static_cast<uint32_t>(Img.KeyPool.size());
    C.Len = keyLen(Old);
    C.Hash = keyHash(Old);
    const char *D = keyData(Old);
    Img.KeyPool.insert(Img.KeyPool.end(), D, D + C.Len);
    Img.Keys.push_back(C);
    Img.KeyToEntry.push_back(NoId);
    KeyRemap[Old] = New;
    return New;
  };

  // Worklist item: copy old node Old and hang the copy off the given edge
  // of the already-copied parent (Edge -1 = Next, 0/1 = OnValue).
  struct WorkItem {
    uint32_t Old;
    uint32_t ParentOld;
    uint32_t ParentNew;
    int8_t Edge;
  };
  std::vector<WorkItem> Work;

  for (const CacheEntry &E : Entries) {
    if (E.Head == ActionNode::NoNode)
      continue;
    EntryId NewE = static_cast<EntryId>(Img.Entries.size());
    Img.Entries.emplace_back();
    CacheEntry &C = Img.Entries.back();
    C.Key = remapKey(E.Key);
    C.LastUse = E.LastUse;
    Img.KeyToEntry[C.Key] = NewE;

    Work.push_back({E.Head, ActionNode::NoNode, ActionNode::NoNode, -1});
    while (!Work.empty()) {
      WorkItem W = Work.back();
      Work.pop_back();
      const ActionNode &Src = node(W.Old);
      uint32_t NewIdx = static_cast<uint32_t>(Img.Nodes.size());
      Img.Nodes.push_back(Src);
      ActionNode &Dst = Img.Nodes.back();
      Dst.DataOfs = static_cast<uint32_t>(Img.Data.size());
      const int64_t *Span = spanData(Src.DataOfs);
      Img.Data.insert(Img.Data.end(), Span, Span + Src.DataLen);
      Dst.Next = ActionNode::NoNode;
      Dst.OnValue[0] = Dst.OnValue[1] = ActionNode::NoNode;
      if (Dst.K == ActionNode::Kind::End)
        Dst.NextKey = remapKey(Src.NextKey);
      // Re-home the seal: node indices (and the head's key id) change the
      // link tag, a remapped NextKey the identity mix; the data xor stays.
      // Only NextKey differs between Src and Dst's identity fields, so an
      // unchanged one re-homes by 0.
      const uint64_t Rehome = Dst.NextKey == Src.NextKey
                                  ? 0
                                  : identityMix(Src) ^ identityMix(Dst);
      uint64_t OldTag, NewTag;
      if (W.ParentNew == ActionNode::NoNode) {
        C.Head = NewIdx;
        OldTag = headTag(E.Key);
        NewTag = headTag(C.Key);
      } else if (W.Edge < 0) {
        Img.Nodes[W.ParentNew].Next = NewIdx;
        OldTag = edgeTag(W.ParentOld, -1);
        NewTag = edgeTag(W.ParentNew, -1);
      } else {
        Img.Nodes[W.ParentNew].OnValue[W.Edge] = NewIdx;
        OldTag = edgeTag(W.ParentOld, W.Edge);
        NewTag = edgeTag(W.ParentNew, W.Edge);
      }
      Img.Seals.push_back(nodeSeal(W.Old) ^ OldTag ^ NewTag ^ Rehome);
      if (Src.K == ActionNode::Kind::Plain &&
          Src.Next != ActionNode::NoNode)
        Work.push_back({Src.Next, W.Old, NewIdx, -1});
      if (Src.K == ActionNode::Kind::Test)
        for (int V = 0; V != 2; ++V) {
          // testSuccessor folds the edge-patch table in, so an overlay
          // extension of a base test survives compaction/promotion.
          uint32_t Succ = testSuccessor(W.Old, V);
          if (Succ != ActionNode::NoNode)
            Work.push_back({Succ, W.Old, NewIdx, static_cast<int8_t>(V)});
        }
    }
  }
  return Img;
}

void ActionCache::adoptImage(FlatImage Img) {
  HasBase = false;
  Base = BaseArenas{};
  BaseVerified.clear();
  Patches.clear();
  KeyPool = std::move(Img.KeyPool);
  Keys = std::move(Img.Keys);
  KeyToEntry = std::move(Img.KeyToEntry);
  Entries = std::move(Img.Entries);
  NodeArena = std::move(Img.Nodes);
  NodeSeal = std::move(Img.Seals);
  VerifyMark.assign(NodeSeal.size(), 0);
  ++Epoch;
  DataPool = std::move(Img.Data);
  PendingXor = 0;
  Tick = Img.Tick;
  Table.clear();
  growTable();
  resetEntryHistory();
  notePeak();
}
