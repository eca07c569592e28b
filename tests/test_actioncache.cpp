//===- test_actioncache.cpp - Specialized action cache unit tests -------------===//
//
// Unit tests for the flat action-cache data layer: the interned key table
// (collision handling, rehash growth, binary-safe keys), the shared node
// arena and data pool, derived byte accounting, clear-on-full eviction,
// compaction into a flat image, and the key-table hash (hashKey) the
// interned table is indexed by.
//
//===----------------------------------------------------------------------===//

#include "src/runtime/ActionCache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

using namespace facile;
using namespace facile::rt;

namespace {

KeyId intern(ActionCache &C, const std::string &K) {
  return C.internKey(K.data(), K.size());
}

/// Deterministic filler bytes for the hash tests.
std::vector<unsigned char> patternBytes(size_t N) {
  std::vector<unsigned char> B(N);
  for (size_t I = 0; I != N; ++I)
    B[I] = static_cast<unsigned char>(I * 31 + 7);
  return B;
}

} // namespace

TEST(ActionCache, LookupMissThenHit) {
  ActionCache C(1 << 20);
  KeyId K1 = intern(C, "k1");
  EXPECT_EQ(C.lookup(K1), NoId);
  EntryId E = C.create(K1);
  ASSERT_NE(E, NoId);
  EXPECT_EQ(C.lookup(K1), E);
  EXPECT_EQ(C.lookup(intern(C, "k2")), NoId);
  EXPECT_EQ(C.entryCount(), 1u);
  EXPECT_EQ(C.stats().Lookups, 3u);
  EXPECT_EQ(C.stats().Hits, 1u);
  EXPECT_EQ(C.stats().EntriesCreated, 1u);
}

TEST(ActionCache, FindKeyHitsOverlayWithoutInterning) {
  ActionCache C(1 << 20);
  KeyId A = intern(C, "alpha");
  KeyId B = intern(C, "beta");
  const uint64_t Interned = C.stats().KeysInterned;
  EXPECT_EQ(C.findKey("alpha", 5), A);
  EXPECT_EQ(C.findKey("beta", 4), B);
  EXPECT_EQ(C.keyCount(), 2u);
  EXPECT_EQ(C.stats().KeysInterned, Interned);
}

TEST(ActionCache, FindKeyMissLeavesTheKeyTableAlone) {
  ActionCache C(1 << 20);
  // Before any key: the overlay table is not even allocated.
  const size_t Empty = C.bytes();
  EXPECT_EQ(C.findKey("nope", 4), NoId);
  EXPECT_EQ(C.bytes(), Empty);
  EXPECT_EQ(C.keyCount(), 0u);
  for (int I = 0; I != 100; ++I)
    intern(C, "key-" + std::to_string(I));
  const size_t Keys = C.keyCount(), Pool = C.keyPoolBytes(), B = C.bytes();
  for (int I = 100; I != 1000; ++I) {
    std::string K = "key-" + std::to_string(I);
    EXPECT_EQ(C.findKey(K.data(), K.size()), NoId);
  }
  EXPECT_EQ(C.keyCount(), Keys);
  EXPECT_EQ(C.keyPoolBytes(), Pool);
  EXPECT_EQ(C.bytes(), B); // the probe table did not grow either
  EXPECT_EQ(C.stats().KeysInterned, Keys);
}

TEST(ActionCache, FindKeyCountsProbesLikeInternKey) {
  // The same probe sequence either way: a cache that finds every key
  // after interning it counts exactly what interning them again counts.
  ActionCache Find(64u << 20), Intern(64u << 20);
  std::vector<std::string> Keys;
  for (int I = 0; I != 3000; ++I)
    Keys.push_back("key-" + std::to_string(I));
  for (const std::string &K : Keys) {
    intern(Find, K);
    intern(Intern, K);
  }
  const uint64_t Total0 = Find.stats().ProbeTotal;
  ASSERT_EQ(Total0, Intern.stats().ProbeTotal);
  for (const std::string &K : Keys) {
    EXPECT_NE(Find.findKey(K.data(), K.size()), NoId);
    intern(Intern, K);
  }
  EXPECT_GT(Find.stats().ProbeTotal, Total0);
  EXPECT_EQ(Find.stats().ProbeTotal, Intern.stats().ProbeTotal);
  EXPECT_EQ(Find.stats().ProbeMax, Intern.stats().ProbeMax);
  // A miss probes to the first empty slot, as interning a new key does.
  uint64_t Probed = 0;
  for (int I = 0; I != 200; ++I) {
    std::string K = "other-" + std::to_string(I);
    const uint64_t F0 = Find.stats().ProbeTotal;
    const uint64_t I0 = Intern.stats().ProbeTotal;
    EXPECT_EQ(Find.findKey(K.data(), K.size()), NoId);
    intern(Intern, K);
    EXPECT_EQ(Find.stats().ProbeTotal - F0, Intern.stats().ProbeTotal - I0);
    Probed += Find.stats().ProbeTotal - F0;
    intern(Find, K); // keep the two tables the same shape
  }
  EXPECT_GT(Probed, 0u);
}

TEST(ActionCache, InternAbsentCountsANewKeysProbesOnce) {
  // A miss step that records runs findKey and then internAbsent: the new
  // key's probes are counted once, in the table the lookup saw. The
  // reference is a plain linear-probing table that grows (doubling, at
  // least 64 slots) to keep (keys + 1) * 3 <= slots * 2 before each
  // lookup, as interning counted probes before findKey existed.
  ActionCache C(64u << 20);
  std::vector<uint64_t> Hashes; // reference: key id -> hash
  std::vector<int64_t> Slots;   // reference: slot -> key id or -1
  uint64_t RefTotal = 0, RefMax = 0;
  auto refLookup = [&](uint64_t H, int64_t Id) {
    size_t Size = Slots.empty() ? 64 : Slots.size();
    while (Size * 2 < (Hashes.size() + 1) * 3)
      Size *= 2;
    if (Size != Slots.size()) {
      Slots.assign(Size, -1);
      for (size_t K = 0; K != Hashes.size(); ++K) {
        size_t I = Hashes[K] & (Size - 1);
        while (Slots[I] != -1)
          I = (I + 1) & (Size - 1);
        Slots[I] = static_cast<int64_t>(K);
      }
    }
    uint64_t Probes = 0;
    size_t I = H & (Size - 1);
    for (; Slots[I] != -1 && Slots[I] != Id; I = (I + 1) & (Size - 1))
      ++Probes;
    RefTotal += Probes;
    RefMax = std::max(RefMax, Probes);
    if (Slots[I] == -1) {
      Slots[I] = static_cast<int64_t>(Hashes.size());
      Hashes.push_back(H);
    }
  };
  for (int I = 0; I != 3000; ++I) {
    // Every third lookup revisits an older key (a chain miss that hits).
    const int Id = I % 3 == 2 ? I / 2 : I;
    std::string K = "key-" + std::to_string(Id);
    const uint64_t H = hashKey(K.data(), K.size());
    KeyId Found = C.findKey(K.data(), K.size(), H);
    if (Found == NoId)
      Found = C.internAbsent(K.data(), K.size(), H);
    refLookup(H, Found);
    ASSERT_EQ(C.keyCount(), Hashes.size());
    ASSERT_EQ(C.stats().ProbeTotal, RefTotal) << "at lookup " << I;
  }
  EXPECT_GT(RefTotal, 0u);
  EXPECT_EQ(C.stats().ProbeMax, RefMax);
}

TEST(ActionCache, FindKeyHitsTheBaseTable) {
  // Base keys resolve through the read-only base table, overlay keys
  // through the private one; a miss in both interns nothing.
  ActionCache Src(1 << 20);
  KeyId S0 = intern(Src, "base-0");
  intern(Src, "base-1");
  // A recorded entry: compaction keeps it, and with it its key.
  Src.entry(Src.create(S0)).Head = Src.appendNode(0);
  ActionCache::FlatImage Img = Src.compactImage();
  std::vector<uint32_t> Table = ActionCache::buildProbeTable(Img.Keys);
  ActionCache::BaseArenas B;
  B.KeyPool = Img.KeyPool.data();
  B.KeyPoolBytes = Img.KeyPool.size();
  B.Keys = Img.Keys.data();
  B.NumKeys = static_cast<uint32_t>(Img.Keys.size());
  B.Table = Table.data();
  B.TableSize = Table.size();
  B.Entries = Img.Entries.data();
  B.NumEntries = static_cast<uint32_t>(Img.Entries.size());
  B.KeyToEntry = Img.KeyToEntry.data();

  ActionCache C(1 << 20);
  ASSERT_TRUE(C.attachBase(B));
  const KeyId Base0 = C.findKey("base-0", 6);
  ASSERT_NE(Base0, NoId);
  EXPECT_LT(Base0, C.baseKeyCount());
  EXPECT_EQ(std::string(C.keyData(Base0), C.keyLen(Base0)), "base-0");
  KeyId Over = intern(C, "overlay");
  EXPECT_GE(Over, C.baseKeyCount());
  EXPECT_EQ(C.findKey("overlay", 7), Over);
  const size_t Keys = C.keyCount(), Pool = C.keyPoolBytes();
  EXPECT_EQ(C.findKey("absent", 6), NoId);
  EXPECT_EQ(C.keyCount(), Keys);
  EXPECT_EQ(C.keyPoolBytes(), Pool);
}

TEST(ActionCache, FirstTouchFilterMarksAndClearsWithTheCache) {
  ActionCache C(1 << 20);
  const uint64_t H = hashKey("some key", 8);
  EXPECT_FALSE(C.touchKey(H));
  EXPECT_TRUE(C.touchKey(H));
  EXPECT_EQ(C.seenKeyBits(), 1u);
  C.clear();
  EXPECT_EQ(C.seenKeyBits(), 0u);
  EXPECT_FALSE(C.touchKey(H));
  // A detached (abandoned or corrupt) entry's key is marked, so a
  // second-touch policy re-records it on its next visit.
  KeyId K = intern(C, "abandoned");
  C.detachEntry(C.create(K));
  EXPECT_TRUE(C.touchKey(C.keyHash(K)));
}

TEST(ActionCache, EntryHitTracksRecencySinceCreation) {
  ActionCache C(1 << 20);
  EntryId A = C.create(intern(C, "a"));
  EntryId B = C.create(intern(C, "b"));
  C.entry(A).Head = C.appendNode(0);
  C.entry(B).Head = C.appendNode(0);
  EXPECT_FALSE(C.entryHit(A));
  EXPECT_EQ(C.neverHitEntries(), 2u);
  EXPECT_EQ(C.lookup(C.entry(A).Key), A);
  EXPECT_TRUE(C.entryHit(A));
  EXPECT_FALSE(C.entryHit(B));
  EXPECT_EQ(C.neverHitEntries(), 1u);
  C.detachEntry(B); // detached entries are not live
  EXPECT_EQ(C.neverHitEntries(), 0u);
}

TEST(ActionCache, InternDeduplicates) {
  ActionCache C(1 << 20);
  KeyId A = intern(C, "same-key");
  KeyId B = intern(C, "same-key");
  EXPECT_EQ(A, B);
  EXPECT_EQ(C.keyCount(), 1u);
  EXPECT_EQ(C.stats().KeysInterned, 1u);
  EXPECT_EQ(C.keyPoolBytes(), 8u);
  // The span reads back the original bytes.
  EXPECT_EQ(std::string(C.keyData(A), C.keyLen(A)), "same-key");
}

TEST(ActionCache, KeysAreBinarySafe) {
  ActionCache C(1 << 20);
  std::string K1("\x00\x01\x02", 3);
  std::string K2("\x00\x01\x03", 3);
  KeyId I1 = intern(C, K1);
  KeyId I2 = intern(C, K2);
  EXPECT_NE(I1, I2);
  EntryId E1 = C.create(I1);
  EntryId E2 = C.create(I2);
  EXPECT_NE(E1, E2);
  EXPECT_EQ(C.lookup(I1), E1);
  EXPECT_EQ(C.lookup(I2), E2);
  EXPECT_TRUE(C.keyEquals(I1, K1.data(), K1.size()));
  EXPECT_FALSE(C.keyEquals(I1, K2.data(), K2.size()));
}

TEST(ActionCache, InternSurvivesTableGrowthAndCollisions) {
  // Far more keys than the initial table: forces several rehashes and
  // plenty of probe collisions; every key must stay resolvable and ids
  // must stay stable.
  ActionCache C(64u << 20);
  std::vector<KeyId> Ids;
  for (int I = 0; I != 5000; ++I)
    Ids.push_back(intern(C, "key-" + std::to_string(I)));
  for (int I = 0; I != 5000; ++I) {
    std::string K = "key-" + std::to_string(I);
    EXPECT_EQ(intern(C, K), Ids[I]);
    EXPECT_TRUE(C.keyEquals(Ids[I], K.data(), K.size()));
  }
  EXPECT_EQ(C.keyCount(), 5000u);
  // With thousands of keys some probe sequences must have collided.
  EXPECT_GT(C.stats().ProbeTotal, 0u);
  EXPECT_GE(C.stats().ProbeMax, 1u);
}

TEST(ActionCache, BytesCoverEveryStore) {
  // The byte account is derived from the containers, so every kind of
  // growth — key bytes, entries, nodes, data words — must move bytes().
  ActionCache C(1u << 30);
  size_t B0 = C.bytes();
  KeyId K = intern(C, std::string(100, 'x'));
  size_t B1 = C.bytes();
  EXPECT_GE(B1, B0 + 100);
  EntryId E = C.create(K);
  size_t B2 = C.bytes();
  EXPECT_GE(B2, B1 + sizeof(CacheEntry));
  uint32_t N = C.appendNode(0);
  C.entry(E).Head = N;
  size_t B3 = C.bytes();
  EXPECT_GE(B3, B2 + sizeof(ActionNode));
  for (int I = 0; I != 10; ++I)
    C.pushData(I);
  size_t B4 = C.bytes();
  EXPECT_GE(B4, B3 + 10 * sizeof(int64_t));
  EXPECT_GE(C.stats().PeakBytes, B4);
}

TEST(ActionCache, OverBudgetReflectsRealFootprint) {
  // Data-pool growth alone must trip the budget: the old accounting
  // (key size + flat 64 per entry) missed arena growth entirely.
  ActionCache C(1024);
  C.create(intern(C, "k"));
  EXPECT_FALSE(C.overBudget());
  for (int I = 0; I != 200; ++I)
    C.pushData(I);
  EXPECT_TRUE(C.overBudget());
  EXPECT_GE(C.stats().PeakBytes, 200 * sizeof(int64_t));
}

TEST(ActionCache, ClearDropsEverything) {
  ActionCache C(1000);
  KeyId K = intern(C, "a");
  C.create(K);
  C.appendNode(1);
  for (int I = 0; I != 500; ++I)
    C.pushData(I);
  EXPECT_TRUE(C.overBudget());
  C.clear();
  EXPECT_EQ(C.entryCount(), 0u);
  EXPECT_EQ(C.keyCount(), 0u);
  EXPECT_EQ(C.nodeCount(), 0u);
  EXPECT_EQ(C.bytes(), 0u);
  EXPECT_FALSE(C.overBudget());
  EXPECT_EQ(C.stats().Clears, 1u);
  // Keys re-intern from scratch and entries can be re-created.
  KeyId K2 = intern(C, "a");
  EXPECT_EQ(C.lookup(K2), NoId);
  EXPECT_NE(C.create(K2), NoId);
}

TEST(ActionCache, ClearAllPolicyEvictsWholesale) {
  ActionCache C(256);
  for (int I = 0; I != 8; ++I)
    C.create(intern(C, "key-" + std::to_string(I)));
  EXPECT_TRUE(C.overBudget());
  C.clear();
  EXPECT_EQ(C.entryCount(), 0u);
  EXPECT_EQ(C.bytes(), 0u);
  EXPECT_EQ(C.stats().Clears, 1u);
}

namespace {

/// Builds an entry with the Figure 2 shape — plain -> test -> {end, end}
/// — with one data word per node, for compaction round-trips.
EntryId buildEntry(ActionCache &C, const std::string &Key, int64_t Tag) {
  EntryId E = C.create(C.internKey(Key.data(), Key.size()));
  uint32_t P = C.appendNode(0);
  C.pushData(Tag);
  C.node(P).K = ActionNode::Kind::Plain;
  C.node(P).DataLen = 1;
  C.entry(E).Head = P;
  uint32_t T = C.appendNode(1);
  C.pushData(Tag + 1);
  C.node(T).K = ActionNode::Kind::Test;
  C.node(T).DataLen = 1;
  C.node(P).Next = T;
  for (int V = 0; V != 2; ++V) {
    uint32_t End = C.appendNode(2 + V);
    C.pushData(Tag + 2 + V);
    C.node(End).K = ActionNode::Kind::End;
    C.node(End).DataLen = 1;
    std::string NextKey = Key + "-next";
    C.node(End).NextKey = C.internKey(NextKey.data(), NextKey.size());
    C.node(T).OnValue[V] = End;
  }
  return E;
}

} // namespace

TEST(ActionCache, CompactImageKeepsRecordedEntries) {
  // Compaction (store promotion, cache snapshots) copies every recorded
  // entry's graph, data and next keys into a fresh image and skips
  // detached entries.
  ActionCache Src(1u << 20);
  std::vector<std::string> Kept;
  for (int I = 0; I != 8; ++I) {
    EntryId E = buildEntry(Src, "key-" + std::to_string(I), I * 10);
    if (I < 4)
      Src.detachEntry(E);
    else
      Kept.push_back("key-" + std::to_string(I));
  }
  ActionCache C(1u << 20);
  C.adoptImage(Src.compactImage());
  EXPECT_EQ(C.entryCount(), 4u);
  EXPECT_LT(C.bytes(), Src.bytes());

  for (size_t I = 0; I != Kept.size(); ++I) {
    KeyId K = C.internKey(Kept[I].data(), Kept[I].size());
    EntryId E = C.lookup(K);
    ASSERT_NE(E, NoId) << Kept[I];
    int64_t Tag = static_cast<int64_t>((I + 4) * 10);
    uint32_t P = C.entry(E).Head;
    ASSERT_NE(P, ActionNode::NoNode);
    EXPECT_EQ(C.node(P).K, ActionNode::Kind::Plain);
    EXPECT_EQ(C.data()[C.node(P).DataOfs], Tag);
    uint32_t T = C.node(P).Next;
    ASSERT_NE(T, ActionNode::NoNode);
    EXPECT_EQ(C.node(T).K, ActionNode::Kind::Test);
    EXPECT_EQ(C.data()[C.node(T).DataOfs], Tag + 1);
    for (int V = 0; V != 2; ++V) {
      uint32_t End = C.node(T).OnValue[V];
      ASSERT_NE(End, ActionNode::NoNode);
      EXPECT_EQ(C.node(End).K, ActionNode::Kind::End);
      EXPECT_EQ(C.data()[C.node(End).DataOfs], Tag + 2 + V);
      // The remapped next key still reads back correctly.
      std::string NextKey = Kept[I] + "-next";
      ASSERT_NE(C.node(End).NextKey, NoId);
      EXPECT_TRUE(
          C.keyEquals(C.node(End).NextKey, NextKey.data(), NextKey.size()));
    }
  }

  // Detached keys miss and can be re-created.
  std::string Cold = "key-0";
  EXPECT_EQ(C.lookup(C.internKey(Cold.data(), Cold.size())), NoId);
  EXPECT_NE(buildEntry(C, "key-0b", 999), NoId);
}

TEST(ActionCache, EntryIdsStableAcrossInserts) {
  // Ids index a vector: growing the cache must keep earlier ids valid
  // (the replay path and recovery hold EntryIds within a step).
  ActionCache C(1 << 20);
  EntryId First = C.create(intern(C, "first"));
  C.pushData(42);
  uint32_t N = C.appendNode(7);
  C.entry(First).Head = N;
  for (int I = 0; I != 1000; ++I) {
    std::string Key(1, 'k');
    Key += std::to_string(I);
    C.create(intern(C, Key));
  }
  EXPECT_EQ(C.lookup(intern(C, "first")), First);
  EXPECT_EQ(C.entry(First).Head, N);
  EXPECT_EQ(C.data()[0], 42);
}

TEST(ActionCache, NodeLinkingShapes) {
  // Build an entry by hand: plain -> test -> {end, end}, the Figure 2
  // control-path shape, over the shared arena.
  ActionCache C(1 << 20);
  EntryId E = C.create(intern(C, "k"));
  uint32_t N0 = C.appendNode(0);
  uint32_t N1 = C.appendNode(1);
  uint32_t N2 = C.appendNode(2);
  uint32_t N3 = C.appendNode(3);
  C.entry(E).Head = N0;
  C.node(N0).K = ActionNode::Kind::Plain;
  C.node(N0).Next = N1;
  C.node(N1).K = ActionNode::Kind::Test;
  C.node(N1).OnValue[0] = N2;
  C.node(N1).OnValue[1] = N3;
  C.node(N2).K = ActionNode::Kind::End;
  C.node(N3).K = ActionNode::Kind::End;
  // Walk both paths.
  for (int V : {0, 1}) {
    uint32_t N = C.entry(E).Head;
    N = C.node(N).Next;
    N = C.node(N).OnValue[V];
    EXPECT_EQ(C.node(N).K, ActionNode::Kind::End);
  }
}

//===----------------------------------------------------------------------===//
// Key-table hash
//===----------------------------------------------------------------------===//

TEST(KeyHash, KnownAnswers) {
  // hashKey is xxHash64 with seed 0; the first four values are the
  // reference implementation's. Cache images persist these hashes, so
  // any change here must bump snapshot::FormatVersion.
  EXPECT_EQ(hashKey("", 0), 0xef46db3751d8e999ULL);
  EXPECT_EQ(hashKey("a", 1), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(hashKey("abc", 3), 0x44bc2cf5ad770999ULL);
  const char *Ref = "Nobody inspects the spammish repetition";
  EXPECT_EQ(hashKey(Ref, std::strlen(Ref)), 0xfbcea83c8a378bf1ULL);
  // One stripe exactly, one stripe plus a word, and an ooo.fac-sized key.
  std::vector<unsigned char> B = patternBytes(1576);
  EXPECT_EQ(hashKey(B.data(), 32), 0x8d57d6a4671cc43dULL);
  EXPECT_EQ(hashKey(B.data(), 40), 0x49b45332e280f187ULL);
  EXPECT_EQ(hashKey(B.data(), 1576), 0x4d9a5ea07cbe3cd8ULL);
}

TEST(KeyHash, EveryTailLengthIsDistinctAndConsumed) {
  // Lengths 0..40 walk every path: no stripe or one, then 0-3 whole words,
  // an optional half word and 0-3 single bytes.
  std::vector<unsigned char> B = patternBytes(40);
  std::set<uint64_t> Seen;
  for (size_t L = 0; L <= 40; ++L) {
    SCOPED_TRACE("length " + std::to_string(L));
    uint64_t H = hashKey(B.data(), L);
    EXPECT_TRUE(Seen.insert(H).second);
    if (L == 0)
      continue;
    // The first and last bytes reach the hash whichever path reads them.
    for (size_t At : {size_t(0), L - 1}) {
      B[At] ^= 1;
      EXPECT_NE(hashKey(B.data(), L), H);
      B[At] ^= 1;
    }
  }
}

TEST(KeyHash, StreamedHashEqualsOnePass) {
  // serializeKey feeds each finished field to a KeyHasher: whatever the
  // split points, the value is hashKey's.
  std::vector<unsigned char> B = patternBytes(1576);
  for (size_t Len : {size_t(0), size_t(31), size_t(32), size_t(214),
                     size_t(1576)}) {
    for (size_t Step : {size_t(1), size_t(7), size_t(32), size_t(100)}) {
      KeyHasher H(B.data());
      for (size_t At = 0; At < Len; At += Step)
        H.feed(B.data() + At);
      EXPECT_EQ(H.finish(B.data() + Len), hashKey(B.data(), Len))
          << "length " << Len << ", fed every " << Step;
    }
  }
}

TEST(SealIdentity, TableMatchesTheMixAndKnownValues) {
  // Seal identities are persisted in every sealed image, so the table
  // must reproduce the FNV mix exactly, including for node fields no
  // valid node carries (the verifiers mix corrupt nodes too).
  const uint32_t Actions[] = {0, 1, 7, rt::detail::SealTableActions - 1,
                              rt::detail::SealTableActions, 1u << 30,
                              0xffffffffu};
  for (uint32_t A : Actions)
    for (uint8_t K : {0, 1, 2, 3, 255})
      for (uint32_t Next : {NoId, 0u, 12345u}) {
        ActionNode N;
        N.ActionId = static_cast<int32_t>(A);
        N.K = static_cast<ActionNode::Kind>(K);
        N.NextKey = Next;
        EXPECT_EQ(ActionCache::identityMix(N),
                  hashCombine(hashCombine(hashCombine(FNVOffset, A), K), Next))
            << "action " << A << ", kind " << unsigned(K) << ", next " << Next;
      }
  // hashCombine is hashBytes over the value's bytes.
  for (uint64_t V : {uint64_t(0), uint64_t(0x0123456789abcdefULL),
                     ~uint64_t(0)})
    EXPECT_EQ(hashCombine(FNVOffset, V), hashBytes(&V, sizeof(V)));
  // Values sealed images carry.
  struct Known {
    int32_t A;
    uint8_t K;
    uint32_t Next;
    uint64_t Mix;
  } Cases[] = {
      {0, 0, NoId, 0x5e7ffcc721c21021ULL},
      {7, 1, NoId, 0x160691145115193fULL},
      {1023, 2, 17, 0xb0b50d00dc8cab4cULL},
      {1024, 0, NoId, 0x9b7f6844e7b6c7b5ULL},
      {-1, 0, NoId, 0xb122cacc511ff63dULL},
      {1 << 30, 2, 5, 0xe3ed1acf804ca9a2ULL},
      {3, 7, NoId, 0x0ebf70a22b9ec73dULL},
  };
  for (const Known &C : Cases) {
    ActionNode N;
    N.ActionId = C.A;
    N.K = static_cast<ActionNode::Kind>(C.K);
    N.NextKey = C.Next;
    EXPECT_EQ(ActionCache::identityMix(N), C.Mix) << "action " << C.A;
  }
}

TEST(KeyHash, UnalignedInputHashesLikeAligned) {
  std::vector<unsigned char> Src = patternBytes(1576);
  alignas(8) unsigned char Buf[1576 + 8];
  for (size_t Len : {size_t(13), size_t(40), size_t(1576)}) {
    uint64_t Want = hashKey(Src.data(), Len);
    for (size_t Ofs = 0; Ofs != 8; ++Ofs) {
      std::memcpy(Buf + Ofs, Src.data(), Len);
      EXPECT_EQ(hashKey(Buf + Ofs, Len), Want)
          << "length " << Len << ", offset " << Ofs;
    }
  }
}

TEST(KeyHash, OooShapedKeysSpreadOverTheTable) {
  // ooo.fac keys are 197 int64 words, and neighbouring steps' keys often
  // differ only in one small word. The table index is H & Mask, so those
  // few varying bits must reach the low bits of the hash whether they sit
  // low in the word (a counter) or high (an address or a packed field); a
  // hash without a full avalanche piles the second case onto one slot.
  // A random hash gives a mean near 1.5 probes and a max near 60-90 here.
  constexpr size_t Words = 197;
  constexpr int N = 1 << 16;
  for (int Shift : {0, 32}) {
    SCOPED_TRACE("varying bits at shift " + std::to_string(Shift));
    std::vector<int64_t> Key(Words);
    for (size_t W = 0; W != Words; ++W)
      Key[W] = static_cast<int64_t>(W % 5) - 1;
    ActionCache C(size_t(1) << 30);
    for (int I = 0; I != N; ++I) {
      Key[100] = static_cast<int64_t>(static_cast<uint64_t>(I) << Shift);
      const char *Bytes = reinterpret_cast<const char *>(Key.data());
      KeyId K = C.internKey(Bytes, Words * 8);
      ASSERT_EQ(C.keyHash(K), hashKey(Bytes, Words * 8));
    }
    ASSERT_EQ(C.stats().KeysInterned, uint64_t(N));
    double MeanProbes =
        static_cast<double>(C.stats().ProbeTotal) / C.stats().KeysInterned;
    EXPECT_LT(MeanProbes, 2.0);
    EXPECT_LE(C.stats().ProbeMax, 256u);
  }
}
