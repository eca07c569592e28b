//===- test_actioncache.cpp - Specialized action cache unit tests -------------===//
//
// Unit tests for the flat action-cache data layer: the interned key table
// (collision handling, rehash growth, binary-safe keys), the shared node
// arena and data pool, derived byte accounting, both eviction policies
// (clear-on-full and segmented LRU-half compaction), and the key-table
// hash (hashKey) the interned table is indexed by.
//
//===----------------------------------------------------------------------===//

#include "src/runtime/ActionCache.h"

#include <gtest/gtest.h>

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
  ActionCache C(256, EvictionPolicy::ClearAll);
  for (int I = 0; I != 8; ++I)
    C.create(intern(C, "key-" + std::to_string(I)));
  EXPECT_TRUE(C.overBudget());
  C.evict();
  EXPECT_EQ(C.entryCount(), 0u);
  EXPECT_EQ(C.bytes(), 0u);
  EXPECT_EQ(C.stats().Clears, 1u);
  EXPECT_EQ(C.stats().Evictions, 0u);
}

namespace {

/// Builds an entry with the Figure 2 shape — plain -> test -> {end, end}
/// — with one data word per node, for eviction round-trips.
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

TEST(ActionCache, SegmentedEvictionKeepsHotHalf) {
  ActionCache C(1u << 20, EvictionPolicy::Segmented);
  for (int I = 0; I != 8; ++I)
    buildEntry(C, "key-" + std::to_string(I), I * 10);
  // Touch the last four so they are the hot half.
  std::vector<std::string> Hot;
  for (int I = 4; I != 8; ++I) {
    Hot.push_back("key-" + std::to_string(I));
    C.lookup(C.internKey(Hot.back().data(), Hot.back().size()));
  }
  size_t Before = C.bytes();
  C.evict();
  EXPECT_EQ(C.stats().Evictions, 1u);
  EXPECT_EQ(C.stats().EvictedEntries, 4u);
  EXPECT_EQ(C.entryCount(), 4u);
  EXPECT_LT(C.bytes(), Before);

  // The hot entries survived with their graphs and data intact.
  for (size_t I = 0; I != Hot.size(); ++I) {
    KeyId K = C.internKey(Hot[I].data(), Hot[I].size());
    EntryId E = C.lookup(K);
    ASSERT_NE(E, NoId) << Hot[I];
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
      std::string NextKey = Hot[I] + "-next";
      ASSERT_NE(C.node(End).NextKey, NoId);
      EXPECT_TRUE(
          C.keyEquals(C.node(End).NextKey, NextKey.data(), NextKey.size()));
    }
  }

  // Evicted keys miss and can be re-created.
  std::string Cold = "key-0";
  KeyId K0 = C.internKey(Cold.data(), Cold.size());
  EXPECT_EQ(C.lookup(K0), NoId);
  EXPECT_NE(buildEntry(C, "key-0b", 999), NoId);
}

TEST(ActionCache, SegmentedFallsBackToClearWhenStillOverBudget) {
  // A budget so small that even the retained half overflows: the evict
  // must end in a wholesale clear so the budget is honoured.
  ActionCache C(128, EvictionPolicy::Segmented);
  for (int I = 0; I != 6; ++I)
    buildEntry(C, "key-" + std::to_string(I), I);
  EXPECT_TRUE(C.overBudget());
  C.evict();
  EXPECT_FALSE(C.overBudget());
  EXPECT_EQ(C.entryCount(), 0u);
  EXPECT_GE(C.stats().Clears, 1u);
}

TEST(ActionCache, EntryIdsStableAcrossInserts) {
  // Ids index a vector: growing the cache must keep earlier ids valid
  // (the replay path and recovery hold EntryIds within a step).
  ActionCache C(1 << 20);
  EntryId First = C.create(intern(C, "first"));
  C.pushData(42);
  uint32_t N = C.appendNode(7);
  C.entry(First).Head = N;
  for (int I = 0; I != 1000; ++I)
    C.create(intern(C, "k" + std::to_string(I)));
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
  // reference implementation's. FACSTOR1 files persist these hashes, so
  // any change here must bump store::StoreVersion.
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
