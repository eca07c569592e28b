//===- test_cache_stress.cpp - Randomized tiny-budget cache stress -----------===//
//
// Drives the memoizing runtime under cache budgets small enough (4 KB to
// 64 KB) that clears, segmented evictions and recovery re-records happen
// constantly, with randomized chunked stepping so evictions land at
// arbitrary points in the step stream. Checks the stats invariants the
// rest of the system relies on (Hits <= Lookups, bytes() back to zero
// after a clear, bytes() within budget after every memoized step,
// PeakBytes monotone) and that the final architectural state matches an
// unbudgeted memoized run step for step. A 4 MB ooo.fac run checks that
// every clear or compaction empties the first-touch filter of
// second-touch admission along with the cache.
//
//===----------------------------------------------------------------------===//

#include "src/sims/SimHarness.h"
#include "src/support/Rng.h"
#include "src/workload/Workloads.h"

#include <gtest/gtest.h>

using namespace facile;
using namespace facile::sims;

namespace {

isa::TargetImage &stressImage() {
  static isa::TargetImage Image = [] {
    workload::WorkloadSpec Spec = *workload::findSpec("compress");
    Spec.DataKWords = 2;
    return workload::generate(Spec, 2);
  }();
  return Image;
}

struct ArchState {
  uint64_t Retired = 0;
  uint64_t Cycles = 0;
  uint64_t MemDigest = 0;
  bool Halted = false;

  friend bool operator==(const ArchState &A, const ArchState &B) {
    return A.Retired == B.Retired && A.Cycles == B.Cycles &&
           A.MemDigest == B.MemDigest && A.Halted == B.Halted;
  }
};

ArchState snapshot(const FacileSim &Sim) {
  return {Sim.sim().stats().RetiredTotal, Sim.sim().stats().Cycles,
          Sim.sim().memory().digest(), Sim.sim().halted()};
}

/// Runs one simulator under \p Budget / \p Policy in Rng-sized chunks,
/// checking cache invariants after every chunk, and mirrors each chunk on
/// an unbudgeted reference simulator to compare architectural state.
void stressOne(SimKind Kind, rt::EvictionPolicy Policy, size_t Budget,
               uint64_t Seed) {
  SCOPED_TRACE(std::string("budget=") + std::to_string(Budget) +
               (Policy == rt::EvictionPolicy::Segmented ? " segmented"
                                                        : " clearall"));

  rt::Simulation::Options Tiny;
  Tiny.CacheBudgetBytes = Budget;
  Tiny.Eviction = Policy;
  FacileSim Sim(Kind, stressImage(), Tiny);

  rt::Simulation::Options Roomy; // default 256 MB, never evicts here
  FacileSim Ref(Kind, stressImage(), Roomy);

  Rng R(Seed);
  uint64_t PrevPeak = 0;
  uint64_t TotalSteps = 0;
  while (!Sim.sim().halted() && TotalSteps < 400'000) {
    uint64_t Chunk = 1 + R.below(997); // odd stride: desync from loop shapes
    uint64_t Did = Sim.sim().run(Chunk).Steps;
    uint64_t RefDid = Ref.sim().run(Chunk).Steps;
    TotalSteps += Did;
    ASSERT_EQ(Did, RefDid);

    const rt::ActionCache &C = Sim.sim().cache();
    const rt::ActionCache::Stats &CS = C.stats();
    ASSERT_LE(CS.Hits, CS.Lookups);
    // step() evicts whenever the budget is exceeded, and both policies
    // guarantee a below-budget (or empty) cache afterwards.
    ASSERT_LE(C.bytes(), Budget);
    ASSERT_GE(CS.PeakBytes, PrevPeak);
    ASSERT_GE(CS.PeakBytes, C.bytes());
    PrevPeak = CS.PeakBytes;

    ASSERT_EQ(snapshot(Sim), snapshot(Ref));
  }
  EXPECT_TRUE(Sim.sim().halted());

  // The tiny budget must actually have forced wholesale or segmented
  // eviction, or this test stressed nothing.
  const rt::ActionCache::Stats &CS = Sim.sim().cache().stats();
  EXPECT_GT(CS.Clears + CS.Evictions, 0u);
  EXPECT_EQ(Ref.sim().cache().stats().Clears, 0u);
  EXPECT_EQ(Ref.sim().cache().stats().Evictions, 0u);
}

} // namespace

TEST(CacheStress, ClearAllTinyBudgets) {
  for (size_t Budget : {4u << 10, 16u << 10, 64u << 10})
    stressOne(SimKind::Functional, rt::EvictionPolicy::ClearAll, Budget,
              0x5eed0001 + Budget);
}

TEST(CacheStress, SegmentedTinyBudgets) {
  for (size_t Budget : {4u << 10, 16u << 10, 64u << 10})
    stressOne(SimKind::Functional, rt::EvictionPolicy::Segmented, Budget,
              0x5eed0002 + Budget);
}

TEST(CacheStress, InOrderSurvivesEvictionChurn) {
  stressOne(SimKind::InOrder, rt::EvictionPolicy::Segmented, 64u << 10,
            0x5eed0003);
}

TEST(CacheStress, BytesDropToZeroAfterClear) {
  // Single-step so every clear is observable: whenever the Clears counter
  // ticks, the cache must read completely empty — the byte accounting is
  // derived from the containers, so a nonzero answer means something
  // survived the clear.
  rt::Simulation::Options Tiny;
  Tiny.CacheBudgetBytes = 8u << 10;
  Tiny.Eviction = rt::EvictionPolicy::ClearAll;
  FacileSim Sim(SimKind::Functional, stressImage(), Tiny);

  uint64_t PrevClears = 0;
  uint64_t ClearsSeen = 0;
  for (int I = 0; I != 50'000 && !Sim.sim().halted(); ++I) {
    Sim.sim().run(1);
    const rt::ActionCache &C = Sim.sim().cache();
    uint64_t Clears = C.stats().Clears;
    if (Clears != PrevClears) {
      EXPECT_EQ(C.bytes(), 0u);
      EXPECT_EQ(C.entryCount(), 0u);
      EXPECT_EQ(C.keyCount(), 0u);
      ++ClearsSeen;
      PrevClears = Clears;
    }
  }
  EXPECT_GT(ClearsSeen, 0u);
}

TEST(CacheStress, RecoveryRerecordsAfterEviction) {
  // After an eviction drops entries, the very next occurrences of their
  // keys must miss, re-record, and then fast-forward again — visible as
  // Misses and EntriesCreated continuing to grow past the first eviction
  // while fast steps keep accumulating.
  workload::WorkloadSpec Spec = *workload::findSpec("compress");
  Spec.DataKWords = 2;
  isa::TargetImage Endless = workload::generate(Spec, 1u << 30);

  rt::Simulation::Options Tiny;
  Tiny.CacheBudgetBytes = 32u << 10;
  Tiny.Eviction = rt::EvictionPolicy::Segmented;
  FacileSim Sim(SimKind::Functional, Endless, Tiny);

  Sim.sim().run(50'000);
  ASSERT_FALSE(Sim.sim().halted());
  const rt::ActionCache::Stats &CS = Sim.sim().cache().stats();
  ASSERT_GT(CS.Clears + CS.Evictions, 0u);

  uint64_t CreatedBefore = CS.EntriesCreated;
  uint64_t FastBefore = Sim.sim().stats().FastSteps;
  Sim.sim().run(50'000);
  EXPECT_GT(CS.EntriesCreated, CreatedBefore);
  EXPECT_GT(Sim.sim().stats().FastSteps, FastBefore);
}

TEST(CacheStress, FirstTouchFilterClearsWithTheCache) {
  // A branchy ooo.fac run moves to second-touch admission before an 8 MB
  // budget fills (at 4 MB gcc's cache is rebuilt before a window is
  // judged, so it never leaves first touch); every clear (ClearAll) or
  // compaction (Segmented) after that must empty the first-touch filter
  // with the cache, and the run must still compute what the unmemoized
  // simulator computes.
  isa::TargetImage Gcc =
      workload::generate(*workload::findSpec("gcc"), 1u << 30);
  for (rt::EvictionPolicy Policy :
       {rt::EvictionPolicy::ClearAll, rt::EvictionPolicy::Segmented}) {
    SCOPED_TRACE(Policy == rt::EvictionPolicy::Segmented ? "segmented"
                                                         : "clearall");
    rt::Simulation::Options Tiny;
    Tiny.CacheBudgetBytes = 8u << 20;
    Tiny.Eviction = Policy;
    FacileSim Sim(SimKind::OutOfOrder, Gcc, Tiny);
    const rt::ActionCache &C = Sim.sim().cache();
    uint64_t Rebuilds = 0, RebuildsWithMarks = 0, Steps = 0;
    while (Sim.sim().stats().RetiredTotal < 400'000) {
      const uint64_t Before = C.stats().Clears + C.stats().Evictions;
      const uint64_t Marks = C.seenKeyBits();
      Sim.sim().step();
      ++Steps;
      if (C.stats().Clears + C.stats().Evictions == Before)
        continue;
      ++Rebuilds;
      RebuildsWithMarks += Marks != 0;
      EXPECT_EQ(C.seenKeyBits(), 0u);
    }
    EXPECT_GT(Sim.sim().stats().UnadmittedSteps, 0u);
    EXPECT_GT(Rebuilds, 0u);
    EXPECT_GT(RebuildsWithMarks, 0u); // or the check above saw nothing

    rt::Simulation::Options Off;
    Off.Memoize = false;
    FacileSim Ref(SimKind::OutOfOrder, Gcc, Off);
    Ref.sim().run(Steps);
    EXPECT_EQ(Sim.sim().stats().RetiredTotal, Ref.sim().stats().RetiredTotal);
    EXPECT_EQ(Sim.sim().stats().Cycles, Ref.sim().stats().Cycles);
    EXPECT_EQ(Sim.sim().memory().digest(), Ref.sim().memory().digest());
  }
}
