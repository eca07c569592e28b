//===- test_differential.cpp - Memoize-on/off differential oracle ------------===//
//
// The refactored action-cache data layer is only safe if the memoizing and
// non-memoizing engines stay bit-identical (the paper's §6.1 claim: fast-
// forwarding computes "exactly the same simulated cycle counts"). This
// suite runs every Facile-written simulator (functional, in-order,
// out-of-order) over each workload twice — Memoize=true vs Memoize=false —
// with roomy and tiny cache budgets, and asserts identical final architectural
// state: every global (scalars and arrays), the target-memory digest,
// RetiredTotal and Cycles. The memoized runs must also actually
// fast-forward (fastForwardedPct() > 0), or the comparison is vacuous.
//
// The same oracle covers the execution backends: JitMatchesInterpreter
// holds the template-JIT to bit-identical state and step accounting
// against the interpreting backend.
//
//===----------------------------------------------------------------------===//

#include "src/jit/JitEmitter.h"
#include "src/sims/SimHarness.h"
#include "src/store/CacheStore.h"
#include "src/support/Hashing.h"
#include "src/support/JsonValue.h"
#include "src/workload/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include <dirent.h>
#include <unistd.h>

using namespace facile;
using namespace facile::sims;

namespace {

/// Everything the step function can observably compute.
struct FinalState {
  bool Halted = false;
  uint64_t RetiredTotal = 0;
  uint64_t Cycles = 0;
  uint64_t MemDigest = 0;
  std::vector<int64_t> Globals; ///< scalars and array elements, flattened
  double FfPct = 0.0;
  // Step accounting and backend probes — compared only where the runs are
  // expected to take the same engine path (e.g. JIT vs interpreter), never
  // in operator== (memo-on vs memo-off legitimately differ here).
  uint64_t Steps = 0;
  uint64_t FastSteps = 0;
  uint64_t Misses = 0;
  uint64_t CompiledActions = 0;
  std::string BackendName;
  // What the slow engine recorded, for the same JIT-vs-interpreter runs:
  // the words it memoized, the keys it interned, and the action cache
  // itself — node count, data-pool words and a digest of its compacted
  // image (data pool, seals and key pool).
  uint64_t PlaceholderWords = 0;
  uint64_t KeysInterned = 0;
  uint64_t CacheNodes = 0;
  uint64_t CacheDataWords = 0;
  uint64_t CacheDigest = 0;
  uint64_t SlowBlockExecs = 0; ///< native slow-step function calls
  // Admission: what second-touch admission ran unrecorded and created.
  uint64_t UnadmittedSteps = 0;
  uint64_t AdmissionSwitches = 0;
  uint64_t EntriesCreated = 0;
  bool SecondTouch = false;

  bool operator==(const FinalState &O) const {
    return Halted == O.Halted && RetiredTotal == O.RetiredTotal &&
           Cycles == O.Cycles && MemDigest == O.MemDigest &&
           Globals == O.Globals;
  }
};

/// The observable state of \p Sim after however it was driven.
FinalState capture(SimKind Kind, const FacileSim &Sim,
                   PassMode Mode = PassMode::Optimized) {
  FinalState F;
  F.Halted = Sim.sim().halted();
  F.RetiredTotal = Sim.sim().stats().RetiredTotal;
  F.Cycles = Sim.sim().stats().Cycles;
  F.MemDigest = Sim.sim().memory().digest();
  F.FfPct = Sim.sim().stats().fastForwardedPct();
  F.Steps = Sim.sim().stats().Steps;
  F.FastSteps = Sim.sim().stats().FastSteps;
  F.Misses = Sim.sim().stats().Misses;
  F.CompiledActions = Sim.sim().jitCompiledActions();
  F.BackendName = Sim.sim().backendName();
  F.PlaceholderWords = Sim.sim().stats().PlaceholderWords;
  F.UnadmittedSteps = Sim.sim().stats().UnadmittedSteps;
  F.AdmissionSwitches = Sim.sim().stats().AdmissionSwitches;
  F.SecondTouch = Sim.sim().secondTouchAdmission();
  const rt::ActionCache &C = Sim.sim().cache();
  F.EntriesCreated = C.stats().EntriesCreated;
  F.KeysInterned = C.stats().KeysInterned;
  F.CacheNodes = C.nodeCount();
  F.CacheDataWords = C.dataSize();
  const rt::ActionCache::FlatImage Flat = C.compactImage();
  uint64_t H = hashBytes(Flat.Data.data(), Flat.Data.size() * sizeof(int64_t));
  H = hashBytes(Flat.Seals.data(), Flat.Seals.size() * sizeof(uint64_t), H);
  F.CacheDigest = hashBytes(Flat.KeyPool.data(), Flat.KeyPool.size(), H);
  json::Value Stats;
  std::string Err;
  EXPECT_TRUE(json::parse(Sim.statsJson(), Stats, Err)) << Err;
  if (const json::Value *Jit = Stats.get("jit"))
    if (const json::Value *N = Jit->get("slow_block_execs"))
      F.SlowBlockExecs = static_cast<uint64_t>(N->intOr(0));
  const CompiledProgram &P = simulatorProgram(Kind, Mode);
  for (const ir::GlobalVar &G : P.Globals) {
    if (G.IsArray)
      for (uint32_t E = 0; E != G.Size; ++E)
        F.Globals.push_back(Sim.sim().getGlobalElem(G.Name, E));
    else
      F.Globals.push_back(Sim.sim().getGlobal(G.Name));
  }
  return F;
}

FinalState runOne(SimKind Kind, const isa::TargetImage &Image,
                  rt::Simulation::Options Opts, uint64_t MaxInstrs,
                  PassMode Mode = PassMode::Optimized) {
  FacileSim Sim(Kind, Image, Opts, Mode);
  Sim.run(MaxInstrs);
  return capture(Kind, Sim, Mode);
}

const char *kindName(SimKind Kind) {
  switch (Kind) {
  case SimKind::Functional:
    return "functional";
  case SimKind::InOrder:
    return "inorder";
  case SimKind::OutOfOrder:
    return "ooo";
  }
  return "?";
}

/// Memo-on vs memo-off over one workload for one sim.
void expectEquivalent(SimKind Kind, const workload::WorkloadSpec &Spec,
                      size_t BudgetBytes, uint64_t MaxInstrs) {
  isa::TargetImage Image = workload::generate(Spec, 2);

  rt::Simulation::Options On;
  On.CacheBudgetBytes = BudgetBytes;
  rt::Simulation::Options Off;
  Off.Memoize = false;

  FinalState Memo = runOne(Kind, Image, On, MaxInstrs);
  FinalState Slow = runOne(Kind, Image, Off, MaxInstrs);

  SCOPED_TRACE(std::string(kindName(Kind)) + " on " + Spec.Name);
  EXPECT_EQ(Memo.Halted, Slow.Halted);
  EXPECT_EQ(Memo.RetiredTotal, Slow.RetiredTotal);
  EXPECT_EQ(Memo.Cycles, Slow.Cycles);
  EXPECT_EQ(Memo.MemDigest, Slow.MemDigest);
  EXPECT_EQ(Memo.Globals, Slow.Globals);
  // The memoized run must actually exercise the fast engine.
  EXPECT_GT(Memo.FfPct, 0.0);
  EXPECT_EQ(Slow.FfPct, 0.0);
}

/// A budget small enough to force clears mid-run for \p Kind, but big
/// enough that entries survive long enough to replay. The OOO simulator's
/// rt-static state (instruction window, scoreboards) makes its keys and
/// entries an order of magnitude larger than the functional simulator's.
size_t tinyBudget(SimKind Kind) {
  return Kind == SimKind::OutOfOrder ? 512u << 10 : 192u << 10;
}

std::vector<workload::WorkloadSpec> testWorkloads() {
  // One loop-dominated and one branchy/large-footprint workload, shrunk so
  // the unmemoized runs stay test-sized.
  workload::WorkloadSpec Loopy = *workload::findSpec("compress");
  Loopy.DataKWords = 2;
  workload::WorkloadSpec Branchy = *workload::findSpec("gcc");
  Branchy.DataKWords = 2;
  Branchy.NumKernels = 4;
  return {Loopy, Branchy};
}

} // namespace

TEST(Differential, FunctionalMemoOnOff) {
  for (const workload::WorkloadSpec &Spec : testWorkloads())
    expectEquivalent(SimKind::Functional, Spec, 256u << 20, 3'000'000);
}

TEST(Differential, InOrderMemoOnOff) {
  for (const workload::WorkloadSpec &Spec : testWorkloads())
    expectEquivalent(SimKind::InOrder, Spec, 256u << 20, 3'000'000);
}

TEST(Differential, OutOfOrderMemoOnOff) {
  for (const workload::WorkloadSpec &Spec : testWorkloads())
    expectEquivalent(SimKind::OutOfOrder, Spec, 256u << 20, 3'000'000);
}

TEST(Differential, ClearAllTinyBudgetPreservesResults) {
  // The paper's clear-on-full with a tiny budget: constant clears and
  // re-records must not perturb the architectural state.
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder})
    for (const workload::WorkloadSpec &Spec : testWorkloads())
      expectEquivalent(Kind, Spec, tinyBudget(Kind), 1'000'000);
}

TEST(Differential, WarmStartMatchesColdStart) {
  // Warm-starting from a persisted action cache is just more memoization:
  // a run that replays another process's recorded actions must compute the
  // same final architectural state as a cold run. The warm run must also
  // actually replay (FastSteps > 0 from entries it never recorded), or the
  // comparison is vacuous.
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder}) {
    for (const workload::WorkloadSpec &Spec : testWorkloads()) {
      isa::TargetImage Image = workload::generate(Spec, 2);
      constexpr uint64_t MaxInstrs = 500'000;
      SCOPED_TRACE(std::string(kindName(Kind)) + " on " + Spec.Name);
      rt::Simulation::Options Opts;

      FinalState Cold = runOne(Kind, Image, Opts, MaxInstrs);

      FacileSim Builder(Kind, Image, Opts);
      Builder.run(MaxInstrs);
      std::vector<uint8_t> CacheSnap = Builder.cacheBytes();

      FacileSim Warm(Kind, Image, Opts);
      std::string Err;
      ASSERT_TRUE(Warm.loadCacheBytes(CacheSnap, &Err)) << Err;
      ASSERT_GT(Warm.snapshotStats().CacheEntriesLoaded, 0u);
      Warm.run(MaxInstrs);
      EXPECT_GT(Warm.sim().stats().FastSteps, 0u);

      FinalState W;
      W.Halted = Warm.sim().halted();
      W.RetiredTotal = Warm.sim().stats().RetiredTotal;
      W.Cycles = Warm.sim().stats().Cycles;
      W.MemDigest = Warm.sim().memory().digest();
      for (const ir::GlobalVar &G : simulatorProgram(Kind).Globals) {
        if (G.IsArray)
          for (uint32_t E = 0; E != G.Size; ++E)
            W.Globals.push_back(Warm.sim().getGlobalElem(G.Name, E));
        else
          W.Globals.push_back(Warm.sim().getGlobal(G.Name));
      }
      EXPECT_EQ(W, Cold);
    }
  }
}

TEST(Differential, PassesOnOffBitIdentical) {
  // The optimization pipeline must be invisible to the architecture: the
  // optimized program (memoized and not) computes the same final state as
  // the raw lowered IR (memoized and not), the memoized runs under a
  // budget that clears mid-run.
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder}) {
    for (const workload::WorkloadSpec &Spec : testWorkloads()) {
      isa::TargetImage Image = workload::generate(Spec, 2);
      constexpr uint64_t MaxInstrs = 1'000'000;

      rt::Simulation::Options Off;
      Off.Memoize = false;
      FinalState RawSlow =
          runOne(Kind, Image, Off, MaxInstrs, PassMode::Raw);
      FinalState OptSlow =
          runOne(Kind, Image, Off, MaxInstrs, PassMode::Optimized);

      SCOPED_TRACE(std::string(kindName(Kind)) + " on " + Spec.Name);
      EXPECT_EQ(OptSlow, RawSlow) << "passes changed unmemoized execution";

      rt::Simulation::Options On;
      On.CacheBudgetBytes = tinyBudget(Kind);
      FinalState RawMemo =
          runOne(Kind, Image, On, MaxInstrs, PassMode::Raw);
      FinalState OptMemo =
          runOne(Kind, Image, On, MaxInstrs, PassMode::Optimized);
      EXPECT_EQ(OptMemo, RawSlow) << "passes changed memoized execution";
      EXPECT_EQ(RawMemo, RawSlow) << "memoization broke on raw IR";
      EXPECT_GT(OptMemo.FfPct, 0.0);
      EXPECT_GT(RawMemo.FfPct, 0.0);
    }
  }
}

TEST(Differential, SharedPlanMatchesOwnedPlan) {
  // The facilesimd refactor lets many simulations reference one immutable
  // SharedProgram (program + image + pre-built ExecPlan) instead of each
  // building a private plan. Sharing must be invisible: a simulation over
  // the shared bundle computes exactly the final state of the legacy
  // owned-plan constructor, memoized and not — and stays on the shared
  // plan the whole run (no silent copy-on-write privatization).
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder}) {
    for (const workload::WorkloadSpec &Spec : testWorkloads()) {
      isa::TargetImage Image = workload::generate(Spec, 2);
      constexpr uint64_t MaxInstrs = 1'000'000;
      rt::SharedProgram Shared(simulatorProgram(Kind),
                               workload::generate(Spec, 2));

      for (bool Memoize : {true, false}) {
        rt::Simulation::Options Opts;
        Opts.Memoize = Memoize;
        FinalState Owned = runOne(Kind, Image, Opts, MaxInstrs);

        FacileSim Sim(Kind, Shared, Opts);
        Sim.run(MaxInstrs);
        EXPECT_TRUE(Sim.sim().planShared());
        FinalState S;
        S.Halted = Sim.sim().halted();
        S.RetiredTotal = Sim.sim().stats().RetiredTotal;
        S.Cycles = Sim.sim().stats().Cycles;
        S.MemDigest = Sim.sim().memory().digest();
        for (const ir::GlobalVar &G : simulatorProgram(Kind).Globals) {
          if (G.IsArray)
            for (uint32_t E = 0; E != G.Size; ++E)
              S.Globals.push_back(Sim.sim().getGlobalElem(G.Name, E));
          else
            S.Globals.push_back(Sim.sim().getGlobal(G.Name));
        }
        SCOPED_TRACE(std::string(kindName(Kind)) + " on " + Spec.Name +
                     (Memoize ? " (memoized)" : " (slow)"));
        EXPECT_EQ(S, Owned);
        if (Memoize) {
          EXPECT_GT(Sim.sim().stats().fastForwardedPct(), 0.0);
        }
      }

      // mutablePlan() must privatize: mutating one sharer's plan leaves
      // the shared bundle (and new sharers) untouched.
      rt::Simulation Mutator(Shared, rt::Simulation::Options());
      EXPECT_TRUE(Mutator.planShared());
      Mutator.mutablePlan();
      EXPECT_FALSE(Mutator.planShared());
      rt::Simulation Fresh(Shared, rt::Simulation::Options());
      EXPECT_TRUE(Fresh.planShared());
    }
  }
}

TEST(Differential, StoreBackedMatchesOwnedCache) {
  // The mmap-shared store is a third way to reach the same cache contents:
  // a sim replaying through a read-only base mapping (with its private
  // copy-on-write overlay) must compute exactly what the private
  // owned copy computes, which in turn must equal the
  // no-memoization oracle. Both warm paths must actually replay
  // (FastSteps > 0), or the comparison is vacuous.
  std::string StoreDirPath = ::testing::TempDir() + "facile_diff_store";
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder}) {
    for (const workload::WorkloadSpec &Spec : testWorkloads()) {
      SCOPED_TRACE(std::string(kindName(Kind)) + " on " + Spec.Name);
      isa::TargetImage Image = workload::generate(Spec, 2);
      constexpr uint64_t MaxInstrs = 500'000;

      rt::Simulation::Options Off;
      Off.Memoize = false;
      FinalState Oracle = runOne(Kind, Image, Off, MaxInstrs);

      FacileSim Builder(Kind, Image);
      Builder.run(MaxInstrs);
      std::vector<uint8_t> CacheSnap = Builder.cacheBytes();
      store::CacheStoreDir Store(StoreDirPath);
      std::string Err;
      ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;

      auto capture = [&](FacileSim &Sim) {
        Sim.run(MaxInstrs);
        FinalState F;
        F.Halted = Sim.sim().halted();
        F.RetiredTotal = Sim.sim().stats().RetiredTotal;
        F.Cycles = Sim.sim().stats().Cycles;
        F.MemDigest = Sim.sim().memory().digest();
        for (const ir::GlobalVar &G : simulatorProgram(Kind).Globals) {
          if (G.IsArray)
            for (uint32_t E = 0; E != G.Size; ++E)
              F.Globals.push_back(Sim.sim().getGlobalElem(G.Name, E));
          else
            F.Globals.push_back(Sim.sim().getGlobal(G.Name));
        }
        return F;
      };

      FacileSim WarmOwned(Kind, Image);
      ASSERT_TRUE(WarmOwned.loadCacheBytes(CacheSnap, &Err)) << Err;
      FinalState Owned = capture(WarmOwned);
      EXPECT_GT(WarmOwned.sim().stats().FastSteps, 0u);
      EXPECT_EQ(Owned, Oracle);

      FacileSim WarmStore(Kind, Image);
      ASSERT_TRUE(WarmStore.attachStore(Store, &Err)) << Err;
      ASSERT_TRUE(WarmStore.sim().cacheBaseAttached());
      FinalState Mapped = capture(WarmStore);
      EXPECT_GT(WarmStore.sim().stats().FastSteps, 0u);
      EXPECT_EQ(Mapped, Oracle);
      EXPECT_EQ(Mapped.MemDigest, Owned.MemDigest);
    }
  }
  // Content addressing keyed every (simulator, workload) pair separately;
  // sweep the shared directory now that all of them are done.
  if (DIR *D = ::opendir(StoreDirPath.c_str())) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        ::unlink((StoreDirPath + "/" + Name).c_str());
    }
    ::closedir(D);
  }
  ::rmdir(StoreDirPath.c_str());
}

namespace {

/// Runs \p Image under \p Interp and again with the Jit backend at
/// \p Threshold, and holds the JIT run to the interpreter's architectural
/// state, step accounting and recording: placeholder words, interned keys
/// and the action cache's nodes, data words and compacted image.
FinalState expectJitMatches(SimKind Kind, const isa::TargetImage &Image,
                            rt::Simulation::Options Interp,
                            uint32_t Threshold, uint64_t MaxInstrs) {
  Interp.Backend = rt::BackendKind::Interpret;
  rt::Simulation::Options Jit = Interp;
  Jit.Backend = rt::BackendKind::Jit;
  Jit.JitThreshold = Threshold;

  FinalState I = runOne(Kind, Image, Interp, MaxInstrs);
  FinalState J = runOne(Kind, Image, Jit, MaxInstrs);

  EXPECT_EQ(I.BackendName, "interpret");
  EXPECT_EQ(J.BackendName, "jit");
  EXPECT_EQ(J.Halted, I.Halted);
  EXPECT_EQ(J.RetiredTotal, I.RetiredTotal);
  EXPECT_EQ(J.Cycles, I.Cycles);
  EXPECT_EQ(J.MemDigest, I.MemDigest);
  EXPECT_EQ(J.Globals, I.Globals);
  EXPECT_EQ(J.Steps, I.Steps);
  EXPECT_EQ(J.FastSteps, I.FastSteps);
  EXPECT_EQ(J.Misses, I.Misses);
  EXPECT_EQ(J.UnadmittedSteps, I.UnadmittedSteps);
  EXPECT_EQ(J.AdmissionSwitches, I.AdmissionSwitches);
  EXPECT_EQ(J.PlaceholderWords, I.PlaceholderWords);
  EXPECT_EQ(J.KeysInterned, I.KeysInterned);
  EXPECT_EQ(J.CacheNodes, I.CacheNodes);
  EXPECT_EQ(J.CacheDataWords, I.CacheDataWords);
  EXPECT_EQ(J.CacheDigest, I.CacheDigest);
  EXPECT_EQ(I.CompiledActions, 0u);
  EXPECT_EQ(I.SlowBlockExecs, 0u);
  // The comparison is vacuous unless the slow steps actually ran native.
  EXPECT_GT(J.SlowBlockExecs, 0u);
  return J;
}

} // namespace

TEST(Differential, JitMatchesInterpreter) {
  // The template-JIT backend is an execution strategy, not a semantics: a
  // run dispatched through the slow-step function and entry traces must
  // be bit-identical to the interpreting backend — same
  // architectural state, same memory digest, the same step accounting
  // (Steps, FastSteps, Misses, RetiredTotal, Cycles), and the same
  // recording down to the cache image, since the JIT sits below the
  // memoization layer and never changes which engine a step takes or what
  // it records. Runs every simulator over both workloads, memo on and off,
  // at threshold 1 (everything hot binds at once) and at the default
  // threshold (an entry's first replays, and what follows a side exit into
  // a stale binding, run interpreted); memo-off also proves that forcing
  // Backend=Jit with nothing to replay degrades cleanly instead of
  // erroring.
  if (!jit::available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder}) {
    for (const workload::WorkloadSpec &Spec : testWorkloads()) {
      isa::TargetImage Image = workload::generate(Spec, 2);
      constexpr uint64_t MaxInstrs = 1'000'000;
      for (bool Memo : {true, false}) {
        for (uint32_t Threshold :
             {1u, rt::Simulation::Options::DefaultJitThreshold}) {
          SCOPED_TRACE(std::string(kindName(Kind)) + " on " + Spec.Name +
                       (Memo ? " (memo on)" : " (memo off)") +
                       " at threshold " + std::to_string(Threshold));
          rt::Simulation::Options Interp;
          Interp.Memoize = Memo;
          FinalState J =
              expectJitMatches(Kind, Image, Interp, Threshold, MaxInstrs);
          if (Memo) {
            // The comparison is vacuous unless the JIT actually compiled
            // and the memoized path actually ran.
            EXPECT_GT(J.CompiledActions, 0u);
            EXPECT_GT(J.FastSteps, 0u);
          }
        }
      }
    }
  }
}

TEST(Differential, JitSlowStepVariantsMatchInterpreter) {
  // Each variant of the compiled slow-step function against the
  // interpreter on ooo.fac over a gcc-shaped (branchy) program: recording
  // at the default threshold, so the first slow steps run interpreted and
  // the rest native; run-to-Ret with memoization off; recording under a
  // budget small enough that the cache is cleared every few hundred steps;
  // and both at once, where second-touch admission runs unadmitted steps
  // unrecorded between recording ones.
  if (!jit::available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  const workload::WorkloadSpec Gcc = testWorkloads()[1];
  isa::TargetImage Image = workload::generate(Gcc, 2);
  const uint32_t DefaultThreshold =
      rt::Simulation::Options::DefaultJitThreshold;
  {
    SCOPED_TRACE("recording at the default threshold");
    FinalState J = expectJitMatches(SimKind::OutOfOrder, Image, {},
                                    DefaultThreshold, 400'000);
    EXPECT_GT(J.PlaceholderWords, 0u);
  }
  {
    SCOPED_TRACE("memo off");
    rt::Simulation::Options Off;
    Off.Memoize = false;
    expectJitMatches(SimKind::OutOfOrder, Image, Off, DefaultThreshold,
                     200'000);
  }
  {
    SCOPED_TRACE("tiny budget");
    rt::Simulation::Options Tiny;
    Tiny.CacheBudgetBytes = 64u << 10;
    FinalState J = expectJitMatches(SimKind::OutOfOrder, Image, Tiny,
                                    DefaultThreshold, 300'000);
    EXPECT_GT(J.PlaceholderWords, 0u);
  }
  {
    // The suite's gcc moves to second touch within 300 K instructions, so
    // unadmitted first touches run unrecorded between recording steps.
    SCOPED_TRACE("second touch");
    const isa::TargetImage Suite =
        workload::generate(*workload::findSpec("gcc"), 1u << 30);
    FinalState J = expectJitMatches(SimKind::OutOfOrder, Suite, {},
                                    DefaultThreshold, 300'000);
    EXPECT_GT(J.UnadmittedSteps, 0u);
    EXPECT_GT(J.PlaceholderWords, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Admission: keys recorded on second touch
//===----------------------------------------------------------------------===//
//
// A session moves to second-touch admission when the keys it records stop
// recurring: a first touch then runs the slow simulator unrecorded. That
// changes what is recorded and when, never what a step computes. At
// AdmissionInstrs the branchy suite programs (gcc, go) have moved to
// second touch, and the loop codes (swim, mgrid) have stayed on first
// touch.

namespace {

constexpr uint64_t AdmissionInstrs = 300'000;

isa::TargetImage suiteImage(const std::string &Name) {
  // An effectively unbounded outer loop, as facilesim runs the suite: the
  // instruction budget ends the run.
  return workload::generate(*workload::findSpec(Name), 1u << 30);
}

void expectSameArchitecture(const FinalState &A, const FinalState &B) {
  EXPECT_EQ(A.Halted, B.Halted);
  EXPECT_EQ(A.RetiredTotal, B.RetiredTotal);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.MemDigest, B.MemDigest);
  EXPECT_EQ(A.Globals, B.Globals);
}

/// The step accounting and recording two runs of one engine path share.
void expectSameAccounting(const FinalState &A, const FinalState &B) {
  EXPECT_EQ(A.Steps, B.Steps);
  EXPECT_EQ(A.FastSteps, B.FastSteps);
  EXPECT_EQ(A.Misses, B.Misses);
  EXPECT_EQ(A.UnadmittedSteps, B.UnadmittedSteps);
  EXPECT_EQ(A.AdmissionSwitches, B.AdmissionSwitches);
  EXPECT_EQ(A.EntriesCreated, B.EntriesCreated);
  EXPECT_EQ(A.KeysInterned, B.KeysInterned);
  EXPECT_EQ(A.CacheDigest, B.CacheDigest);
}

class AdmissionSuite : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(AdmissionSuite, MemoOnMatchesMemoOff) {
  const std::string Name = GetParam();
  isa::TargetImage Image = suiteImage(Name);
  rt::Simulation::Options Off;
  Off.Memoize = false;
  FinalState Memo = runOne(SimKind::OutOfOrder, Image, {}, AdmissionInstrs);
  FinalState Slow = runOne(SimKind::OutOfOrder, Image, Off, AdmissionInstrs);
  expectSameArchitecture(Memo, Slow);
  EXPECT_GT(Memo.FastSteps, 0u);
  EXPECT_EQ(Slow.UnadmittedSteps, 0u); // memo off admits nothing
  // A session moves back to first touch at most once, and stays there.
  EXPECT_LE(Memo.AdmissionSwitches, 2u);
  if (Memo.AdmissionSwitches == 2) {
    EXPECT_FALSE(Memo.SecondTouch);
  }
  if (Name == "gcc" || Name == "go") {
    EXPECT_GT(Memo.UnadmittedSteps, 0u);
    EXPECT_GE(Memo.AdmissionSwitches, 1u);
  }
  if (Name == "m88ksim") { // its body recurs after the horizon
    EXPECT_EQ(Memo.AdmissionSwitches, 2u);
  }
  // compress's body recurs within the horizon.
  if (Name == "swim" || Name == "mgrid" || Name == "compress") {
    EXPECT_EQ(Memo.AdmissionSwitches, 0u);
    EXPECT_FALSE(Memo.SecondTouch);
    EXPECT_EQ(Memo.UnadmittedSteps, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Spec95, AdmissionSuite,
    ::testing::Values("compress", "gcc", "go", "ijpeg", "li", "m88ksim",
                      "perl", "vortex", "tomcatv", "swim", "su2cor",
                      "hydro2d", "mgrid", "applu", "turb3d", "apsi", "fpppp",
                      "wave5"),
    [](const ::testing::TestParamInfo<const char *> &I) {
      return std::string(I.param);
    });

TEST(Admission, JitAtThresholdOneMatchesInterpreter) {
  if (!jit::available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  for (const char *Name : {"gcc", "swim"}) {
    SCOPED_TRACE(Name);
    FinalState J = expectJitMatches(SimKind::OutOfOrder, suiteImage(Name), {},
                                    1, AdmissionInstrs);
    if (std::string(Name) == "gcc") {
      EXPECT_GT(J.UnadmittedSteps, 0u);
    }
  }
}

TEST(Admission, ChainedRunMatchesSteppedRun) {
  // run() lets replayed steps chain natively; driving step() one at a
  // time never chains. Admission counts miss steps only, so both make the
  // same decisions at the same steps.
  constexpr uint64_t Steps = 200'000;
  for (const char *Name : {"gcc", "swim"}) {
    SCOPED_TRACE(Name);
    isa::TargetImage Image = suiteImage(Name);
    FacileSim Chained(SimKind::OutOfOrder, Image);
    Chained.sim().run(Steps);
    FacileSim Stepped(SimKind::OutOfOrder, Image);
    for (uint64_t I = 0; I != Steps && !Stepped.sim().halted(); ++I)
      Stepped.sim().step();
    FinalState C = capture(SimKind::OutOfOrder, Chained);
    FinalState S = capture(SimKind::OutOfOrder, Stepped);
    expectSameArchitecture(C, S);
    expectSameAccounting(C, S);
    if (std::string(Name) == "gcc") {
      EXPECT_GT(C.UnadmittedSteps, 0u);
    }
    if (jit::available()) {
      EXPECT_GT(Chained.sim().chainedSteps(), 0u);
    }
  }
}

TEST(Admission, CheckpointResumeMatchesStraightRun) {
  // The first-touch filter and the admission state are not persisted: a
  // resumed session starts admitting on first touch. What it computes is
  // still what the straight run computes.
  for (const char *Name : {"gcc", "go", "swim"}) {
    SCOPED_TRACE(Name);
    isa::TargetImage Image = suiteImage(Name);
    FinalState Straight =
        runOne(SimKind::OutOfOrder, Image, {}, AdmissionInstrs);
    FacileSim First(SimKind::OutOfOrder, Image);
    First.run(AdmissionInstrs / 2 + 50'000); // past the prologue
    std::vector<uint8_t> Ckpt = First.checkpointBytes();
    std::vector<uint8_t> Cache = First.cacheBytes();
    FacileSim Resumed(SimKind::OutOfOrder, Image);
    std::string Err;
    ASSERT_TRUE(Resumed.loadCheckpointBytes(Ckpt, &Err)) << Err;
    ASSERT_TRUE(Resumed.loadCacheBytes(Cache, &Err)) << Err;
    EXPECT_FALSE(Resumed.sim().secondTouchAdmission());
    EXPECT_EQ(Resumed.sim().stats().UnadmittedSteps, 0u);
    Resumed.run(AdmissionInstrs);
    expectSameArchitecture(capture(SimKind::OutOfOrder, Resumed), Straight);
  }
}

TEST(Admission, StoreWarmRunMatchesMemoOff) {
  std::string Dir = ::testing::TempDir() + "facile_admission_store";
  for (const char *Name : {"gcc", "swim"}) {
    SCOPED_TRACE(Name);
    isa::TargetImage Image = suiteImage(Name);
    rt::Simulation::Options Off;
    Off.Memoize = false;
    FinalState Oracle = runOne(SimKind::OutOfOrder, Image, Off,
                               AdmissionInstrs);
    FacileSim Builder(SimKind::OutOfOrder, Image);
    Builder.run(AdmissionInstrs / 2);
    store::CacheStoreDir Store(Dir);
    std::string Err;
    ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
    FacileSim Warm(SimKind::OutOfOrder, Image);
    ASSERT_TRUE(Warm.attachStore(Store, &Err)) << Err;
    Warm.run(AdmissionInstrs);
    FinalState W = capture(SimKind::OutOfOrder, Warm);
    expectSameArchitecture(W, Oracle);
    EXPECT_GT(W.FastSteps, 0u);
    std::remove((Dir + "/" +
                 store::CacheStoreDir::fileName(Builder.sim().compatKey(), 1))
                    .c_str());
  }
  ::rmdir(Dir.c_str());
}
