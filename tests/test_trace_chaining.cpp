//===- test_trace_chaining.cpp - Native chaining across replayed steps ----===//
//
// Under Simulation::run(), a trace that reaches an End node may jump
// straight into the next step's bound shape through the session's chain
// stub, without returning to C++. Chaining is an execution strategy, so
// every test here holds a run() driven simulation to the same simulation
// stepped one step() at a time (which never chains) and, where the
// interpreter can follow, to the JIT-off interpreter: memory digest,
// cycles, retired instructions, step and fast-step counts, misses, cache
// lookups and hits, INDEX-chain hits and misses, and the JIT's trace and
// native-step counts. Each stop condition of the stub gets its own case:
// run() budgets, a halt, a deadline hook, the step limit, the memory
// budget latch, an injected extern failure, a thrashing cache rebuilt
// mid-run, cache rebuilds between runs, and links into entries whose binding
// changed. Every case runs at threshold 1.
//
//===----------------------------------------------------------------------===//

#include "src/isa/Assembler.h"
#include "src/jit/JitEmitter.h"
#include "src/sims/SimHarness.h"
#include "src/store/CacheStore.h"
#include "src/support/JsonValue.h"
#include "src/workload/Workloads.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

using namespace facile;
using namespace facile::sims;

namespace {

/// A counted loop: the OOO pipeline settles into a short cycle of keys,
/// so nearly every step chains. Nops after the halt keep the pipeline's
/// fetch inside the text segment once the loop is done.
isa::TargetImage loopImage(uint64_t Iters) {
  return *isa::assemble("main:\n li r1, 0\n li r2, " + std::to_string(Iters) +
                        "\nloop:\n addi r1, r1, 1\n addi r3, r3, 3\n"
                        " add r4, r4, r3\n bne r1, r2, loop\n halt\n"
                        " addi r0, r0, 0\n addi r0, r0, 0\n addi r0, r0, 0\n"
                        " addi r0, r0, 0\n addi r0, r0, 0\n addi r0, r0, 0\n");
}

/// A loop storing one word per page: the resident-page budget trips while
/// the loop body replays.
isa::TargetImage pageWalkImage() {
  return *isa::assemble("main:\n li r1, 0\n li r2, 100000\n li r5, 1048576\n"
                        "loop:\n st r1, 0(r5)\n addi r1, r1, 1\n"
                        " addi r5, r5, 4096\n bne r1, r2, loop\n halt\n");
}

/// A small generated program of suite entry \p Name: side exits, misses
/// and recoveries between chained steps.
isa::TargetImage suiteImage(const char *Name) {
  workload::WorkloadSpec S = *workload::findSpec(Name);
  S.DataKWords = 2;
  S.NumKernels = 4;
  return workload::generate(S, 1u << 30);
}

uint64_t jitCounter(const FacileSim &Sim, const char *Name) {
  json::Value Stats;
  std::string Err;
  EXPECT_TRUE(json::parse(Sim.statsJson(), Stats, Err)) << Err;
  const json::Value *Jit = Stats.get("jit");
  const json::Value *V = Jit ? Jit->get(Name) : nullptr;
  return V ? static_cast<uint64_t>(V->intOr(0)) : 0;
}

/// What must come out the same however the steps were driven. The JIT's
/// own counters come last, so an interpreter comparison can stop short.
using Counters = std::vector<std::pair<const char *, uint64_t>>;
constexpr size_t JitCounters = 2;

Counters counters(const FacileSim &Sim) {
  const rt::Simulation &S = Sim.sim();
  const rt::Simulation::Stats &St = S.stats();
  const rt::ActionCache::Stats &C = S.cache().stats();
  return {{"digest", S.memory().digest()},
          {"cycles", St.Cycles},
          {"retired", St.RetiredTotal},
          {"steps", St.Steps},
          {"fast_steps", St.FastSteps},
          {"misses", St.Misses},
          {"lookups", C.Lookups},
          {"hits", C.Hits},
          {"index_chain_hits", C.IndexChainHits},
          {"index_chain_misses", C.IndexChainMisses},
          {"corrupt_dropped", St.CorruptDropped},
          {"bypass_activations", St.BypassActivations},
          {"bypassed_steps", St.BypassedSteps},
          {"halted", S.halted()},
          {"fault_kind", static_cast<uint64_t>(S.fault().Kind)},
          {"fault_step", S.fault().Step},
          {"fault_pc", S.fault().Pc},
          {"trace_steps", jitCounter(Sim, "trace_steps")},
          {"jit_exec_steps", jitCounter(Sim, "jit_exec_steps")}};
}

/// Expects \p Got to equal \p Want, the last \p Skip counters excepted.
void expectSame(const FacileSim &Got, const FacileSim &Want,
                size_t Skip = 0) {
  const Counters G = counters(Got), W = counters(Want);
  for (size_t I = 0; I + Skip != G.size(); ++I)
    EXPECT_EQ(G[I].second, W[I].second) << G[I].first;
}

/// Steps \p Sim the way run() would, one step() at a time: no chaining.
uint64_t stepLikeRun(FacileSim &Sim, uint64_t MaxSteps) {
  uint64_t N = 0;
  rt::Simulation &S = Sim.sim();
  while (!S.halted() && !S.faulted() && N < MaxSteps) {
    if (S.step() == rt::StepEngine::Faulted)
      break;
    ++N;
  }
  return N;
}

/// Drives \p Run by run() calls cycling through \p Chunks and \p Step by
/// the same numbers of step() calls, for \p Total steps or until either
/// stops, comparing both — and \p Interp, stepped alike, when given —
/// after every call. Returns the chained steps the run() side made.
uint64_t driveInLockstep(FacileSim &Run, FacileSim &Step, FacileSim *Interp,
                         uint64_t Total, const std::vector<uint64_t> &Chunks) {
  uint64_t Done = 0;
  for (size_t I = 0; Done < Total; ++I) {
    const uint64_t Chunk = Chunks[I % Chunks.size()];
    const uint64_t Chained = Run.sim().chainedSteps();
    const rt::RunResult R = Run.sim().run(Chunk);
    EXPECT_LE(R.Steps, Chunk);
    if (R.Status == rt::RunStatus::Limit) {
      EXPECT_EQ(R.Steps, Chunk);
    }
    // run(N) chains at most N - 1 steps.
    EXPECT_LT(Run.sim().chainedSteps() - Chained, Chunk);
    EXPECT_EQ(stepLikeRun(Step, Chunk), R.Steps);
    if (Interp) {
      EXPECT_EQ(stepLikeRun(*Interp, Chunk), R.Steps);
    }
    expectSame(Run, Step);
    if (Interp)
      expectSame(Run, *Interp, JitCounters);
    if (::testing::Test::HasFailure())
      return Run.sim().chainedSteps();
    Done += R.Steps;
    if (R.Status != rt::RunStatus::Limit)
      break;
  }
  return Run.sim().chainedSteps();
}

/// The three simulations of one case: run()-driven JIT, step()-driven
/// JIT and the step()-driven interpreter. \p Image must outlive them.
struct Trio {
  FacileSim Run, Step, Interp;
  Trio(const isa::TargetImage &Image,
       rt::Simulation::Options Base = rt::Simulation::Options())
      : Run(SimKind::OutOfOrder, Image, with(Base, rt::BackendKind::Jit)),
        Step(SimKind::OutOfOrder, Image, with(Base, rt::BackendKind::Jit)),
        Interp(SimKind::OutOfOrder, Image,
               with(Base, rt::BackendKind::Interpret)) {}
  static rt::Simulation::Options with(rt::Simulation::Options O,
                                      rt::BackendKind Backend) {
    O.Backend = Backend;
    O.JitThreshold = 1;
    return O;
  }
};

#define REQUIRE_JIT()                                                          \
  if (!jit::available())                                                       \
  GTEST_SKIP() << "no template-JIT backend on this host"

} // namespace

TEST(TraceChaining, RunEqualsSteppingAtEveryBudget) {
  REQUIRE_JIT();
  for (const char *Name : {"loop", "swim", "gcc"}) {
    SCOPED_TRACE(std::string(Name));
    const isa::TargetImage Image = std::string(Name) == "loop"
                                       ? loopImage(100'000'000)
                                       : suiteImage(Name);
    Trio T(Image);
    // run(1) never chains; the rest chain up to one step short of their
    // size.
    const uint64_t Before = T.Run.sim().chainedSteps();
    driveInLockstep(T.Run, T.Step, &T.Interp, 300, {1});
    EXPECT_EQ(T.Run.sim().chainedSteps(), Before);
    const uint64_t Chained = driveInLockstep(T.Run, T.Step, &T.Interp,
                                             30'000, {1, 2, 255, 256});
    if (HasFailure())
      return;
    EXPECT_GT(Chained, 0u);
    EXPECT_EQ(jitCounter(T.Run, "chained_steps"), Chained);
    EXPECT_EQ(jitCounter(T.Step, "chained_steps"), 0u);
    // Chaining is a subset of trace steps.
    EXPECT_LE(Chained, jitCounter(T.Run, "trace_steps"));
    if (std::string(Name) == "loop") {
      // The settled loop chains nearly every step the budgets allow.
      EXPECT_GT(Chained * 2, T.Run.sim().stats().FastSteps);
    }
  }
}

TEST(TraceChaining, HaltMidChainStopsWhereSteppingDoes) {
  REQUIRE_JIT();
  const isa::TargetImage Image = loopImage(3'000);
  Trio T(Image);
  const std::vector<uint8_t> Start = T.Run.checkpointBytes();
  // Two passes over the program from the same checkpoint, each run to
  // the halt and then stepped past it in C++: the first records every
  // step, the second replays them, so the halting step runs as a trace
  // and its End exit gets a link to the step after it.
  for (int Pass = 0; Pass != 2; ++Pass) {
    ASSERT_TRUE(T.Run.loadCheckpointBytes(Start));
    ASSERT_TRUE(T.Step.loadCheckpointBytes(Start));
    driveInLockstep(T.Run, T.Step, nullptr, ~0ull, {256});
    ASSERT_TRUE(T.Run.sim().halted());
    for (int I = 0; I != 4; ++I) {
      ASSERT_EQ(T.Run.sim().step(), T.Step.sim().step());
    }
    expectSame(T.Run, T.Step);
    ASSERT_FALSE(T.Run.faulted()) << T.Run.fault().Detail;
  }
  // Third pass: the halting step is itself entered by a chain jump, and
  // the stub must stop after it although its link leads on.
  ASSERT_TRUE(T.Run.loadCheckpointBytes(Start));
  ASSERT_TRUE(T.Step.loadCheckpointBytes(Start));
  const uint64_t Chained = T.Run.sim().chainedSteps();
  const rt::RunResult R = T.Run.sim().run(1'000'000);
  EXPECT_EQ(R.Status, rt::RunStatus::Halted);
  EXPECT_EQ(stepLikeRun(T.Step, 1'000'000), R.Steps);
  expectSame(T.Run, T.Step);
  // One run() call chained almost all of it.
  EXPECT_GT((T.Run.sim().chainedSteps() - Chained) * 10, R.Steps * 9);
}

TEST(TraceChaining, DeadlineHookFiresAtTheSameStep) {
  REQUIRE_JIT();
  const isa::TargetImage Image = loopImage(100'000'000);
  Trio T(Image);
  driveInLockstep(T.Run, T.Step, &T.Interp, 3'000, {256});
  // A hook that never fires is consulted equally often.
  uint64_t CallsRun = 0, CallsStep = 0;
  T.Run.sim().setDeadlineHook([&] { return ++CallsRun > 1'000'000; });
  T.Step.sim().setDeadlineHook([&] { return ++CallsStep > 1'000'000; });
  const uint64_t Chained = driveInLockstep(T.Run, T.Step, nullptr, 20'000,
                                           {256, 255, 100});
  EXPECT_EQ(CallsRun, CallsStep);
  EXPECT_GT(CallsRun, 20'000 / rt::Simulation::DeadlineCheckPeriod - 1);
  // One that fires at its 50th consultation stops both at one step.
  CallsRun = CallsStep = 0;
  T.Run.sim().setDeadlineHook([&] { return ++CallsRun == 50; });
  T.Step.sim().setDeadlineHook([&] { return ++CallsStep == 50; });
  const uint64_t More =
      driveInLockstep(T.Run, T.Step, nullptr, 1'000'000, {256});
  EXPECT_EQ(T.Run.fault().Kind, rt::FaultKind::DeadlineExceeded);
  EXPECT_EQ(CallsRun, 50u);
  EXPECT_EQ(CallsStep, 50u);
  EXPECT_GT(More, Chained);
}

TEST(TraceChaining, StepLimitFaultsAtTheSameStep) {
  REQUIRE_JIT();
  const isa::TargetImage Image = loopImage(100'000'000);
  rt::Simulation::Options O;
  O.StepLimit = 10'007;
  Trio T(Image, O);
  const uint64_t Chained =
      driveInLockstep(T.Run, T.Step, &T.Interp, 1'000'000, {256, 1000});
  EXPECT_EQ(T.Run.fault().Kind, rt::FaultKind::StepLimit);
  EXPECT_GT(Chained, 0u);
  // Raising the limit resumes both alike.
  for (FacileSim *S : {&T.Run, &T.Step, &T.Interp}) {
    S->sim().setStepLimit(20'011);
    S->sim().clearFault();
  }
  driveInLockstep(T.Run, T.Step, &T.Interp, 1'000'000, {999});
  EXPECT_EQ(T.Run.fault().Kind, rt::FaultKind::StepLimit);
  EXPECT_EQ(T.Run.fault().Step, 20'011u);
}

TEST(TraceChaining, MemoryBudgetLatchStopsTheChain) {
  REQUIRE_JIT();
  const isa::TargetImage Image = pageWalkImage();
  rt::Simulation::Options O;
  O.MemPageBudget = 400; // trips a few hundred iterations in
  Trio T(Image, O);
  const uint64_t Chained =
      driveInLockstep(T.Run, T.Step, &T.Interp, 1'000'000, {256});
  EXPECT_EQ(T.Run.fault().Kind, rt::FaultKind::MemoryBudgetExceeded);
  EXPECT_GT(Chained, 0u);
}

TEST(TraceChaining, ExternFailureFaultsAtTheSameStepAndPc) {
  REQUIRE_JIT();
  for (const char *Name : {"loop", "swim"}) {
    SCOPED_TRACE(std::string(Name));
    const isa::TargetImage Image = std::string(Name) == "loop"
                                       ? loopImage(100'000'000)
                                       : suiteImage(Name);
    Trio T(Image);
    driveInLockstep(T.Run, T.Step, &T.Interp, 5'000, {256});
    // Count extern calls from here; fail the 20,000th in every run.
    uint64_t Calls[3] = {0, 0, 0};
    FacileSim *Sims[3] = {&T.Run, &T.Step, &T.Interp};
    for (int I = 0; I != 3; ++I)
      Sims[I]->sim().setExternFaultHook(
          [&Calls, I](uint32_t) { return ++Calls[I] == 20'000; });
    const uint64_t Before = T.Run.sim().chainedSteps();
    driveInLockstep(T.Run, T.Step, &T.Interp, 1'000'000, {256});
    ASSERT_EQ(T.Run.fault().Kind, rt::FaultKind::ExternFailure);
    EXPECT_GT(T.Run.sim().chainedSteps(), Before);
    EXPECT_EQ(Calls[0], 20'000u);
    EXPECT_EQ(Calls[1], 20'000u);
    EXPECT_EQ(Calls[2], 20'000u);
  }
}

TEST(TraceChaining, ThrashingCacheStaysInLockstep) {
  // A cache over its budget is rebuilt after the step that grew it,
  // dropping every binding and link; the chains between rebuilds must
  // count every step as stepping does.
  REQUIRE_JIT();
  const isa::TargetImage Image = suiteImage("gcc");
  rt::Simulation::Options O;
  O.CacheBudgetBytes = 96 << 10; // thrashes: clears again and again
  Trio T(Image, O);
  const uint64_t Chained = driveInLockstep(T.Run, T.Step, &T.Interp,
                                           60'000, {256, 77});
  EXPECT_GT(Chained, 0u);
  EXPECT_GT(T.Step.sim().cache().stats().Clears, 0u);
}

TEST(TraceChaining, CacheRebuildsBetweenRunsDropEveryLink) {
  REQUIRE_JIT();
  const isa::TargetImage Image = suiteImage("swim");
  Trio T(Image);
  FacileSim *All[3] = {&T.Run, &T.Step, &T.Interp};
  uint64_t Chained = driveInLockstep(T.Run, T.Step, &T.Interp, 8'000, {256});
  for (FacileSim *S : All)
    S->sim().evictCacheNow();
  Chained = driveInLockstep(T.Run, T.Step, &T.Interp, 8'000, {256});
  for (FacileSim *S : All) {
    const std::vector<uint8_t> Bytes = S->cacheBytes();
    ASSERT_TRUE(S->loadCacheBytes(Bytes));
  }
  const uint64_t More =
      driveInLockstep(T.Run, T.Step, &T.Interp, 8'000, {256});
  EXPECT_GT(More, Chained);
}

TEST(TraceChaining, StoreMappedBaseAndResetBetweenRuns) {
  REQUIRE_JIT();
  const isa::TargetImage Image = suiteImage("swim");
  const std::string Dir = ::testing::TempDir() + "facile_chain_store_" +
                          std::to_string(static_cast<long long>(::getpid()));
  {
    FacileSim Builder(SimKind::OutOfOrder, Image);
    Builder.sim().run(20'000);
    store::CacheStoreDir Store(Dir);
    std::string Err;
    ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
  }
  Trio T(Image);
  store::CacheStoreDir Store(Dir);
  for (FacileSim *S : {&T.Run, &T.Step, &T.Interp}) {
    std::string Err;
    ASSERT_TRUE(S->attachStore(Store, &Err)) << Err;
  }
  const uint64_t Chained =
      driveInLockstep(T.Run, T.Step, &T.Interp, 30'000, {256});
  EXPECT_GT(Chained, 0u);
  // Back to the mapped base: every binding and link is gone.
  for (FacileSim *S : {&T.Run, &T.Step, &T.Interp})
    S->sim().evictCacheNow();
  EXPECT_GT(driveInLockstep(T.Run, T.Step, &T.Interp, 10'000, {256}),
            Chained);
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D))
      if (std::string(E->d_name) != "." && std::string(E->d_name) != "..")
        ::unlink((Dir + "/" + E->d_name).c_str());
    ::closedir(D);
  }
  ::rmdir(Dir.c_str());
}

TEST(TraceChaining, LinksIntoRebuiltOrStaleBindingsAreNotFollowed) {
  REQUIRE_JIT();
  // Growth: gcc's entries keep side-exiting into recordings that grow
  // them, so bindings (and the links into them) keep being invalidated.
  const isa::TargetImage Branchy = suiteImage("gcc");
  {
    SCOPED_TRACE("growth");
    Trio T(Branchy);
    const uint64_t Chained =
        driveInLockstep(T.Run, T.Step, &T.Interp, 40'000, {256});
    EXPECT_GT(Chained, 0u);
    EXPECT_GT(jitCounter(T.Run, "trace_side_exits"), 0u);
    EXPECT_GT(jitCounter(T.Run, "trace_bindings"),
              jitCounter(T.Run, "compiled_traces"));
  }
  // Epoch: a seal flipped in the hottest entry moves the cache's epoch;
  // a chain jump into a binding made before it must not happen, so the
  // run absorbs the corruption exactly as stepping does.
  const isa::TargetImage Image = loopImage(100'000'000);
  {
    SCOPED_TRACE("epoch");
    Trio T(Image);
    driveInLockstep(T.Run, T.Step, &T.Interp, 20'000, {256});
    if (HasFailure())
      return;
    const rt::ActionCache &C = T.Run.sim().cache();
    rt::EntryId Hot = 0;
    for (rt::EntryId E = 1; E != C.entryCount(); ++E)
      if (C.entry(E).LastUse > C.entry(Hot).LastUse)
        Hot = E;
    const uint32_t Head = C.entry(Hot).Head;
    ASSERT_NE(Head, rt::ActionNode::NoNode);
    for (FacileSim *S : {&T.Run, &T.Step, &T.Interp}) {
      ASSERT_EQ(S->sim().cache().entry(Hot).Head, Head);
      S->sim().mutableCache().mutableSeals()[Head] ^= 1;
    }
    const uint64_t Chained =
        driveInLockstep(T.Run, T.Step, &T.Interp, 20'000, {256});
    EXPECT_GT(T.Run.sim().stats().CorruptDropped, 0u);
    EXPECT_GT(Chained, 0u);
  }
}

TEST(TraceChaining, EpochMovedMidChainStopsTheChain) {
  REQUIRE_JIT();
  // An extern call flips a seal in the middle of a step, as a host
  // callback mutating the cache could: the epoch moves while a chain is
  // in flight, so the next chain jump must not enter any binding made
  // before it. Stepping sees the move at its next lookup; chaining must
  // stop there too. (The interpreter would check the flipped node within
  // the same step, so it is not a reference here.)
  const isa::TargetImage Image = loopImage(100'000'000);
  Trio T(Image);
  driveInLockstep(T.Run, T.Step, nullptr, 20'000, {256});
  if (HasFailure())
    return;
  const rt::ActionCache &C = T.Run.sim().cache();
  rt::EntryId Hot = 0;
  for (rt::EntryId E = 1; E != C.entryCount(); ++E)
    if (C.entry(E).LastUse > C.entry(Hot).LastUse)
      Hot = E;
  const uint32_t Head = C.entry(Hot).Head;
  ASSERT_NE(Head, rt::ActionNode::NoNode);
  uint64_t Calls[2] = {0, 0};
  FacileSim *Sims[2] = {&T.Run, &T.Step};
  for (int I = 0; I != 2; ++I)
    Sims[I]->sim().setExternFaultHook([&Calls, &Sims, I, Head](uint32_t) {
      if (++Calls[I] == 500)
        Sims[I]->sim().mutableCache().mutableSeals()[Head] ^= 1;
      return false;
    });
  const uint64_t Before = T.Run.sim().chainedSteps();
  driveInLockstep(T.Run, T.Step, nullptr, 20'000, {256});
  EXPECT_GT(Calls[0], 500u);
  EXPECT_GT(T.Run.sim().stats().CorruptDropped, 0u);
  EXPECT_GT(T.Run.sim().chainedSteps(), Before);
}
