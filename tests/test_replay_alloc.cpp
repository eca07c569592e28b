//===- test_replay_alloc.cpp - Replayed steps allocate nothing -------------===//
//
// The fast simulator should do only the dynamic work of a recorded step
// (paper §2, Figure 9). This binary replaces the global operator new with
// a counting one and holds steady-state replayed steps to zero heap
// allocations: interpreted replay and traced replay, side exits that
// resume interpreted included. A miss recovery whose replayed prefix is
// shorter than the one before it shows that the reused prefix buffer is
// cleared per step — a stale tail would desynchronize recovery into a
// fault or a wrong state.
//
//===----------------------------------------------------------------------===//

#include "src/isa/Assembler.h"
#include "src/jit/JitEmitter.h"
#include "src/sims/SimHarness.h"
#include "src/support/JsonValue.h"
#include "src/telemetry/Profiler.h"
#include "src/workload/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> NewCalls{0};
} // namespace

void *operator new(std::size_t N) {
  NewCalls.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace facile;
using namespace facile::sims;

namespace {

/// A loop code (nearly every step replays once warm) and a branchy one
/// (replays keep missing into recovery), both shrunk to test size.
isa::TargetImage loopImage() {
  workload::WorkloadSpec S = *workload::findSpec("compress");
  S.DataKWords = 2;
  return workload::generate(S, 1u << 30);
}

/// A tight counted loop: the OOO pipeline state settles into a short
/// cycle of keys, so every entry it replays turns hot and gets a trace.
isa::TargetImage tightLoopImage() {
  return *isa::assemble("main:\n li r1, 0\n li r2, 100000000\n"
                        "loop:\n addi r1, r1, 1\n addi r3, r3, 3\n"
                        " add r4, r4, r3\n bne r1, r2, loop\n halt\n");
}

isa::TargetImage branchyImage() {
  workload::WorkloadSpec S = *workload::findSpec("gcc");
  S.DataKWords = 2;
  S.NumKernels = 4;
  return workload::generate(S, 1u << 30);
}

struct Tally {
  uint64_t Fast = 0;       ///< fully replayed steps
  uint64_t FastAllocs = 0; ///< operator new calls during those steps
};

/// Runs \p Steps single steps, attributing allocations to replayed ones.
Tally stepCounting(rt::Simulation &Sim, unsigned Steps) {
  Tally T;
  for (unsigned I = 0; I != Steps && !Sim.halted() && !Sim.faulted(); ++I) {
    const uint64_t Before = NewCalls.load(std::memory_order_relaxed);
    const rt::StepEngine E = Sim.step();
    const uint64_t N = NewCalls.load(std::memory_order_relaxed) - Before;
    if (E == rt::StepEngine::Fast) {
      ++T.Fast;
      T.FastAllocs += N;
    }
  }
  return T;
}

uint64_t jitCounter(const FacileSim &Sim, const char *Name) {
  json::Value Stats;
  std::string Err;
  EXPECT_TRUE(json::parse(Sim.statsJson(), Stats, Err)) << Err;
  const json::Value *Jit = Stats.get("jit");
  const json::Value *V = Jit ? Jit->get(Name) : nullptr;
  return V ? static_cast<uint64_t>(V->intOr(0)) : 0;
}

} // namespace

TEST(ReplayAlloc, InterpretedReplayAllocatesNothing) {
  const isa::TargetImage Image = loopImage();
  rt::Simulation::Options O;
  O.Backend = rt::BackendKind::Interpret;
  FacileSim Sim(SimKind::OutOfOrder, Image, O);
  Sim.run(200'000); // warm-up: record the loop's entries
  const Tally T = stepCounting(Sim.sim(), 20'000);
  ASSERT_FALSE(Sim.faulted());
  EXPECT_GT(T.Fast, 10'000u);
  EXPECT_EQ(T.FastAllocs, 0u);
}

TEST(ReplayAlloc, TracedReplayAllocatesNothing) {
  if (!jit::available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  const isa::TargetImage Image = tightLoopImage();
  rt::Simulation::Options O;
  O.Backend = rt::BackendKind::Jit;
  O.JitThreshold = 16;
  FacileSim Sim(SimKind::OutOfOrder, Image, O);
  Sim.run(200'000); // warm-up: record and compile the hot entries
  const uint64_t TracedBefore = jitCounter(Sim, "trace_steps");
  const uint64_t CompiledBefore = jitCounter(Sim, "compiled_traces");
  const Tally T = stepCounting(Sim.sim(), 20'000);
  const uint64_t Traced = jitCounter(Sim, "trace_steps") - TracedBefore;
  ASSERT_FALSE(Sim.faulted());
  EXPECT_GT(T.Fast, 10'000u);
  // Steady state (nothing compiled in the window), and vacuous unless
  // most replayed steps actually ran as one trace call.
  EXPECT_EQ(jitCounter(Sim, "compiled_traces"), CompiledBefore);
  EXPECT_GT(Traced * 2, T.Fast);
  EXPECT_EQ(T.FastAllocs, 0u);
}

TEST(ReplayAlloc, TracedSideExitAllocatesNothing) {
  // A sampled step replays interpreted, and when it misses, recovery
  // records the new successor without dropping the entry's binding. The
  // next traced replay down that edge leaves the trace at a side exit,
  // rebuilds the replayed prefix from the shape's parent links and the
  // binding, and finds the successor recorded: it resumes interpreted and
  // completes as a replayed step. Those steps must not allocate either.
  if (!jit::available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  const isa::TargetImage Image = branchyImage();
  rt::Simulation::Options O;
  O.Backend = rt::BackendKind::Jit;
  O.JitThreshold = 1;
  FacileSim Sim(SimKind::OutOfOrder, Image, O);
  telemetry::ActionProfiler Prof(Sim.sim().actionCount(), 3);
  Sim.setProfiler(&Prof);
  Sim.run(30'000); // warm-up: size the prefix buffer

  // Steady-state steps only: binding an entry or compiling a shape
  // allocates, and is compile work, not replay.
  auto compileWork = [&] { return jitCounter(Sim, "trace_bindings"); };
  uint64_t Exits = jitCounter(Sim, "trace_side_exits");
  uint64_t Work = compileWork();
  uint64_t FastExits = 0, Fast = 0, FastAllocs = 0;
  for (unsigned I = 0; I != 20'000 && !Sim.sim().halted(); ++I) {
    const uint64_t Before = NewCalls.load(std::memory_order_relaxed);
    const rt::StepEngine E = Sim.sim().step();
    const uint64_t N = NewCalls.load(std::memory_order_relaxed) - Before;
    ASSERT_NE(E, rt::StepEngine::Faulted) << Sim.fault().Detail;
    const uint64_t X = jitCounter(Sim, "trace_side_exits");
    const uint64_t W = compileWork();
    if (E == rt::StepEngine::Fast && W == Work) {
      ++Fast;
      FastAllocs += N;
      FastExits += X - Exits;
    }
    Exits = X;
    Work = W;
  }
  EXPECT_GT(Fast, 1'000u);
  EXPECT_GT(FastExits, 0u);
  EXPECT_EQ(FastAllocs, 0u);
}

TEST(ReplayAlloc, ShorterMissPrefixReusesClearedBuffer) {
  // Interpreted and sampled on every step, so the profiler's per-step node
  // count gives each replay's prefix length: a clean replay walks the
  // prefix plus its End node, a miss walks exactly the prefix it hands to
  // recovery. Slow steps leave the buffer alone.
  const isa::TargetImage Image = branchyImage();
  constexpr uint64_t WarmInstrs = 50'000;
  constexpr unsigned Steps = 20'000;

  rt::Simulation::Options O;
  O.Backend = rt::BackendKind::Interpret;
  FacileSim Sim(SimKind::OutOfOrder, Image, O);
  telemetry::ActionProfiler Prof(Sim.sim().actionCount());
  Sim.setProfiler(&Prof);
  Sim.run(WarmInstrs);
  const uint64_t WarmSteps = Sim.sim().stats().Steps;

  uint64_t LastPrefix = 0, ShorterMisses = 0;
  for (unsigned I = 0; I != Steps && !Sim.sim().halted(); ++I) {
    const uint64_t NodesBefore = Prof.stepNodes().Sum;
    const rt::StepEngine E = Sim.sim().step();
    ASSERT_NE(E, rt::StepEngine::Faulted) << Sim.fault().Detail;
    const uint64_t Nodes = Prof.stepNodes().Sum - NodesBefore;
    if (E == rt::StepEngine::Fast) {
      LastPrefix = Nodes - 1;
    } else if (E == rt::StepEngine::FastThenSlow) {
      if (Nodes < LastPrefix)
        ++ShorterMisses;
      LastPrefix = Nodes;
    }
  }
  EXPECT_GT(ShorterMisses, 0u);

  // Recovery of every such miss recorded exactly what an unmemoized run
  // computes over the same steps.
  rt::Simulation::Options Off;
  Off.Memoize = false;
  FacileSim Ref(SimKind::OutOfOrder, Image, Off);
  Ref.run(WarmInstrs);
  ASSERT_EQ(Ref.sim().stats().Steps, WarmSteps);
  for (unsigned I = 0; I != Steps && !Ref.sim().halted(); ++I)
    Ref.sim().step();
  EXPECT_EQ(Sim.sim().stats().RetiredTotal, Ref.sim().stats().RetiredTotal);
  EXPECT_EQ(Sim.sim().stats().Cycles, Ref.sim().stats().Cycles);
  EXPECT_EQ(Sim.sim().memory().digest(), Ref.sim().memory().digest());

  // The buffer is warm now: further replayed steps allocate nothing.
  Sim.setProfiler(nullptr);
  const Tally T = stepCounting(Sim.sim(), 5'000);
  EXPECT_GT(T.Fast, 0u);
  EXPECT_EQ(T.FastAllocs, 0u);
}
