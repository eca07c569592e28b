//===- test_runtime.cpp - Fast-forwarding runtime tests ---------------------===//
//
// End-to-end tests of the slow/fast simulator pair: memoization hits,
// dynamic-result tests, action-cache misses with recovery, cache clearing,
// and — most importantly — that memoized and unmemoized execution compute
// exactly the same results (the paper's §6.1 claim: "while computing
// exactly the same simulated cycle counts").
//
//===----------------------------------------------------------------------===//

#include "src/facile/Compiler.h"
#include "src/isa/Assembler.h"
#include "src/runtime/Simulation.h"

#include <gtest/gtest.h>

using namespace facile;
using namespace facile::rt;

namespace {

CompiledProgram compileOk(const char *Source) {
  DiagnosticEngine Diag;
  auto P = compileFacile(Source, Diag);
  EXPECT_TRUE(P.has_value()) << Diag.str();
  if (!P)
    std::abort();
  return std::move(*P);
}

isa::TargetImage emptyImage() {
  auto I = isa::assemble("main:\n halt\n");
  return *I;
}

} // namespace

TEST(Runtime, CounterStepsAndFlushes) {
  CompiledProgram P = compileOk(R"(
    init val n = 0;
    fun main() { n = n + 1; }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  for (int I = 0; I != 5; ++I)
    Sim.step();
  EXPECT_EQ(Sim.getGlobal("n"), 5);
  // Every key is distinct, so every step runs the slow simulator.
  EXPECT_EQ(Sim.stats().Steps, 5u);
  EXPECT_EQ(Sim.stats().FastSteps, 0u);
  EXPECT_EQ(Sim.cache().entryCount(), 5u);
}

TEST(Runtime, RepeatedKeyReplaysFast) {
  // n cycles through 0,1,2,0,1,2,... so after the first lap every step is
  // a fast replay.
  CompiledProgram P = compileOk(R"(
    init val n = 0;
    fun main() { n = (n + 1) % 3; }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  for (int I = 0; I != 30; ++I)
    Sim.step();
  EXPECT_EQ(Sim.stats().Steps, 30u);
  EXPECT_EQ(Sim.stats().FastSteps, 27u);
  EXPECT_EQ(Sim.cache().entryCount(), 3u);
  EXPECT_EQ(Sim.getGlobal("n"), 0);
}

TEST(Runtime, MemoizeOffNeverTouchesCache) {
  CompiledProgram P = compileOk(R"(
    init val n = 0;
    fun main() { n = (n + 1) % 3; }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation::Options Opts;
  Opts.Memoize = false;
  Simulation Sim(P, Img, Opts);
  for (int I = 0; I != 30; ++I)
    Sim.step();
  EXPECT_EQ(Sim.cache().entryCount(), 0u);
  EXPECT_EQ(Sim.stats().FastSteps, 0u);
  EXPECT_EQ(Sim.getGlobal("n"), 0);
}

TEST(Runtime, DynamicStateThroughBuiltins) {
  CompiledProgram P = compileOk(R"(
    init val a = 0;
    fun main() {
      mem_st(2097152, mem_ld(2097152) + 7);
      a = (a + 1) % 2;
    }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  for (int I = 0; I != 10; ++I)
    Sim.step();
  // The increment must happen every step, replayed or not.
  EXPECT_EQ(Sim.memory().read32(2097152), 70u);
  EXPECT_GE(Sim.stats().FastSteps, 8u);
}

TEST(Runtime, DynamicResultTestAndMissRecovery) {
  // The branch direction depends on dynamic memory: first both steps
  // record one path; when memory flips, replay misses and recovery records
  // the other arm. After both arms are recorded there are no more misses.
  CompiledProgram P = compileOk(R"(
    init val k = 0;
    val out = 0;
    fun main() {
      if (mem_ld(2097152) == 1) out = 111;
      else out = 222;
      mem_st(2097408, out);
      k = 1 - k;
    }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);

  Sim.step(); // k=0, mem==0 -> 222 (slow, records false arm)
  Sim.step(); // k=1 (slow, records false arm)
  EXPECT_EQ(Sim.memory().read32(2097408), 222u);
  EXPECT_EQ(Sim.stats().Misses, 0u);

  Sim.step(); // k=0 again: fast replay of the false arm
  EXPECT_EQ(Sim.stats().FastSteps, 1u);

  Sim.memory().write32(2097152, 1); // flip the dynamic input
  StepEngine E = Sim.step();     // replay misses at the result test
  EXPECT_EQ(E, StepEngine::FastThenSlow);
  EXPECT_EQ(Sim.stats().Misses, 1u);
  EXPECT_EQ(Sim.memory().read32(2097408), 111u) << "recovery took the new arm";

  // The other entry (k=0) also misses once to learn the new arm; after
  // that, both entries know both arms and replay stays fast.
  Sim.step();
  EXPECT_EQ(Sim.stats().Misses, 2u);
  Sim.step();
  Sim.step();
  EXPECT_EQ(Sim.stats().Misses, 2u);
  EXPECT_EQ(Sim.memory().read32(2097408), 111u);
}

TEST(Runtime, RecoveryPreservesRtStaticResults) {
  // After the dynamic test, each arm computes a *rt-static* value that
  // flows into the key. Recovery must recompute these correctly.
  CompiledProgram P = compileOk(R"(
    init val pc = 0;
    fun main() {
      val t = mem_ld(2097152);
      if (t == 0) pc = pc + 4;
      else pc = pc + 8;
    }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  Sim.step(); // pc 0 -> 4 (slow)
  Sim.step(); // pc 4 -> 8 (slow)
  Sim.setGlobal("pc", 0);
  Sim.step(); // fast replay: 0 -> 4
  EXPECT_EQ(Sim.getGlobal("pc"), 4);
  Sim.memory().write32(2097152, 5);
  Sim.setGlobal("pc", 0);
  Sim.step(); // miss at the test; recovery takes the +8 arm
  EXPECT_EQ(Sim.getGlobal("pc"), 8);
  EXPECT_EQ(Sim.stats().Misses, 1u);
}

TEST(Runtime, ExternFunctionsAndPlaceholders) {
  CompiledProgram P = compileOk(R"(
    extern accumulate(int, int) : int;
    init val i = 0;
    fun main() {
      val unused = accumulate(i, 100);
      i = (i + 1) % 4;
    }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  int64_t Sum = 0;
  std::vector<int64_t> SeenArgs;
  Sim.registerExtern("accumulate", [&](const int64_t *Args, size_t N) {
    EXPECT_EQ(N, 2u);
    EXPECT_EQ(Args[1], 100);
    SeenArgs.push_back(Args[0]);
    Sum += Args[0];
    return Sum;
  });
  for (int I = 0; I != 8; ++I)
    Sim.step();
  // The extern runs every step — replayed steps call it too (externs are
  // dynamic, unmemoized; paper §3.2).
  ASSERT_EQ(SeenArgs.size(), 8u);
  // The rt-static argument i is fed from placeholders during replay.
  EXPECT_EQ(SeenArgs[4], 0);
  EXPECT_EQ(SeenArgs[7], 3);
}

TEST(Runtime, HaltStopsRun) {
  CompiledProgram P = compileOk(R"(
    init val n = 0;
    fun main() {
      n = n + 1;
      if (n == 5) sim_halt();
    }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  uint64_t Steps = Sim.run(1000).Steps;
  EXPECT_EQ(Steps, 5u);
  EXPECT_TRUE(Sim.halted());
}

TEST(Runtime, RetireAttributionByEngine) {
  CompiledProgram P = compileOk(R"(
    init val n = 0;
    fun main() {
      retire(1);
      cycles(2);
      n = (n + 1) % 2;
    }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  for (int I = 0; I != 10; ++I)
    Sim.step();
  EXPECT_EQ(Sim.stats().RetiredTotal, 10u);
  EXPECT_EQ(Sim.stats().RetiredFast, 8u); // first two steps were slow
  EXPECT_EQ(Sim.stats().Cycles, 20u);
  EXPECT_NEAR(Sim.stats().fastForwardedPct(), 80.0, 0.01);
}

TEST(Runtime, InitArrayAsKey) {
  // A rt-static queue array is part of the key; rotating it produces a
  // small cycle of keys that replays after one lap.
  CompiledProgram P = compileOk(R"(
    init val q = array(4){0};
    init val head = 0;
    fun main() {
      q[head % 4] = (q[head % 4] + 1) % 2;
      head = (head + 1) % 4;
    }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  for (int I = 0; I != 32; ++I)
    Sim.step();
  // Period: 8 steps (each element toggles every 4 steps; full state cycle
  // is 8). First lap records; later laps replay.
  EXPECT_GT(Sim.stats().FastSteps, 20u);
  EXPECT_EQ(Sim.getGlobalElem("q", 0), 0);
}

TEST(Runtime, CacheBudgetTriggersClear) {
  CompiledProgram P = compileOk(R"(
    init val n = 0;
    fun main() { n = n + 1; }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation::Options Opts;
  Opts.CacheBudgetBytes = 4096; // tiny: every few steps clears the cache
  Simulation Sim(P, Img, Opts);
  for (int I = 0; I != 1000; ++I)
    Sim.step();
  EXPECT_GE(Sim.cache().stats().Clears, 1u);
  EXPECT_EQ(Sim.getGlobal("n"), 1000);
}

TEST(Runtime, MemoizedAndUnmemoizedAgreeExactly) {
  // Property: for a program mixing rt-static control, dynamic tests,
  // memory, externs and arrays, memo on/off must produce identical final
  // state and cycle counts (paper §6.1).
  const char *Source = R"(
    extern noise(int) : int;
    val R = array(8){0};
    init val pc = 0;
    init val phase = 0;
    fun main() {
      val x = noise(pc);
      if (x % 3 == 0) { R[pc % 8] = R[pc % 8] + x; cycles(3); }
      else { R[(pc + 1) % 8] = x; cycles(1); }
      retire(1);
      phase = (phase + 1) % 5;
      pc = (pc + 1) % 16;
    }
  )";
  CompiledProgram P = compileOk(Source);
  isa::TargetImage Img = emptyImage();

  auto RunOne = [&](bool Memoize) {
    Simulation::Options Opts;
    Opts.Memoize = Memoize;
    Simulation Sim(P, Img, Opts);
    uint64_t Seed = 12345;
    Sim.registerExtern("noise", [Seed](const int64_t *Args,
                                       size_t) mutable {
      Seed = Seed * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<int64_t>((Seed >> 33) & 0xffff) + Args[0];
    });
    for (int I = 0; I != 500; ++I)
      Sim.step();
    std::vector<int64_t> Out;
    for (uint32_t E = 0; E != 8; ++E)
      Out.push_back(Sim.getGlobalElem("R", E));
    Out.push_back(Sim.getGlobal("pc"));
    Out.push_back(Sim.getGlobal("phase"));
    Out.push_back(static_cast<int64_t>(Sim.stats().Cycles));
    Out.push_back(static_cast<int64_t>(Sim.stats().RetiredTotal));
    return Out;
  };

  EXPECT_EQ(RunOne(true), RunOne(false));
}

TEST(Runtime, EndNodeRecordsNextKey) {
  CompiledProgram P = compileOk(R"(
    init val n = 0;
    fun main() { n = (n + 1) % 2; }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  Sim.step();
  Sim.step();
  Sim.step(); // replay
  // Peek into the cache: every entry ends in an End node whose NextKey is
  // a key of one key-static scalar: its width byte (1) and n's byte.
  const ActionCache &C = Sim.cache();
  EXPECT_EQ(C.entryCount(), 2u);
  unsigned Ends = 0;
  for (uint32_t I = 0; I != C.nodeCount(); ++I) {
    const ActionNode &N = C.node(I);
    if (N.K != ActionNode::Kind::End)
      continue;
    ++Ends;
    ASSERT_LT(N.NextKey, C.keyCount());
    ASSERT_EQ(C.keyLen(N.NextKey), 2u);
    EXPECT_EQ(C.keyData(N.NextKey)[0], 1);
  }
  EXPECT_EQ(Ends, 2u);
}
