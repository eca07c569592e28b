//===- test_runtime2.cpp - Runtime edge cases ---------------------------------===//
//
// Second batch of runtime tests: dynamic-condition loops (unrolled into
// result-test chains), local arrays on both sides of the binding-time
// divide, chain invalidation when the host perturbs state between steps,
// key-static init globals (restored from the step's key, not flushed),
// and stepping discipline around halts.
//
//===----------------------------------------------------------------------===//

#include "src/facile/Compiler.h"
#include "src/isa/Assembler.h"
#include "src/runtime/Simulation.h"
#include "src/snapshot/Serializer.h"
#include "tests/KeyStaticMix.h"

#include <gtest/gtest.h>

using namespace facile;
using facile::testprog::keyStaticMixSource;
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

isa::TargetImage emptyImage() { return *isa::assemble("main:\n halt\n"); }

/// A pure function of its argument, so replays see the recorded results
/// except where the argument differs.
int64_t probe(const int64_t *A, size_t) { return (A[0] * 7 + 3) % 11; }

/// Every global of the mixed program plus the step counters it drives.
std::vector<int64_t> mixState(const Simulation &Sim) {
  std::vector<int64_t> Out;
  for (const char *G : {"pc", "n", "last"})
    Out.push_back(Sim.getGlobal(G));
  for (const char *A : {"q", "d"})
    for (uint32_t E = 0; E != 4; ++E)
      Out.push_back(Sim.getGlobalElem(A, E));
  Out.push_back(static_cast<int64_t>(Sim.stats().Steps));
  return Out;
}

} // namespace

TEST(Runtime2, KeyStaticMixedProgramMatchesAcrossEngines) {
  CompiledProgram P = compileOk(keyStaticMixSource());
  isa::TargetImage Img = emptyImage();
  // The state after every step, under one engine configuration.
  auto Trace = [&](bool Memo, BackendKind Backend, uint64_t *FastSteps) {
    Simulation::Options Opts;
    Opts.Memoize = Memo;
    Opts.Backend = Backend;
    Opts.JitThreshold = 1;
    Simulation Sim(P, Img, Opts);
    Sim.registerExtern("probe", probe);
    std::vector<std::vector<int64_t>> States;
    for (int I = 0; I != 600; ++I) {
      Sim.step();
      States.push_back(mixState(Sim));
    }
    *FastSteps = Sim.stats().FastSteps;
    return States;
  };
  uint64_t Fast = 0;
  auto Ref = Trace(false, BackendKind::Interpret, &Fast);
  EXPECT_EQ(Fast, 0u);
  for (BackendKind B : {BackendKind::Interpret, BackendKind::Jit}) {
    EXPECT_EQ(Trace(false, B, &Fast), Ref) << backendKindName(B);
    EXPECT_EQ(Trace(true, B, &Fast), Ref) << backendKindName(B);
    EXPECT_GT(Fast, 300u) << backendKindName(B);
  }
}

TEST(Runtime2, HostWritesToKeyStaticGlobalsBreakTheChain) {
  // n and q are restored from the key, not compared along the INDEX
  // chain; a host write to either between steps must still change the
  // next step's key. Memo on and off stay bit-identical.
  CompiledProgram P = compileOk(keyStaticMixSource());
  ASSERT_TRUE(P.KeyStatic[P.GlobalIndex.at("n")]);
  ASSERT_TRUE(P.KeyStatic[P.GlobalIndex.at("q")]);
  isa::TargetImage Img = emptyImage();
  auto Run = [&](bool Memo) {
    Simulation::Options Opts;
    Opts.Memoize = Memo;
    Simulation Sim(P, Img, Opts);
    Sim.registerExtern("probe", probe);
    std::vector<std::vector<int64_t>> States;
    for (int I = 0; I != 400; ++I) {
      if (I % 50 == 49) {
        Sim.setGlobal("n", (I / 50) % 5);
        Sim.setGlobalElem("q", I % 4, (I / 50) % 3);
      }
      Sim.step();
      States.push_back(mixState(Sim));
    }
    if (Memo) {
      EXPECT_GT(Sim.stats().FastSteps, 200u);
    }
    return States;
  };
  EXPECT_EQ(Run(true), Run(false));
}

TEST(Runtime2, ReadsAfterReplayReturnTheKeysValues) {
  // Right after a replayed step the key-static globals' dynamic store is
  // stale; getGlobal, getGlobalElem and serializeState must see the values
  // of the key the step ended on.
  CompiledProgram P = compileOk(keyStaticMixSource());
  isa::TargetImage Img = emptyImage();
  Simulation::Options RefOpts;
  RefOpts.Memoize = false;
  Simulation Ref(P, Img, RefOpts);
  Simulation Sim(P, Img);
  Ref.registerExtern("probe", probe);
  Sim.registerExtern("probe", probe);
  unsigned Checked = 0;
  for (int I = 0; I != 300; ++I) {
    Ref.step();
    if (Sim.step() != StepEngine::Fast)
      continue;
    // Each reader goes first after its own replayed steps (the first read
    // brings the whole store up to date).
    switch (Checked++ % 3) {
    case 0:
      EXPECT_EQ(Sim.getGlobal("n"), Ref.getGlobal("n"));
      break;
    case 1:
      EXPECT_EQ(Sim.getGlobalElem("q", I % 4), Ref.getGlobalElem("q", I % 4));
      break;
    default: {
      // A copy restored from serializeState reads like the reference.
      snapshot::Writer W;
      Sim.serializeState(W);
      Simulation Copy(P, Img);
      snapshot::Reader R(W.buffer().data(), W.size());
      ASSERT_TRUE(Copy.deserializeState(R));
      EXPECT_EQ(mixState(Copy), mixState(Ref));
      break;
    }
    }
  }
  EXPECT_GT(Checked, 100u);
}

TEST(Runtime2, DynamicWhileLoopUnrollsIntoResultTests) {
  // The loop bound comes from dynamic memory: each iteration's test is a
  // recorded dynamic result. Replays follow the recorded unrolling and
  // miss when the bound changes.
  CompiledProgram P = compileOk(R"(
    init val k = 0;
    val sum = 0;
    fun main() {
      val n = mem_ld(2097152);
      sum = 0;
      while (n > 0) {
        sum = sum + n;
        n = n - 1;
      }
      mem_st(2097156, sum);
      k = 1 - k;
    }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  Sim.memory().write32(2097152, 4);
  Sim.step();
  EXPECT_EQ(Sim.memory().read32(2097156), 10u); // 4+3+2+1
  Sim.step();
  Sim.step(); // replay of k=0 entry
  EXPECT_EQ(Sim.stats().FastSteps, 1u);
  // Change the loop bound: longer unrolling -> miss -> recovery.
  Sim.memory().write32(2097152, 6);
  Sim.step();
  EXPECT_EQ(Sim.memory().read32(2097156), 21u);
  EXPECT_GE(Sim.stats().Misses, 1u);
}

TEST(Runtime2, RtStaticLocalArray) {
  // A local array indexed rt-statically stays on the slow side; results
  // flow into the key.
  CompiledProgram P = compileOk(R"(
    init val n = 0;
    fun main() {
      val lut = array(8){1};
      val i = 0;
      while (i < 8) { lut[i] = i * i; i = i + 1; }
      n = (n + lut[n % 8]) % 64;
    }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  for (int I = 0; I != 200; ++I)
    Sim.step();
  // The sequence n -> (n + (n%8)^2) % 64 cycles; most steps replay.
  EXPECT_GT(Sim.stats().FastSteps, 150u);
}

TEST(Runtime2, DynamicLocalArray) {
  CompiledProgram P = compileOk(R"(
    init val n = 0;
    fun main() {
      val buf = array(4){0};
      buf[0] = mem_ld(2097152);
      buf[1] = buf[0] * 2;
      mem_st(2097156, buf[1]);
      n = (n + 1) % 2;
    }
  )");
  EXPECT_TRUE(P.DynLocalArrays.at(0));
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  Sim.memory().write32(2097152, 21);
  for (int I = 0; I != 6; ++I)
    Sim.step();
  EXPECT_EQ(Sim.memory().read32(2097156), 42u);
  // Value flows through the dynamic local array during replay too.
  Sim.memory().write32(2097152, 50);
  Sim.step();
  EXPECT_EQ(Sim.memory().read32(2097156), 100u);
  EXPECT_GT(Sim.stats().FastSteps, 0u);
}

TEST(Runtime2, HostPerturbationInvalidatesChain) {
  // setGlobal between steps changes the key; the INDEX chain must not
  // short-circuit into the wrong entry.
  CompiledProgram P = compileOk(R"(
    init val n = 0;
    val out = 0;
    fun main() {
      out = n * 10;
      n = (n + 1) % 4;
    }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  for (int I = 0; I != 12; ++I)
    Sim.step(); // cycle 0..3 cached, chained replays
  EXPECT_GT(Sim.stats().FastSteps, 6u);
  Sim.setGlobal("n", 2); // breaks the 3 -> 0 chain the cache recorded
  Sim.step();
  EXPECT_EQ(Sim.getGlobal("out"), 20);
  EXPECT_EQ(Sim.getGlobal("n"), 3);
}

TEST(Runtime2, StepsAfterHaltAreHarmless) {
  CompiledProgram P = compileOk(R"(
    init val n = 0;
    fun main() { n = n + 1; if (n >= 2) sim_halt(); }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  EXPECT_EQ(Sim.run(100).Steps, 2u);
  EXPECT_TRUE(Sim.halted());
  // run() after halt performs no further steps.
  EXPECT_EQ(Sim.run(100).Steps, 0u);
}

TEST(Runtime2, MixedStaticDynamicExpressionPlaceholders) {
  // An expression mixing rt-static decode with dynamic memory must record
  // exactly the rt-static operand values.
  CompiledProgram P = compileOk(R"(
    init val pc = 0;
    fun main() {
      val scale = pc % 7 + 1;
      mem_st(2097152, mem_ld(2097152) + scale);
      pc = (pc + 1) % 3;
    }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  for (int I = 0; I != 9; ++I)
    Sim.step();
  // scale cycles 1,2,3 -> 3 steps add 6; 9 steps add 18.
  EXPECT_EQ(Sim.memory().read32(2097152), 18u);
  EXPECT_EQ(Sim.stats().FastSteps, 6u);
  EXPECT_GT(Sim.stats().PlaceholderWords, 0u);
}

TEST(Runtime2, TextBuiltinsAreRtStatic) {
  CompiledProgram P = compileOk(R"(
    init val pc = 0;
    fun main() {
      if (pc < text_start()) pc = text_start();
      else {
        pc = pc + 4;
        if (pc >= text_end()) sim_halt();
      }
    }
  )");
  isa::TargetImage Img = emptyImage(); // one instruction of text
  Simulation Sim(P, Img);
  Sim.run(100);
  EXPECT_TRUE(Sim.halted());
  EXPECT_EQ(Sim.getGlobal("pc"), Img.textEnd());
}

TEST(Runtime2, NestedInliningComputesCorrectly) {
  CompiledProgram P = compileOk(R"(
    init val n = 0;
    fun double(x) { return x * 2; }
    fun quad(x) { return double(double(x)); }
    fun clamp(x, hi) { if (x > hi) return hi; return x; }
    fun main() { n = clamp(quad(n) + 1, 100); }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  // n: 0 -> 1 -> 5 -> 21 -> 85 -> 100 -> 100 ...
  int64_t Expect[] = {1, 5, 21, 85, 100, 100};
  for (int64_t E : Expect) {
    Sim.step();
    EXPECT_EQ(Sim.getGlobal("n"), E);
  }
}

TEST(Runtime2, ExternWithDynamicAndStaticArgsDuringReplay) {
  CompiledProgram P = compileOk(R"(
    extern observe(int, int);
    init val k = 0;
    fun main() {
      observe(k * 100, mem_ld(2097152));
      k = (k + 1) % 2;
    }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  std::vector<std::pair<int64_t, int64_t>> Calls;
  Sim.registerExtern("observe", [&](const int64_t *A, size_t) {
    Calls.push_back({A[0], A[1]});
    return int64_t{0};
  });
  Sim.memory().write32(2097152, 5);
  Sim.step();
  Sim.step();
  Sim.memory().write32(2097152, 9);
  Sim.step(); // replay: static arg from placeholder, dynamic arg fresh
  ASSERT_EQ(Calls.size(), 3u);
  EXPECT_EQ(Calls[2].first, 0);
  EXPECT_EQ(Calls[2].second, 9);
  EXPECT_EQ(Sim.stats().FastSteps, 1u);
}

namespace {

/// The dividends every division below sees, one per step.
const int64_t Dividends[] = {INT64_MIN, -33, -1, 0, 31, 32, INT64_MAX};
constexpr int64_t Divisors[] = {1, 2, 32, int64_t(1) << 30, 12};

int64_t dividend(const int64_t *A, size_t) { return Dividends[A[0] % 7]; }

} // namespace

TEST(Runtime2, DivisionByConstantsMatchesAcrossEngines) {
  // The slow-step function inlines / and % by a constant power of two;
  // every other divisor calls the evalBin helper. Each division runs with
  // a dynamic dividend (an extern's result) and a run-time-static one (an
  // init array the host fills), over the dividends where truncation,
  // bias and overflow differ: INT64_MIN, -33, -1, 0, 31, 32, INT64_MAX.
  CompiledProgram P = compileOk(R"(
    extern dividend(int) : int;
    init val i = 0;
    init val t = array(7){0};
    val qd = array(5){0};
    val rd = array(5){0};
    val qs = array(5){0};
    val rs = array(5){0};
    fun main() {
      val a = dividend(i);
      val s = t[i];
      qd[0] = a / 1; rd[0] = a % 1; qs[0] = s / 1; rs[0] = s % 1;
      qd[1] = a / 2; rd[1] = a % 2; qs[1] = s / 2; rs[1] = s % 2;
      qd[2] = a / 32; rd[2] = a % 32; qs[2] = s / 32; rs[2] = s % 32;
      qd[3] = a / 1073741824; rd[3] = a % 1073741824;
      qs[3] = s / 1073741824; rs[3] = s % 1073741824;
      qd[4] = a / 12; rd[4] = a % 12; qs[4] = s / 12; rs[4] = s % 12;
      i = (i + 1) % 7;
    }
  )");
  isa::TargetImage Img = emptyImage();
  auto Run = [&](bool Memo, BackendKind Backend) {
    Simulation::Options Opts;
    Opts.Memoize = Memo;
    Opts.Backend = Backend;
    Opts.JitThreshold = 1;
    Simulation Sim(P, Img, Opts);
    Sim.registerExtern("dividend", dividend);
    for (uint32_t E = 0; E != 7; ++E)
      Sim.setGlobalElem("t", E, Dividends[E]);
    std::vector<int64_t> States;
    for (int Step = 0; Step != 21; ++Step) {
      Sim.step();
      EXPECT_FALSE(Sim.faulted()) << Sim.fault().Detail;
      const int64_t A = Dividends[Step % 7];
      for (uint32_t D = 0; D != 5; ++D) {
        SCOPED_TRACE(std::to_string(A) + " by " + std::to_string(Divisors[D]));
        EXPECT_EQ(Sim.getGlobalElem("qd", D), A / Divisors[D]);
        EXPECT_EQ(Sim.getGlobalElem("rd", D), A % Divisors[D]);
        EXPECT_EQ(Sim.getGlobalElem("qs", D), A / Divisors[D]);
        EXPECT_EQ(Sim.getGlobalElem("rs", D), A % Divisors[D]);
        for (const char *G : {"qd", "rd", "qs", "rs"})
          States.push_back(Sim.getGlobalElem(G, D));
      }
    }
    if (std::string(Sim.backendName()) == "jit") {
      EXPECT_GT(Sim.jitCompiledActions(), 0u);
    }
    return States;
  };
  const std::vector<int64_t> Ref = Run(false, BackendKind::Interpret);
  for (bool Memo : {false, true}) {
    EXPECT_EQ(Run(Memo, BackendKind::Jit), Ref) << "memo " << Memo;
    EXPECT_EQ(Run(Memo, BackendKind::Interpret), Ref) << "memo " << Memo;
  }
}
