//===- bench_micro.cpp - google-benchmark microbenchmarks --------------------===//
//
// Microbenchmarks of the primitives underneath the tables: instruction
// decode, functional execution, cache/predictor probes, action-cache key
// hashing and interning, and the per-step cost of the fast and slow Facile
// engines (the constant factors behind Figures 11/12).
//
//===----------------------------------------------------------------------===//

#include "src/fastsim/FastSim.h"
#include "src/isa/Assembler.h"
#include "src/runtime/ActionCache.h"
#include "src/sims/SimHarness.h"
#include "src/uarch/FunctionalCore.h"
#include "src/workload/Workloads.h"

#include <benchmark/benchmark.h>

#include <vector>

using namespace facile;

namespace {

const isa::TargetImage &loopImage() {
  static const isa::TargetImage Image = *isa::assemble(R"(
    main:
      li r1, 1000000000
    loop:
      add r2, r2, r1
      xor r3, r3, r2
      slli r4, r2, 3
      and r5, r4, r3
      addi r1, r1, -1
      bne r1, r0, loop
      halt
  )");
  return Image;
}

void BM_Decode(benchmark::State &State) {
  uint32_t Word = isa::encodeR(isa::AluFunct::Add, 1, 2, 3);
  for (auto _ : State) {
    benchmark::DoNotOptimize(isa::decode(Word));
    Word += 1 << 11; // vary rs2 so the decoder isn't value-predictable
  }
}
BENCHMARK(BM_Decode);

void BM_FunctionalExecute(benchmark::State &State) {
  const isa::TargetImage &Image = loopImage();
  TargetMemory Mem;
  Mem.loadImage(Image);
  ArchState Arch = makeInitialState(Image);
  for (auto _ : State) {
    if (!Image.isTextAddr(Arch.Pc))
      Arch = makeInitialState(Image);
    isa::DecodedInst Inst = isa::decode(Image.fetch(Arch.Pc));
    executeInst(Inst, Arch, Mem);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_FunctionalExecute);

void BM_CacheAccess(benchmark::State &State) {
  MemoryHierarchy MH;
  uint32_t Addr = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(MH.accessData(Addr, false));
    Addr += 64; // new line every access
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_PredictorResolve(benchmark::State &State) {
  BranchUnit BU;
  uint32_t Pc = 0x1000;
  bool Taken = false;
  for (auto _ : State) {
    benchmark::DoNotOptimize(BU.resolveDirection(Pc, Taken));
    Taken = !Taken;
    Pc = 0x1000 + ((Pc + 4) & 0xfff);
  }
}
BENCHMARK(BM_PredictorResolve);

void BM_PipelineKeyHash(benchmark::State &State) {
  fastsim::PipelineState Key;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Key.hash());
    ++Key.Pc;
  }
}
BENCHMARK(BM_PipelineKeyHash);

/// A wide step key: 197 int64 words (1,576 B, ooo.fac's key as raw words;
/// its width-tagged keys are 214 B), mostly small values, with word 100
/// left for the caller to vary.
std::vector<int64_t> oooShapedKey() {
  std::vector<int64_t> Key(197);
  for (size_t W = 0; W != Key.size(); ++W)
    Key[W] = static_cast<int64_t>(W % 5) - 1;
  return Key;
}

/// The key-table hash over one step key: what every recorded step pays
/// before it can probe the action cache.
void BM_KeyHash(benchmark::State &State) {
  std::vector<int64_t> Key = oooShapedKey();
  for (auto _ : State) {
    benchmark::DoNotOptimize(hashKey(Key.data(), Key.size() * 8));
    ++Key[100];
  }
  State.SetBytesProcessed(State.iterations() * Key.size() * 8);
}
BENCHMARK(BM_KeyHash);

/// ActionCache::internKey of a fresh key (hash, probe miss, append to the
/// key pool) — the recording step's path. The cache is cleared every 64K
/// keys, outside the timed region, to bound the pool.
void BM_InternKey(benchmark::State &State) {
  std::vector<int64_t> Key = oooShapedKey();
  rt::ActionCache C(size_t(1) << 30);
  int64_t Fresh = 0;
  for (auto _ : State) {
    if ((Fresh & 0xffff) == 0xffff) {
      State.PauseTiming();
      C.clear();
      State.ResumeTiming();
    }
    Key[100] = Fresh++;
    benchmark::DoNotOptimize(C.internKey(
        reinterpret_cast<const char *>(Key.data()), Key.size() * 8));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_InternKey);

/// Per-step cost of the Facile engines on the steady-state loop above:
/// fast replay vs. slow (memoization off) — the constant factors behind
/// Figure 12.
void BM_FacileFastStep(benchmark::State &State) {
  sims::FacileSim Sim(sims::SimKind::OutOfOrder, loopImage());
  Sim.run(50'000); // warm the action cache
  for (auto _ : State)
    Sim.sim().step();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_FacileFastStep);

void BM_FacileSlowStep(benchmark::State &State) {
  rt::Simulation::Options Off;
  Off.Memoize = false;
  sims::FacileSim Sim(sims::SimKind::OutOfOrder, loopImage(), Off);
  Sim.run(5'000);
  for (auto _ : State)
    Sim.sim().step();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_FacileSlowStep);

void BM_FastSimCycleReplay(benchmark::State &State) {
  fastsim::FastSim Sim(loopImage());
  Sim.run(50'000);
  for (auto _ : State)
    Sim.stepCycle();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_FastSimCycleReplay);

void BM_FastSimCycleSlow(benchmark::State &State) {
  fastsim::FastSim::Options Off;
  Off.Memoize = false;
  fastsim::FastSim Sim(loopImage(), Off);
  Sim.run(5'000);
  for (auto _ : State)
    Sim.stepCycle();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_FastSimCycleSlow);

void BM_CompileOooSimulator(benchmark::State &State) {
  std::string Source = sims::simulatorSource(sims::SimKind::OutOfOrder);
  for (auto _ : State) {
    DiagnosticEngine Diag;
    auto P = compileFacile(Source, Diag);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_CompileOooSimulator);

void BM_WorkloadGenerate(benchmark::State &State) {
  const workload::WorkloadSpec &Spec = *workload::findSpec("compress");
  for (auto _ : State) {
    isa::TargetImage Image = workload::generate(Spec, 8);
    benchmark::DoNotOptimize(Image.Text.data());
  }
}
BENCHMARK(BM_WorkloadGenerate);

} // namespace

BENCHMARK_MAIN();
