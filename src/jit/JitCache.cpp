//===- JitCache.cpp - Per-plan slow-step code cache -----------------------===//

#include "src/jit/JitCache.h"

#include "src/facile/Ir.h"

#include <algorithm>
#include <chrono>

using namespace facile;
using namespace facile::jit;

JitCache::JitCache(const CompiledProgram &Prog, const rt::ExecPlan &Plan,
                   const isa::TargetImage &Image,
                   const JitRuntimeHooks &Hooks) {
  Ctx.Plan = &Plan;
  Ctx.Image = &Image;
  Ctx.NumSlots = Prog.Step.NumSlots;
  Ctx.Hooks = Hooks;
  Ctx.ArraySizes.reserve(Prog.Globals.size());
  for (const ir::GlobalVar &G : Prog.Globals)
    Ctx.ArraySizes.push_back(G.IsArray ? G.Size : 0);
  Ctx.LocArraySizes.reserve(Prog.Step.LocalArrays.size());
  for (const auto &L : Prog.Step.LocalArrays)
    Ctx.LocArraySizes.push_back(L.Size);

  Ctx.ActionBlocks.reserve(Prog.Actions.Blocks.size());
  for (const ActionBlockInfo &B : Prog.Actions.Blocks)
    Ctx.ActionBlocks.push_back(B.ActionId != ActionBlockInfo::NoAction);
}

void JitCache::noteSlowStep(uint32_t Threshold) {
  if (SlowState.load(std::memory_order_relaxed) != Cold)
    return;
  uint32_t Seen = SlowSteps.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Seen < Threshold)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  if (SlowState.load(std::memory_order_relaxed) == Cold)
    compileSlowLocked();
}

void JitCache::compileSlowLocked() {
  const auto Start = std::chrono::steady_clock::now();
  auto finish = [&](uint8_t State) {
    SlowCompileUs.fetch_add(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - Start)
                .count()),
        std::memory_order_relaxed);
    SlowState.store(State, std::memory_order_relaxed);
  };
  // Both functions or neither: a stream that compiles in one shape
  // compiles in the other (the templates differ only in the capture
  // stores), and publishing one alone would let one session's shape
  // diverge.
  std::vector<uint8_t> Codes[2];
  uint32_t CapWords[2] = {0, 0};
  for (unsigned V = 0; V != 2; ++V)
    if (!emitSlowStep(Ctx, /*Recording=*/V != 0, Codes[V], CapWords[V]))
      return finish(NoCompile);

  std::vector<uint8_t> All;
  size_t Ofs[2];
  for (unsigned V = 0; V != 2; ++V) {
    Ofs[V] = All.size();
    All.insert(All.end(), Codes[V].begin(), Codes[V].end());
  }
  const uint8_t *Base = Arena.publish(All.data(), All.size());
  if (!Base)
    return finish(NoCompile);

  SlowWords = CapWords[1];
  CompiledBlocks.store(
      std::min(Ctx.Plan->BlockOfs.size() - 1, Ctx.ActionBlocks.size()),
      std::memory_order_relaxed);
  CodeBytes.fetch_add(All.size(), std::memory_order_relaxed);
  // Release: a reader that sees any pointer sees the code bytes, the
  // protection flip and SlowWords.
  for (unsigned V = 0; V != 2; ++V)
    SlowFns[V].store(reinterpret_cast<JitSlowFn>(
                         reinterpret_cast<uintptr_t>(Base + Ofs[V])),
                     std::memory_order_release);
  finish(Published);
}
