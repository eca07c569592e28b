//===- JitCache.cpp - Per-plan compiled-action cache -----------------------===//

#include "src/jit/JitCache.h"

#include "src/facile/Ir.h"

#include <algorithm>
#include <cassert>
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

  NumActions = static_cast<uint32_t>(Plan.ActionOfs.size() - 1);
  GuardedFns = std::make_unique<std::atomic<JitFn>[]>(NumActions);
  UnguardedFns = std::make_unique<std::atomic<JitFn>[]>(NumActions);
  Visits = std::make_unique<std::atomic<uint32_t>[]>(NumActions);
  State = std::make_unique<std::atomic<uint8_t>[]>(NumActions);
  for (uint32_t A = 0; A != NumActions; ++A) {
    GuardedFns[A].store(nullptr, std::memory_order_relaxed);
    UnguardedFns[A].store(nullptr, std::memory_order_relaxed);
    Visits[A].store(0, std::memory_order_relaxed);
    State[A].store(Cold, std::memory_order_relaxed);
  }
  Words.assign(NumActions, 0);

  Ctx.ActionBlocks.reserve(Prog.Actions.Blocks.size());
  for (const ActionBlockInfo &B : Prog.Actions.Blocks)
    Ctx.ActionBlocks.push_back(B.ActionId != ActionBlockInfo::NoAction);
}

void JitCache::noteVisit(uint32_t Action, uint32_t Threshold) {
  if (Action >= NumActions ||
      State[Action].load(std::memory_order_relaxed) != Cold)
    return;
  uint32_t Seen = Visits[Action].fetch_add(1, std::memory_order_relaxed) + 1;
  if (Seen < Threshold)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  if (State[Action].load(std::memory_order_relaxed) == Cold)
    compileLocked(Action);
}

void JitCache::compileLocked(uint32_t Action) {
  std::vector<uint8_t> GCode, UCode;
  uint32_t GWords = 0, UWords = 0;
  if (!emitAction(Ctx, Action, /*Guarded=*/true, GCode, GWords) ||
      !emitAction(Ctx, Action, /*Guarded=*/false, UCode, UWords)) {
    State[Action].store(NoCompile, std::memory_order_relaxed);
    return;
  }
  assert(GWords == UWords && "guard variants must agree on span layout");

  // Both variants share one page-rounded W^X chunk, published together.
  std::vector<uint8_t> Both = GCode;
  Both.insert(Both.end(), UCode.begin(), UCode.end());
  const uint8_t *Base = Arena.publish(Both.data(), Both.size());
  if (!Base) {
    State[Action].store(NoCompile, std::memory_order_relaxed);
    return;
  }

  Words[Action] = GWords;
  Compiled.fetch_add(1, std::memory_order_relaxed);
  CodeBytes.fetch_add(Both.size(), std::memory_order_relaxed);
  // Release: a reader that sees either pointer sees the code bytes, the
  // protection flip and Words[Action].
  UnguardedFns[Action].store(
      reinterpret_cast<JitFn>(
          reinterpret_cast<uintptr_t>(Base + GCode.size())),
      std::memory_order_release);
  GuardedFns[Action].store(
      reinterpret_cast<JitFn>(reinterpret_cast<uintptr_t>(Base)),
      std::memory_order_release);
  State[Action].store(Published, std::memory_order_relaxed);
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
  // All four variants or none: a stream that compiles in one shape
  // compiles in every other (the templates differ only inside Fetch and
  // the capture stores), and publishing a partial set would let one
  // session's shape diverge.
  std::vector<uint8_t> Codes[4];
  uint32_t CapWords[4] = {0, 0, 0, 0};
  for (unsigned V = 0; V != 4; ++V)
    if (!emitSlowStep(Ctx, /*Guarded=*/(V & 2) != 0,
                      /*Recording=*/(V & 1) != 0, Codes[V], CapWords[V]))
      return finish(NoCompile);
  assert(CapWords[1] == CapWords[3] &&
         "guard variants must agree on capture layout");

  std::vector<uint8_t> All;
  size_t Ofs[4];
  for (unsigned V = 0; V != 4; ++V) {
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
  for (unsigned V = 0; V != 4; ++V)
    SlowFns[V].store(reinterpret_cast<JitSlowFn>(
                         reinterpret_cast<uintptr_t>(Base + Ofs[V])),
                     std::memory_order_release);
  finish(Published);
}
