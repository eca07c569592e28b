//===- JitCache.cpp - Per-plan code cache: slow step and trace shapes -----===//

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

  Ctx.BlockActions.reserve(Prog.Actions.Blocks.size());
  for (const ActionBlockInfo &B : Prog.Actions.Blocks)
    Ctx.BlockActions.push_back(B.ActionId);

  // The compared key words, in key order: every init global that is not
  // key-static (Simulation's chain fields).
  for (uint32_t G : Prog.InitGlobals) {
    if (Prog.KeyStatic[G])
      continue;
    const ir::GlobalVar &V = Prog.Globals[G];
    for (uint32_t W = 0, N = V.IsArray ? V.Size : 1; W != N; ++W)
      ChainWords.push_back({G, W, V.IsArray});
  }
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
      std::min(Ctx.Plan->BlockOfs.size() - 1, Ctx.BlockActions.size()),
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

//===----------------------------------------------------------------------===//
// Trace shapes
//===----------------------------------------------------------------------===//

uint64_t JitCache::shapeHash(const std::vector<TraceNodeDesc> &Nodes) {
  constexpr uint64_t Mul = 0x9E3779B97F4A7C15ull;
  uint64_t H = Nodes.size();
  for (const TraceNodeDesc &N : Nodes) {
    H = (H ^ (static_cast<uint32_t>(N.ActionId) |
              static_cast<uint64_t>(N.DataLen) << 32)) * Mul;
    H = (H ^ (N.Succ[0] | static_cast<uint64_t>(N.Succ[1]) << 32)) * Mul;
    H = (H ^ (N.Kind | static_cast<uint64_t>(N.BaseSide) << 8)) * Mul;
  }
  return H ^ (H >> 32);
}

const TraceShape *
JitCache::findLocked(const std::vector<TraceNodeDesc> &Nodes,
                     uint64_t Hash) const {
  auto [I, E] = ShapeMap.equal_range(Hash);
  for (; I != E; ++I)
    if (I->second->Nodes == Nodes)
      return I->second.get();
  return nullptr;
}

const TraceShape *JitCache::shape(const std::vector<TraceNodeDesc> &Nodes,
                                  uint64_t Hash, bool &Compiled) {
  Compiled = false;
  std::lock_guard<std::mutex> Lock(Mu);
  if (const TraceShape *S = findLocked(Nodes, Hash))
    return S;
  if (BudgetSpent.load(std::memory_order_relaxed))
    return nullptr;
  const uint32_t Link = linkBytesLocked();
  uint32_t BodyOfs = 0;
  if (!emitTrace(Ctx, Nodes, Link, EmitCode, EmitExits, BodyOfs))
    return nullptr;
  const TraceShape *S =
      addShapeLocked(Nodes, Hash, EmitExits, EmitCode, BodyOfs, Link);
  Compiled = S != nullptr;
  return S;
}

const TraceShape *JitCache::addShape(const std::vector<TraceNodeDesc> &Nodes,
                                     uint64_t Hash,
                                     const std::vector<TraceExitDesc> &Exits,
                                     const std::vector<uint8_t> &Code,
                                     uint32_t BodyOfs, uint32_t LinkBytes) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (const TraceShape *S = findLocked(Nodes, Hash))
    return S;
  return addShapeLocked(Nodes, Hash, Exits, Code, BodyOfs, LinkBytes);
}

uint32_t JitCache::linkBytesLocked() {
  if (ChainTried)
    return LinkBytes;
  ChainTried = true;
  std::vector<uint8_t> Code;
  if (!emitChainStub(ChainWords, TraceSlotStride, Code))
    return 0;
  const uint8_t *Stub = TraceArena.publish(Code.data(), Code.size());
  TraceBytes.store(TraceArena.mappedBytes(), std::memory_order_relaxed);
  if (!Stub)
    return 0;
  LinkBytes = static_cast<uint32_t>(sizeof(ChainLink) + 8 * ChainWords.size());
  ChainStub.store(Stub, std::memory_order_release);
  return LinkBytes;
}

const TraceShape *
JitCache::addShapeLocked(const std::vector<TraceNodeDesc> &Nodes,
                         uint64_t Hash,
                         const std::vector<TraceExitDesc> &Exits,
                         const std::vector<uint8_t> &Code, uint32_t BodyOfs,
                         uint32_t LinkBytes) {
  if (BudgetSpent.load(std::memory_order_relaxed) || BodyOfs >= Code.size())
    return nullptr;
  if (TraceArena.mappedBytesAfter(Code.size()) > MaxCodeBytes) {
    // The last chunk is full and the budget has no room for another: no
    // new shape compiles from here on, existing ones still bind.
    BudgetSpent.store(true, std::memory_order_relaxed);
    return nullptr;
  }
  const uint8_t *Exec = TraceArena.publish(Code.data(), Code.size());
  if (!Exec)
    return nullptr;
  TraceBytes.store(TraceArena.mappedBytes(), std::memory_order_relaxed);
  auto S = std::make_unique<TraceShape>();
  S->Fn = reinterpret_cast<JitTraceFn>(reinterpret_cast<uintptr_t>(Exec));
  S->Body = Exec + BodyOfs;
  S->LinkBytes = LinkBytes;
  S->Nodes = Nodes;
  S->Exits = Exits;
  const size_t Ends = static_cast<size_t>(
      std::count_if(Exits.begin(), Exits.end(),
                    [](const TraceExitDesc &X) { return X.IsEnd; }));
  S->Cells = static_cast<uint32_t>(Nodes.size() +
                                   Ends * LinkBytes / sizeof(TraceBind));
  // Descriptors come in DFS pre-order, so a parent precedes its children.
  S->Links.resize(Nodes.size());
  for (uint32_t D = 0; D != Nodes.size(); ++D)
    for (int V = 0; V != 2; ++V) {
      const uint32_t C = Nodes[D].Succ[V];
      if (C == TraceNoSucc || C >= Nodes.size())
        continue;
      S->Links[C] = {D, S->Links[D].Depth + 1,
                     Nodes[D].Kind == 1 ? static_cast<int64_t>(V) : 0};
    }
  const TraceShape *Out = S.get();
  ShapeMap.emplace(Hash, std::move(S));
  Shapes.fetch_add(1, std::memory_order_relaxed);
  return Out;
}
