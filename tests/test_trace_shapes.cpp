//===- test_trace_shapes.cpp - Shared trace shapes, per-entry bindings ----===//
//
// Entry traces compile once per tree shape — the DFS sequence of action
// ids, node kinds, span lengths, pool sides and successor slots — and bind
// per entry through a table of node ids and span offsets. These tests run
// the JIT at threshold 1, so every replayed entry binds on its first
// replay, and hold every step to a memo-off run of the same program:
// entries share shapes; a side exit out of a shared shape hands recovery
// the prefix an interpreted walk builds; a corrupted node is never bound
// even when its shape is compiled; and after an eviction the same shapes
// re-bind without compiling while no stale binding runs.
//
//===----------------------------------------------------------------------===//

#include "src/isa/Assembler.h"
#include "src/jit/JitEmitter.h"
#include "src/sims/SimHarness.h"
#include "src/support/Hashing.h"
#include "src/support/JsonValue.h"
#include "src/workload/Workloads.h"

#include <gtest/gtest.h>

using namespace facile;
using namespace facile::sims;

namespace {

/// A tight counted loop: the OOO pipeline settles into a short cycle of
/// keys whose entries share a handful of tree shapes.
isa::TargetImage loopImage() {
  return *isa::assemble("main:\n li r1, 0\n li r2, 100000000\n"
                        "loop:\n addi r1, r1, 1\n addi r3, r3, 3\n"
                        " add r4, r4, r3\n bne r1, r2, loop\n halt\n");
}

/// A branchy program: replays keep missing into recovery.
isa::TargetImage branchyImage() {
  workload::WorkloadSpec S = *workload::findSpec("gcc");
  S.DataKWords = 2;
  S.NumKernels = 4;
  return workload::generate(S, 1u << 30);
}

rt::Simulation::Options options(rt::BackendKind Backend, bool Memo = true) {
  rt::Simulation::Options O;
  O.Backend = Backend;
  O.JitThreshold = 1;
  O.Memoize = Memo;
  return O;
}

uint64_t jitCounter(const FacileSim &Sim, const char *Name) {
  json::Value Stats;
  std::string Err;
  EXPECT_TRUE(json::parse(Sim.statsJson(), Stats, Err)) << Err;
  const json::Value *Jit = Stats.get("jit");
  const json::Value *V = Jit ? Jit->get(Name) : nullptr;
  return V ? static_cast<uint64_t>(V->intOr(0)) : 0;
}

/// Digest of what the cache recorded: data pool, seals and key pool.
uint64_t cacheDigest(const FacileSim &Sim) {
  const rt::ActionCache::FlatImage Flat = Sim.sim().cache().compactImage();
  uint64_t H = hashBytes(Flat.Data.data(), Flat.Data.size() * sizeof(int64_t));
  H = hashBytes(Flat.Seals.data(), Flat.Seals.size() * sizeof(uint64_t), H);
  return hashBytes(Flat.KeyPool.data(), Flat.KeyPool.size(), H);
}

/// Steps every simulation in \p Sims once, \p Steps times. Sims[0] is the
/// JIT run, the last one the memo-off reference; every step must retire
/// the same instructions and cycles in all of them. Memoized runs are also
/// held to each other's engine choice and step accounting.
void lockstep(std::vector<FacileSim *> Sims, unsigned Steps) {
  FacileSim &Ref = *Sims.back();
  for (unsigned I = 0; I != Steps && !Ref.sim().halted(); ++I) {
    const rt::StepEngine E = Sims[0]->sim().step();
    for (size_t K = 1; K != Sims.size(); ++K) {
      const rt::StepEngine EK = Sims[K]->sim().step();
      if (K + 1 != Sims.size()) {
        ASSERT_EQ(EK, E) << "step " << I;
      }
    }
    for (FacileSim *S : Sims) {
      ASSERT_FALSE(S->faulted()) << "step " << I << ": " << S->fault().Detail;
      ASSERT_EQ(S->sim().stats().RetiredTotal, Ref.sim().stats().RetiredTotal)
          << "step " << I;
      ASSERT_EQ(S->sim().stats().Cycles, Ref.sim().stats().Cycles)
          << "step " << I;
      ASSERT_EQ(S->sim().halted(), Ref.sim().halted()) << "step " << I;
    }
    for (size_t K = 1; K + 1 < Sims.size(); ++K) {
      const rt::Simulation::Stats &A = Sims[0]->sim().stats();
      const rt::Simulation::Stats &B = Sims[K]->sim().stats();
      ASSERT_EQ(A.FastSteps, B.FastSteps) << "step " << I;
      ASSERT_EQ(A.Misses, B.Misses) << "step " << I;
      ASSERT_EQ(A.CorruptDropped, B.CorruptDropped) << "step " << I;
    }
  }
  for (FacileSim *S : Sims)
    ASSERT_EQ(S->sim().memory().digest(), Ref.sim().memory().digest());
}

} // namespace

TEST(TraceShapes, EntriesShareCompiledShapes) {
  if (!jit::available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  const isa::TargetImage Image = loopImage();
  FacileSim Jit(SimKind::OutOfOrder, Image,
                options(rt::BackendKind::Jit));
  FacileSim Ref(SimKind::OutOfOrder, Image,
                options(rt::BackendKind::Interpret, false));
  lockstep({&Jit, &Ref}, 30'000);
  if (HasFatalFailure())
    return;
  const uint64_t Shapes = jitCounter(Jit, "compiled_traces");
  const uint64_t Bindings = jitCounter(Jit, "trace_bindings");
  EXPECT_GT(Shapes, 0u);
  // Nothing moved the epoch or rebuilt the cache, and a grown entry
  // re-binds to a larger tree: more bindings than shapes means entries
  // share shapes. Most do.
  EXPECT_GT(Bindings, 2 * Shapes);
  EXPECT_GT(2 * jitCounter(Jit, "trace_steps"), Jit.sim().stats().FastSteps);
}

TEST(TraceShapes, SideExitHandsRecoveryTheInterpretedPrefix) {
  if (!jit::available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  const isa::TargetImage Image = branchyImage();
  FacileSim Jit(SimKind::OutOfOrder, Image,
                options(rt::BackendKind::Jit));
  FacileSim Interp(SimKind::OutOfOrder, Image,
                   options(rt::BackendKind::Interpret));
  FacileSim Ref(SimKind::OutOfOrder, Image,
                options(rt::BackendKind::Interpret, false));
  lockstep({&Jit, &Interp, &Ref}, 20'000);
  if (HasFatalFailure())
    return;
  // Recovery from every side exit recorded exactly what recovery from
  // the interpreted walk recorded.
  EXPECT_EQ(Jit.sim().cache().nodeCount(), Interp.sim().cache().nodeCount());
  EXPECT_EQ(cacheDigest(Jit), cacheDigest(Interp));
  EXPECT_GT(Jit.sim().stats().Misses, 0u);
  EXPECT_GT(jitCounter(Jit, "trace_side_exits"), 0u);
  EXPECT_GT(jitCounter(Jit, "trace_bindings"),
            jitCounter(Jit, "compiled_traces"));
}

TEST(TraceShapes, CorruptNodeOfCompiledShapeIsNeverBound) {
  if (!jit::available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  const isa::TargetImage Image = loopImage();
  FacileSim Jit(SimKind::OutOfOrder, Image,
                options(rt::BackendKind::Jit));
  FacileSim Interp(SimKind::OutOfOrder, Image,
                   options(rt::BackendKind::Interpret));
  FacileSim Ref(SimKind::OutOfOrder, Image,
                options(rt::BackendKind::Interpret, false));
  lockstep({&Jit, &Interp, &Ref}, 20'000);
  if (HasFatalFailure())
    return;
  // Step until one step ran as a single trace call: the entry it
  // replayed — the most recently used — is bound, so its shape is
  // compiled.
  bool Traced = false;
  for (unsigned I = 0; I != 100 && !Traced; ++I) {
    const uint64_t Before = jitCounter(Jit, "trace_steps");
    lockstep({&Jit, &Interp, &Ref}, 1);
    if (HasFatalFailure())
      return;
    Traced = jitCounter(Jit, "trace_steps") != Before;
  }
  ASSERT_TRUE(Traced);
  const rt::ActionCache &C = Jit.sim().cache();
  ASSERT_GT(C.entryCount(), 0u);
  rt::EntryId Hot = 0;
  for (rt::EntryId E = 1; E != C.entryCount(); ++E)
    if (C.entry(E).LastUse > C.entry(Hot).LastUse)
      Hot = E;
  const uint32_t Head = C.entry(Hot).Head;
  ASSERT_NE(Head, rt::ActionNode::NoNode);
  ASSERT_EQ(Interp.sim().cache().entry(Hot).Head, Head);

  // Flip the head node's seal in both memoized runs. The epoch moves, so
  // every binding re-walks; the walk refuses the corrupted entry
  // although its shape is compiled, and the interpreter absorbs the
  // step — in both runs alike.
  Jit.sim().mutableCache().mutableSeals()[Head] ^= 1;
  Interp.sim().mutableCache().mutableSeals()[Head] ^= 1;
  const uint64_t Shapes = jitCounter(Jit, "compiled_traces");
  const uint64_t Bindings = jitCounter(Jit, "trace_bindings");
  lockstep({&Jit, &Interp, &Ref}, 5'000);
  if (HasFatalFailure())
    return;
  EXPECT_GT(Jit.sim().stats().CorruptDropped, 0u);
  // The other entries re-bound to shapes compiled before the flip.
  EXPECT_GT(jitCounter(Jit, "trace_bindings"),
            Bindings + jitCounter(Jit, "compiled_traces") - Shapes);
}

TEST(TraceShapes, EvictionRebindsShapesWithoutRecompiling) {
  if (!jit::available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  const isa::TargetImage Image = loopImage();
  FacileSim Jit(SimKind::OutOfOrder, Image,
                options(rt::BackendKind::Jit));
  FacileSim Ref(SimKind::OutOfOrder, Image,
                options(rt::BackendKind::Interpret, false));
  lockstep({&Jit, &Ref}, 30'000);
  if (HasFatalFailure())
    return;
  const uint64_t Shapes = jitCounter(Jit, "compiled_traces");
  const uint64_t Bindings = jitCounter(Jit, "trace_bindings");
  const uint64_t Traced = jitCounter(Jit, "trace_steps");
  ASSERT_GT(Shapes, 0u);

  // Every node id a binding named is gone. Recording starts over; the
  // re-recorded entries bind to the shapes already compiled, and every
  // step still matches the memo-off run, so no stale binding ran.
  Jit.sim().evictCacheNow();
  ASSERT_EQ(Jit.sim().cache().entryCount(), 0u);
  lockstep({&Jit, &Ref}, 30'000);
  if (HasFatalFailure())
    return;
  EXPECT_EQ(jitCounter(Jit, "compiled_traces"), Shapes);
  EXPECT_GT(jitCounter(Jit, "trace_bindings"), Bindings);
  EXPECT_GT(jitCounter(Jit, "trace_steps"), Traced);
}
