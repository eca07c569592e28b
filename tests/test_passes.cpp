//===- test_passes.cpp - IR optimization pass unit and property tests --------===//
//
// Per-pass unit tests over hand-built CFGs (constant folding, copy
// propagation, dead-code elimination, CFG simplification), verifier
// negative tests, and a randomized property test: for generated Facile
// programs, the optimized and unoptimized compiles must agree on every
// observable (globals, memory digest, halt) after every single step, with
// memoization exercised on the optimized side.
//
//===----------------------------------------------------------------------===//

#include "src/facile/Compiler.h"
#include "src/facile/Parser.h"
#include "src/facile/Passes.h"
#include "src/isa/Assembler.h"
#include "src/runtime/Simulation.h"
#include "src/sims/SimHarness.h"
#include "src/support/Hashing.h"
#include "src/support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

using namespace facile;
using namespace facile::ir;

namespace {

//===----------------------------------------------------------------------===//
// Hand-built IR helpers
//===----------------------------------------------------------------------===//

Inst iConst(SlotId D, int64_t V) {
  Inst I;
  I.Opcode = Op::Const;
  I.Dst = D;
  I.Imm = V;
  return I;
}

Inst iCopy(SlotId D, SlotId A) {
  Inst I;
  I.Opcode = Op::Copy;
  I.Dst = D;
  I.A = A;
  return I;
}

Inst iBin(SlotId D, ast::BinOp O, SlotId A, SlotId B) {
  Inst I;
  I.Opcode = Op::Bin;
  I.Dst = D;
  I.A = A;
  I.B = B;
  I.BinKind = O;
  return I;
}

Inst iStoreGlobal(uint32_t Id, SlotId A) {
  Inst I;
  I.Opcode = Op::StoreGlobal;
  I.Id = Id;
  I.A = A;
  return I;
}

Inst iJump(uint32_t T) {
  Inst I;
  I.Opcode = Op::Jump;
  I.Target = T;
  return I;
}

Inst iBranch(SlotId A, uint32_t T, uint32_t F) {
  Inst I;
  I.Opcode = Op::Branch;
  I.A = A;
  I.Target = T;
  I.Target2 = F;
  return I;
}

Inst iRet() {
  Inst I;
  I.Opcode = Op::Ret;
  return I;
}

StepFunction makeFunction(std::vector<std::vector<Inst>> Blocks,
                          uint32_t NumSlots) {
  StepFunction F;
  F.NumSlots = NumSlots;
  for (std::vector<Inst> &B : Blocks) {
    F.Blocks.emplace_back();
    F.Blocks.back().Insts = std::move(B);
  }
  return F;
}

std::vector<GlobalVar> oneScalarGlobal() {
  GlobalVar G;
  G.Name = "g";
  return {G};
}

unsigned countInsts(const StepFunction &F) {
  unsigned N = 0;
  for (const Block &B : F.Blocks)
    N += static_cast<unsigned>(B.Insts.size());
  return N;
}

void expectVerifies(const StepFunction &F) {
  std::string E = verifyStepFunction(F, oneScalarGlobal(), {});
  EXPECT_TRUE(E.empty()) << E;
}

} // namespace

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

TEST(FoldConstants, BinOfConstantsBecomesConst) {
  // s2 = 2 + 3 must fold to s2 = 5; the copy of a constant folds too.
  StepFunction F = makeFunction(
      {{iConst(0, 2), iConst(1, 3), iBin(2, ast::BinOp::Add, 0, 1),
        iCopy(3, 2), iStoreGlobal(0, 3), iRet()}},
      4);
  PassPipelineStats Stats;
  EXPECT_GT(foldConstants(F, Stats), 0u);
  expectVerifies(F);
  const Inst &Folded = F.Blocks[0].Insts[2];
  EXPECT_EQ(Folded.Opcode, Op::Const);
  EXPECT_EQ(Folded.Imm, 5);
  const Inst &CopyFolded = F.Blocks[0].Insts[3];
  EXPECT_EQ(CopyFolded.Opcode, Op::Const);
  EXPECT_EQ(CopyFolded.Imm, 5);
  EXPECT_EQ(Stats.Folded, 2u);
}

TEST(FoldConstants, RedefinitionKillsConstness) {
  // s0 is overwritten with an unknown value (a global load) before the
  // add: folding the add would be wrong.
  Inst Load;
  Load.Opcode = Op::LoadGlobal;
  Load.Dst = 0;
  Load.Id = 0;
  StepFunction F = makeFunction(
      {{iConst(0, 2), Load, iBin(1, ast::BinOp::Add, 0, 0),
        iStoreGlobal(0, 1), iRet()}},
      2);
  PassPipelineStats Stats;
  foldConstants(F, Stats);
  EXPECT_EQ(F.Blocks[0].Insts[2].Opcode, Op::Bin);
}

TEST(FoldConstants, BranchOnConstantBecomesJump) {
  StepFunction F = makeFunction({{iConst(0, 1), iBranch(0, 1, 2)},
                                 {iConst(1, 7), iStoreGlobal(0, 1), iJump(3)},
                                 {iConst(1, 9), iStoreGlobal(0, 1), iJump(3)},
                                 {iRet()}},
                                2);
  PassPipelineStats Stats;
  EXPECT_GT(foldConstants(F, Stats), 0u);
  expectVerifies(F);
  const Inst &T = F.Blocks[0].terminator();
  EXPECT_EQ(T.Opcode, Op::Jump);
  EXPECT_EQ(T.Target, 1u); // condition was 1 -> true arm
  EXPECT_EQ(Stats.BranchesFolded, 1u);
}

TEST(FoldConstants, MatchesRuntimeSemantics) {
  // Division by zero folds to 0 and remainder by zero to A — the same
  // values the engines compute (shared ir::evalBin).
  EXPECT_EQ(evalBin(ast::BinOp::Div, 7, 0), 0);
  EXPECT_EQ(evalBin(ast::BinOp::Rem, 7, 0), 7);
  EXPECT_EQ(evalBin(ast::BinOp::Shr, -1, 1), INT64_MAX);
  EXPECT_EQ(evalUn(UnKind::Sext, 0x80, 8), -128);
  EXPECT_EQ(evalUn(UnKind::Zext, -1, 8), 255);
}

//===----------------------------------------------------------------------===//
// Copy propagation
//===----------------------------------------------------------------------===//

TEST(PropagateCopies, UsesRedirectedPastCopy) {
  Inst Load;
  Load.Opcode = Op::LoadGlobal;
  Load.Dst = 0;
  Load.Id = 0;
  StepFunction F = makeFunction(
      {{Load, iCopy(1, 0), iBin(2, ast::BinOp::Add, 1, 1),
        iStoreGlobal(0, 2), iRet()}},
      3);
  PassPipelineStats Stats;
  EXPECT_GT(propagateCopies(F, Stats), 0u);
  expectVerifies(F);
  EXPECT_EQ(F.Blocks[0].Insts[2].A, 0u);
  EXPECT_EQ(F.Blocks[0].Insts[2].B, 0u);
  EXPECT_EQ(Stats.CopiesPropagated, 2u);
}

TEST(PropagateCopies, RedefinitionOfSourceKillsAlias) {
  // s1 = copy s0; s0 = 9; g = s1  -- the store must keep using s1.
  Inst Load;
  Load.Opcode = Op::LoadGlobal;
  Load.Dst = 0;
  Load.Id = 0;
  StepFunction F = makeFunction(
      {{Load, iCopy(1, 0), iConst(0, 9), iStoreGlobal(0, 1), iRet()}}, 2);
  PassPipelineStats Stats;
  propagateCopies(F, Stats);
  expectVerifies(F);
  EXPECT_EQ(F.Blocks[0].Insts[3].A, 1u);
}

TEST(PropagateCopies, CopyChainsResolveToRoot) {
  Inst Load;
  Load.Opcode = Op::LoadGlobal;
  Load.Dst = 0;
  Load.Id = 0;
  StepFunction F = makeFunction(
      {{Load, iCopy(1, 0), iCopy(2, 1), iStoreGlobal(0, 2), iRet()}}, 3);
  PassPipelineStats Stats;
  propagateCopies(F, Stats);
  EXPECT_EQ(F.Blocks[0].Insts[2].A, 0u); // s2 = copy s0, not s1
  EXPECT_EQ(F.Blocks[0].Insts[3].A, 0u); // store reads the root
}

//===----------------------------------------------------------------------===//
// Dead code elimination
//===----------------------------------------------------------------------===//

TEST(EliminateDeadCode, RemovesDeadChainsKeepsStores) {
  // s0/s1/s2 feed only each other; the store's operand s3 must survive.
  StepFunction F = makeFunction(
      {{iConst(0, 1), iCopy(1, 0), iBin(2, ast::BinOp::Add, 0, 1),
        iConst(3, 42), iStoreGlobal(0, 3), iRet()}},
      4);
  PassPipelineStats Stats;
  EXPECT_EQ(eliminateDeadCode(F, Stats), 3u);
  expectVerifies(F);
  ASSERT_EQ(F.Blocks[0].Insts.size(), 3u);
  EXPECT_EQ(F.Blocks[0].Insts[0].Opcode, Op::Const);
  EXPECT_EQ(F.Blocks[0].Insts[0].Imm, 42);
  EXPECT_EQ(F.Blocks[0].Insts[1].Opcode, Op::StoreGlobal);
}

TEST(EliminateDeadCode, LivenessFlowsAcrossBlocks) {
  // s0 defined in block 0, used in block 2: must stay live through the
  // branch diamond.
  StepFunction F = makeFunction(
      {{iConst(0, 5), iConst(1, 1), iBranch(1, 1, 2)},
       {iJump(3)},
       {iJump(3)},
       {iStoreGlobal(0, 0), iRet()}},
      2);
  PassPipelineStats Stats;
  eliminateDeadCode(F, Stats);
  expectVerifies(F);
  EXPECT_EQ(F.Blocks[0].Insts[0].Opcode, Op::Const); // s0 survives
  EXPECT_EQ(F.Blocks[0].Insts.size(), 3u);
}

TEST(EliminateDeadCode, LoopCarriedValueStaysLive) {
  // s0 is used by the backedge block after being read, so it is live
  // around the loop; the dead s1 inside the loop body goes away.
  Inst Load;
  Load.Opcode = Op::LoadGlobal;
  Load.Dst = 1;
  Load.Id = 0;
  StepFunction F = makeFunction(
      {{iConst(0, 3), iJump(1)},
       {Load, iStoreGlobal(0, 0), iBranch(0, 1, 2)},
       {iRet()}},
      2);
  PassPipelineStats Stats;
  eliminateDeadCode(F, Stats);
  expectVerifies(F);
  // The load's result is dead but the load is of a global: pure -> gone.
  EXPECT_EQ(F.Blocks[1].Insts.size(), 2u);
  EXPECT_EQ(F.Blocks[0].Insts.size(), 2u); // s0 live around the loop
}

//===----------------------------------------------------------------------===//
// CFG simplification
//===----------------------------------------------------------------------===//

TEST(SimplifyCfg, ThreadsJumpChainsAndDropsEmptyBlocks) {
  // b0 -> b1 -> b2 -> b3(Ret); b1/b2 are trivial forwarders.
  StepFunction F = makeFunction(
      {{iConst(0, 1), iStoreGlobal(0, 0), iJump(1)},
       {iJump(2)},
       {iJump(3)},
       {iRet()}},
      1);
  PassPipelineStats Stats;
  EXPECT_GT(simplifyCfg(F, Stats), 0u);
  expectVerifies(F);
  EXPECT_GT(Stats.JumpsThreaded, 0u);
  // After threading + merging, everything collapses into entry + ret (or
  // a single block once merged).
  EXPECT_LE(F.Blocks.size(), 2u);
  unsigned Rets = 0;
  for (const Block &B : F.Blocks)
    if (B.terminator().Opcode == Op::Ret)
      ++Rets;
  EXPECT_EQ(Rets, 1u);
}

TEST(SimplifyCfg, MergesSingleRefJumpSuccessor) {
  StepFunction F = makeFunction(
      {{iConst(0, 1), iJump(1)}, {iStoreGlobal(0, 0), iJump(2)}, {iRet()}},
      1);
  PassPipelineStats Stats;
  simplifyCfg(F, Stats);
  expectVerifies(F);
  EXPECT_EQ(F.Blocks.size(), 1u);
  EXPECT_EQ(countInsts(F), 3u); // const, store, ret
}

TEST(SimplifyCfg, KeepsBothArmsOfRealBranches) {
  Inst Load;
  Load.Opcode = Op::LoadGlobal;
  Load.Dst = 0;
  Load.Id = 0;
  StepFunction F = makeFunction({{Load, iBranch(0, 1, 2)},
                                 {iConst(1, 1), iStoreGlobal(0, 1), iJump(3)},
                                 {iConst(1, 2), iStoreGlobal(0, 1), iJump(3)},
                                 {iRet()}},
                                2);
  PassPipelineStats Stats;
  simplifyCfg(F, Stats);
  expectVerifies(F);
  EXPECT_EQ(F.Blocks.size(), 4u); // diamond is irreducible by merging
}

TEST(SimplifyCfg, RemovesUnreachableBlocksButKeepsRet) {
  // Block 2 is unreachable junk; block 3 is the (reachable) Ret.
  StepFunction F = makeFunction(
      {{iConst(0, 1), iJump(1)},
       {iStoreGlobal(0, 0), iJump(3)},
       {iConst(0, 9), iJump(2)}, // unreachable self-loop-ish junk
       {iRet()}},
      1);
  PassPipelineStats Stats;
  simplifyCfg(F, Stats);
  expectVerifies(F);
  EXPECT_GT(Stats.BlocksRemoved, 0u);
  for (const Block &B : F.Blocks)
    for (const Inst &I : B.Insts)
      EXPECT_NE(I.Imm, 9) << "unreachable block survived";
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

TEST(Verifier, AcceptsWellFormed) {
  StepFunction F = makeFunction(
      {{iConst(0, 1), iStoreGlobal(0, 0), iRet()}}, 1);
  expectVerifies(F);
}

TEST(Verifier, RejectsMidBlockTerminator) {
  StepFunction F =
      makeFunction({{iConst(0, 1), iRet(), iStoreGlobal(0, 0)}}, 1);
  EXPECT_FALSE(verifyStepFunction(F, oneScalarGlobal(), {}).empty());
}

TEST(Verifier, RejectsMissingOrDoubledRet) {
  StepFunction F1 = makeFunction({{iConst(0, 1), iJump(0)}}, 1);
  EXPECT_FALSE(verifyStepFunction(F1, oneScalarGlobal(), {}).empty());
  StepFunction F2 = makeFunction({{iRet()}, {iRet()}}, 0);
  EXPECT_FALSE(verifyStepFunction(F2, oneScalarGlobal(), {}).empty());
}

TEST(Verifier, RejectsOutOfRangeTargetAndSlot) {
  StepFunction F1 = makeFunction({{iJump(7)}}, 0);
  EXPECT_FALSE(verifyStepFunction(F1, oneScalarGlobal(), {}).empty());
  StepFunction F2 = makeFunction({{iConst(5, 1), iRet()}}, 1);
  EXPECT_FALSE(verifyStepFunction(F2, oneScalarGlobal(), {}).empty());
}

TEST(Verifier, RejectsReadBeforeAssignment) {
  // s0 is only assigned on the true arm but read after the join.
  Inst Load;
  Load.Opcode = Op::LoadGlobal;
  Load.Dst = 1;
  Load.Id = 0;
  StepFunction F = makeFunction({{Load, iBranch(1, 1, 2)},
                                 {iConst(0, 1), iJump(3)},
                                 {iJump(3)},
                                 {iStoreGlobal(0, 0), iRet()}},
                                2);
  std::string E = verifyStepFunction(F, oneScalarGlobal(), {});
  EXPECT_NE(E.find("read before assignment"), std::string::npos) << E;
}

//===----------------------------------------------------------------------===//
// Slot dataflows at 64-bit word boundaries
//===----------------------------------------------------------------------===//

namespace {

/// Slot counts that end a bit row inside, exactly at and just past a
/// 64-bit word, plus one row of three words.
constexpr uint32_t BoundarySlotCounts[] = {63, 64, 65, 129};

/// Slots in [2, NumSlots) at or next to a word boundary, and the last one.
/// Slot 1 is reserved for the loop / branch condition.
std::vector<SlotId> boundarySlots(uint32_t NumSlots) {
  std::vector<SlotId> Out;
  for (SlotId S : {63u, 64u, 127u, 128u, NumSlots - 1})
    if (S < NumSlots && std::find(Out.begin(), Out.end(), S) == Out.end())
      Out.push_back(S);
  return Out;
}

Inst iLoadGlobal(SlotId D) {
  Inst I;
  I.Opcode = Op::LoadGlobal;
  I.Dst = D;
  I.Id = 0;
  return I;
}

} // namespace

TEST(SlotDataflow, ReadBeforeAssignOnOneArmAtWordBoundaries) {
  for (uint32_t N : BoundarySlotCounts)
    for (SlotId X : boundarySlots(N))
      for (bool AssignOnTrueArm : {true, false}) {
        SCOPED_TRACE(strFormat("NumSlots %u, slot s%u, %s arm", N, X,
                               AssignOnTrueArm ? "true" : "false"));
        std::vector<Inst> Assigns = {iConst(X, 1), iJump(3)};
        std::vector<Inst> Skips = {iJump(3)};
        StepFunction F = makeFunction(
            {{iLoadGlobal(1), iBranch(1, 1, 2)},
             AssignOnTrueArm ? Assigns : Skips,
             AssignOnTrueArm ? Skips : Assigns,
             {iStoreGlobal(0, X), iRet()}},
            N);
        EXPECT_EQ(verifyStepFunction(F, oneScalarGlobal(), {}),
                  strFormat("b3[0]: slot s%u read before assignment", X));
        // Assigned on both arms, the same read is well-formed.
        F.Blocks[AssignOnTrueArm ? 2 : 1].Insts = {iConst(X, 2), iJump(3)};
        expectVerifies(F);
      }
}

TEST(SlotDataflow, LoopCarriedValueAtWordBoundarySurvivesDce) {
  // sX is read at the loop head and redefined at the loop's tail: only the
  // back-edge keeps the redefinition live.
  for (uint32_t N : BoundarySlotCounts)
    for (SlotId X : boundarySlots(N)) {
      SCOPED_TRACE(strFormat("NumSlots %u, slot s%u", N, X));
      StepFunction F = makeFunction(
          {{iConst(X, 3), iJump(1)},
           {iStoreGlobal(0, X), iLoadGlobal(1),
            iBin(X, ast::BinOp::Add, X, 1), iBranch(1, 1, 2)},
           {iRet()}},
          N);
      PassPipelineStats Stats;
      EXPECT_EQ(eliminateDeadCode(F, Stats), 0u);
      expectVerifies(F);
      EXPECT_EQ(F.Blocks[0].Insts.size(), 2u);
      ASSERT_EQ(F.Blocks[1].Insts.size(), 4u);
      EXPECT_EQ(F.Blocks[1].Insts[2].Opcode, Op::Bin);
    }
}

TEST(SlotDataflow, DeadPureChainAboveWordZeroIsRemoved) {
  // A chain through every boundary slot that feeds nothing; the store's
  // operand s1 stays. The chain crosses a block edge so its head is only
  // dead once the tail is gone: the second DCE call removes it.
  for (uint32_t N : BoundarySlotCounts) {
    SCOPED_TRACE(strFormat("NumSlots %u", N));
    std::vector<SlotId> Chain;
    for (SlotId S : boundarySlots(N))
      if (S >= 64)
        Chain.push_back(S);
    if (Chain.empty())
      continue; // 63 and 64 slots have no slot >= 64
    std::vector<Inst> Tail;
    for (size_t K = 1; K != Chain.size(); ++K)
      Tail.push_back(iBin(Chain[K], ast::BinOp::Add, Chain[K - 1],
                          Chain[K - 1]));
    Tail.push_back(iCopy(Chain.back(), Chain.back()));
    Tail.push_back(iConst(1, 42));
    Tail.push_back(iStoreGlobal(0, 1));
    Tail.push_back(iRet());
    StepFunction F = makeFunction({{iConst(Chain[0], 7), iJump(1)}, Tail}, N);
    PassPipelineStats Stats;
    EXPECT_EQ(eliminateDeadCode(F, Stats), Chain.size());
    EXPECT_EQ(eliminateDeadCode(F, Stats), 1u);
    EXPECT_EQ(eliminateDeadCode(F, Stats), 0u);
    expectVerifies(F);
    EXPECT_EQ(Stats.DeadRemoved, Chain.size() + 1);
    EXPECT_EQ(countInsts(F), 4u); // jump, const, store, ret
  }
}

TEST(Verifier, TerminatesOnASlotlessCycle) {
  // With no slots every assigned-set row is empty, so an empty row cannot
  // mark a block as not yet visited: the cycle must still converge.
  StepFunction F = makeFunction({{iJump(1)}, {iJump(0)}, {iRet()}}, 0);
  expectVerifies(F);
}

TEST(Verifier, RejectsBuiltinArityMismatch) {
  Inst Call;
  Call.Opcode = Op::CallBuiltin;
  Call.Imm = static_cast<int64_t>(Builtin::MemLd); // arity 1
  Call.Dst = 0;
  StepFunction F = makeFunction({{Call, iRet()}}, 1);
  EXPECT_FALSE(verifyStepFunction(F, oneScalarGlobal(), {}).empty());
}

//===----------------------------------------------------------------------===//
// Whole pipeline on compiled programs
//===----------------------------------------------------------------------===//

namespace {

CompiledProgram compileWith(const std::string &Source, bool RunPasses) {
  DiagnosticEngine Diag;
  CompileOptions Opts;
  Opts.RunPasses = RunPasses;
  auto P = compileFacile(Source, Diag, Opts);
  EXPECT_TRUE(P.has_value()) << Diag.str();
  if (!P)
    std::abort();
  return std::move(*P);
}

isa::TargetImage emptyImage() { return *isa::assemble("main:\n halt\n"); }

/// Front half of the compiler only: lowered, pre-BTA IR (no Sync ops yet),
/// the representation the passes actually run on.
LoweredProgram lowerOnly(const std::string &Source) {
  DiagnosticEngine Diag;
  std::optional<ast::Program> P = parseFacile(Source, Diag);
  EXPECT_TRUE(P.has_value()) << Diag.str();
  std::optional<SemaResult> S = analyzeFacile(*P, Diag);
  EXPECT_TRUE(S.has_value()) << Diag.str();
  std::optional<LoweredProgram> LP = lowerFacile(*P, *S, Diag);
  EXPECT_TRUE(LP.has_value()) << Diag.str();
  if (!LP)
    std::abort();
  return std::move(*LP);
}

} // namespace

TEST(PassPipeline, ShrinksLoweredProgramsAndVerifies) {
  CompiledProgram P = compileWith(R"(
    init val pc = 0;
    fun addmul(x, y) { return x * y + x; }
    fun main() {
      val a = addmul(2, 3);   // fully constant: folds to 8
      val b = mem_ld(2097152 + pc * 4);
      if (a > 4) { mem_st(2097600, b + a); } else { mem_st(2097600, 0 - b); }
      pc = (pc + 1) % 8;
    }
  )",
                                  /*RunPasses=*/true);
  EXPECT_GT(P.Passes.InstsBefore, P.Passes.InstsAfter);
  EXPECT_GE(P.Passes.BlocksBefore, P.Passes.BlocksAfter);
  EXPECT_GT(P.Passes.Folded, 0u);
  // The constant branch `a > 4` must be gone entirely.
  for (const Block &B : P.Step.Blocks)
    for (const Inst &I : B.Insts)
      if (I.Opcode == Op::Branch) {
        EXPECT_TRUE(I.Dynamic) << "rt-constant branch survived the passes";
      }
}

TEST(PassPipeline, VerifierRunsPostBtaOnShippedPatterns) {
  // A program with syncs (rt-static value flushed at a dynamic join) must
  // pass the PostBta verifier inside compileFacile (VerifyIr defaults on).
  CompiledProgram P = compileWith(R"(
    init val k = 0;
    val out = 0;
    fun main() {
      val x = k * 2;
      if (mem_ld(4096) > 0) { out = x; } else { out = 0 - x; }
      k = (k + 1) % 8;
    }
  )",
                                  /*RunPasses=*/true);
  std::string E =
      verifyStepFunction(P.Step, P.Globals, P.Externs, /*PostBta=*/true);
  EXPECT_TRUE(E.empty()) << E;
}

TEST(PassPipeline, ShippedSimulatorsPostPassIrIsPinned) {
  // Every counter and an FNV-1a hash of the printed post-pass IR, for
  // isa.fac with each shipped simulator. A dataflow rewrite must leave all
  // of them alone; a deliberate IR change updates them here. The wall-time
  // fields are not compared.
  struct Pinned {
    sims::SimKind Kind;
    const char *Name;
    unsigned InstsBefore, InstsAfter, BlocksBefore, BlocksAfter, Rounds,
        Folded, BranchesFolded, CopiesPropagated, DeadRemoved, JumpsThreaded,
        BlocksMerged, BlocksRemoved;
    uint64_t IrHash;
  };
  static const Pinned Expected[] = {
      {sims::SimKind::OutOfOrder, "ooo", 1562, 1271, 348, 296, 4, 54, 0, 24,
       239, 48, 7, 52, 0xa3e8269e39fc5852ull},
      {sims::SimKind::InOrder, "inorder", 1244, 1030, 283, 254, 4, 53, 0, 16,
       185, 26, 4, 29, 0x3b310fa2f259515eull},
      {sims::SimKind::Functional, "functional", 535, 514, 98, 87, 2, 1, 0, 2,
       10, 14, 0, 11, 0x9b93a0f3f07879aeull},
  };
  for (const Pinned &W : Expected) {
    SCOPED_TRACE(W.Name);
    LoweredProgram LP = lowerOnly(sims::simulatorSource(W.Kind));
    PassPipelineStats S;
    std::string Error;
    ASSERT_TRUE(runPassPipeline(LP, S, &Error)) << Error;
    const std::string Ir = printStepFunction(LP.Step);
    EXPECT_EQ(S.InstsBefore, W.InstsBefore);
    EXPECT_EQ(S.InstsAfter, W.InstsAfter);
    EXPECT_EQ(S.BlocksBefore, W.BlocksBefore);
    EXPECT_EQ(S.BlocksAfter, W.BlocksAfter);
    EXPECT_EQ(S.Rounds, W.Rounds);
    EXPECT_EQ(S.Folded, W.Folded);
    EXPECT_EQ(S.BranchesFolded, W.BranchesFolded);
    EXPECT_EQ(S.CopiesPropagated, W.CopiesPropagated);
    EXPECT_EQ(S.DeadRemoved, W.DeadRemoved);
    EXPECT_EQ(S.JumpsThreaded, W.JumpsThreaded);
    EXPECT_EQ(S.BlocksMerged, W.BlocksMerged);
    EXPECT_EQ(S.BlocksRemoved, W.BlocksRemoved);
    EXPECT_EQ(hashBytes(Ir.data(), Ir.size()), W.IrHash);
  }
}

//===----------------------------------------------------------------------===//
// Randomized property test: passes preserve step-for-step state
//===----------------------------------------------------------------------===//

namespace {

/// Tiny random Facile program generator. Structurally bounded (loops are
/// counted, recursion impossible) so every program terminates each step.
class ProgramGen {
public:
  explicit ProgramGen(uint32_t Seed) : Rng(Seed) {}

  std::string generate() {
    Out.clear();
    Out += "init val k = 0;\n";
    Out += "val a = 0;\nval b = 0;\nval c = 0;\n";
    Out += "fun main() {\n";
    Out += "  val d = mem_ld(2097152 + (k % 8) * 4);\n";
    unsigned N = 2 + Rng() % 5;
    for (unsigned I = 0; I != N; ++I)
      stmt(2);
    // Rotate the key so the cache sees several entries, and write one
    // observable word back.
    Out += "  mem_st(2097600 + (k % 8) * 4, a + b - c);\n";
    Out += "  k = (k + 1) % 6;\n";
    Out += "}\n";
    return Out;
  }

private:
  const char *var() {
    static const char *Vars[] = {"a", "b", "c", "k", "d"};
    return Vars[Rng() % 5];
  }

  std::string expr(unsigned Depth) {
    if (Depth == 0 || Rng() % 3 == 0) {
      if (Rng() % 2)
        return std::to_string(static_cast<int>(Rng() % 17) - 8);
      return var();
    }
    static const char *Ops[] = {"+", "-", "*", "/", "%", "&",
                                "|", "^", "<", "==", ">"};
    return "(" + expr(Depth - 1) + " " + Ops[Rng() % 11] + " " +
           expr(Depth - 1) + ")";
  }

  void stmt(unsigned Depth) {
    switch (Rng() % (Depth > 0 ? 4 : 2)) {
    case 0:
    case 1: {
      const char *V = var();
      if (V[0] == 'k')
        V = "a"; // keep the key's rotation deterministic
      Out += std::string("  ") + V + " = " + expr(2) + ";\n";
      break;
    }
    case 2: {
      Out += "  if (" + expr(1) + ") {\n";
      stmt(Depth - 1);
      Out += "  } else {\n";
      stmt(Depth - 1);
      Out += "  }\n";
      break;
    }
    case 3: {
      std::string T = "t" + std::to_string(Tmp++);
      Out += "  val " + T + " = 0;\n";
      Out += "  while (" + T + " < " + std::to_string(1 + Rng() % 3) +
             ") {\n";
      stmt(Depth - 1);
      Out += "    " + T + " = " + T + " + 1;\n";
      Out += "  }\n";
      break;
    }
    }
  }

  std::mt19937 Rng;
  std::string Out;
  unsigned Tmp = 0;
};

} // namespace

TEST(PassProperty, RandomProgramsStepForStepIdentical) {
  isa::TargetImage Img = emptyImage();
  std::mt19937 Seeder(20260807);
  uint64_t TotalFastSteps = 0;
  for (unsigned Trial = 0; Trial != 25; ++Trial) {
    ProgramGen Gen(Seeder());
    std::string Source = Gen.generate();
    SCOPED_TRACE("program:\n" + Source);

    CompiledProgram Opt = compileWith(Source, /*RunPasses=*/true);
    CompiledProgram Raw = compileWith(Source, /*RunPasses=*/false);

    // Optimized+memoized vs raw+unmemoized: the strictest pairing — the
    // passes AND the record/replay machinery must both be invisible.
    rt::Simulation SimOpt(Opt, Img);
    rt::Simulation::Options Off;
    Off.Memoize = false;
    rt::Simulation SimRaw(Raw, Img, Off);
    for (rt::Simulation *S : {&SimOpt, &SimRaw})
      for (uint32_t W = 0; W != 8; ++W)
        S->memory().write32(2097152 + W * 4, (W * 2654435761u) % 97);

    for (unsigned Step = 0; Step != 40; ++Step) {
      SimOpt.step();
      SimRaw.step();
      ASSERT_EQ(SimOpt.getGlobal("a"), SimRaw.getGlobal("a")) << Step;
      ASSERT_EQ(SimOpt.getGlobal("b"), SimRaw.getGlobal("b")) << Step;
      ASSERT_EQ(SimOpt.getGlobal("c"), SimRaw.getGlobal("c")) << Step;
      ASSERT_EQ(SimOpt.getGlobal("k"), SimRaw.getGlobal("k")) << Step;
      ASSERT_EQ(SimOpt.memory().digest(), SimRaw.memory().digest()) << Step;
      ASSERT_EQ(SimOpt.halted(), SimRaw.halted()) << Step;
    }
    // Programs with state-dependent dynamic branches may keep missing;
    // across all trials replay must happen, or the comparison is vacuous.
    TotalFastSteps += SimOpt.stats().FastSteps;
  }
  EXPECT_GT(TotalFastSteps, 0u);
}

TEST(PassProperty, EachPassAloneIsSafeOnRandomPrograms) {
  // Run each pass in isolation on the lowered IR and check the verifier
  // accepts the result (the pipeline test above checks semantics; this
  // pins structural soundness per pass, including on programs where the
  // pass fires rarely).
  std::mt19937 Seeder(987654321);
  for (unsigned Trial = 0; Trial != 25; ++Trial) {
    ProgramGen Gen(Seeder());
    std::string Source = Gen.generate();
    SCOPED_TRACE("program:\n" + Source);
    using PassFn = unsigned (*)(StepFunction &, PassPipelineStats &);
    static const PassFn Passes[] = {foldConstants, propagateCopies,
                                    eliminateDeadCode, simplifyCfg};
    for (PassFn Pass : Passes) {
      LoweredProgram Raw = lowerOnly(Source);
      PassPipelineStats Stats;
      Pass(Raw.Step, Stats);
      std::string E = verifyStepFunction(Raw.Step, Raw.Globals, Raw.Externs);
      EXPECT_TRUE(E.empty()) << E;
    }
  }
}
