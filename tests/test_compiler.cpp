//===- test_compiler.cpp - Facile compiler pipeline tests -------------------===//
//
// Exercises parse -> sema -> lower -> binding-time analysis -> action
// extraction on small programs, checking the properties the paper's §4
// describes: which code is rt-static vs dynamic, where dynamic-result
// tests appear, and where rt-static state is flushed.
//
//===----------------------------------------------------------------------===//

#include "src/facile/Compiler.h"
#include "tests/KeyStaticMix.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace facile;
using facile::testprog::keyStaticMixSource;

namespace {

CompiledProgram compileOk(const char *Source) {
  DiagnosticEngine Diag;
  auto P = compileFacile(Source, Diag);
  EXPECT_TRUE(P.has_value()) << Diag.str();
  if (!P)
    return CompiledProgram();
  return std::move(*P);
}

/// Compiles with the optimization pipeline disabled, for tests that pin
/// the raw lowering output (block structure before CFG simplification).
CompiledProgram compileNoPasses(const char *Source) {
  DiagnosticEngine Diag;
  CompileOptions Opts;
  Opts.RunPasses = false;
  auto P = compileFacile(Source, Diag, Opts);
  EXPECT_TRUE(P.has_value()) << Diag.str();
  if (!P)
    return CompiledProgram();
  return std::move(*P);
}

std::string compileErr(const char *Source) {
  DiagnosticEngine Diag;
  auto P = compileFacile(Source, Diag);
  EXPECT_FALSE(P.has_value()) << "expected a compile error";
  return Diag.str();
}

/// Counts instructions with \p Opcode (and global id \p Id, unless ~0u).
unsigned countOps(const CompiledProgram &P, ir::Op Opcode,
                  uint32_t Id = ~0u) {
  unsigned N = 0;
  for (const ir::Block &B : P.Step.Blocks)
    for (const ir::Inst &I : B.Insts)
      if (I.Opcode == Opcode && (Id == ~0u || I.Id == Id))
        ++N;
  return N;
}

/// Counts dynamic / rt-static instructions over the whole step function.
std::pair<unsigned, unsigned> countLabels(const CompiledProgram &P) {
  unsigned Dyn = 0, Stat = 0;
  for (const ir::Block &B : P.Step.Blocks)
    for (const ir::Inst &I : B.Insts)
      (I.Dynamic ? Dyn : Stat)++;
  return {Dyn, Stat};
}

} // namespace

//===----------------------------------------------------------------------===//
// Frontend errors
//===----------------------------------------------------------------------===//

TEST(CompilerErrors, MissingMain) {
  EXPECT_NE(compileErr("val x = 0;").find("fun main()"), std::string::npos);
}

TEST(CompilerErrors, MainWithParams) {
  EXPECT_NE(compileErr("fun main(pc) { }").find("init"), std::string::npos);
}

TEST(CompilerErrors, Recursion) {
  std::string E = compileErr(R"(
    fun f(x) { return g(x); }
    fun g(x) { return f(x); }
    fun main() { f(1); }
  )");
  EXPECT_NE(E.find("recursion"), std::string::npos);
}

TEST(CompilerErrors, SelfRecursion) {
  EXPECT_NE(compileErr("fun main() { main(); }").find("main"),
            std::string::npos);
}

TEST(CompilerErrors, UndefinedVariable) {
  EXPECT_NE(compileErr("fun main() { val x = y; }").find("undefined"),
            std::string::npos);
}

TEST(CompilerErrors, BreakOutsideLoop) {
  EXPECT_NE(compileErr("fun main() { break; }").find("break"),
            std::string::npos);
}

TEST(CompilerErrors, ArityMismatch) {
  EXPECT_NE(compileErr("fun f(a, b) { return a; } fun main() { f(1); }")
                .find("arguments"),
            std::string::npos);
}

TEST(CompilerErrors, UnknownAttribute) {
  EXPECT_NE(compileErr("fun main() { val x = 1?foo(); }").find("attribute"),
            std::string::npos);
}

TEST(CompilerErrors, SemForUnknownPattern) {
  EXPECT_NE(compileErr(R"(
    token w[32] fields op 0:31;
    sem nothere { }
    fun main() { }
  )")
                .find("undeclared pattern"),
            std::string::npos);
}

TEST(CompilerErrors, PatternForwardReference) {
  EXPECT_NE(compileErr(R"(
    token w[32] fields op 0:31;
    pat a = b && op==1;
    pat b = op==0;
    fun main() { }
  )")
                .find("before its definition"),
            std::string::npos);
}

TEST(CompilerErrors, SemCannotReenterDispatch) {
  EXPECT_NE(compileErr(R"(
    token w[32] fields op 26:31;
    pat p = op==0;
    sem p { pc?exec(); }
    init val pc = 0;
    fun main() { pc?exec(); }
  )")
                .find("re-enters"),
            std::string::npos);
}

TEST(CompilerErrors, AssignToField) {
  EXPECT_NE(compileErr(R"(
    token w[32] fields op 26:31;
    pat p = op==0;
    init val pc = 0;
    fun main() { switch (pc) { pat p: op = 3; } }
  )")
                .find("read-only"),
            std::string::npos);
}

TEST(CompilerErrors, TokenWidthMustBe32) {
  EXPECT_NE(compileErr("token w[16] fields op 0:15;\nfun main() { }")
                .find("width"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Binding-time analysis
//===----------------------------------------------------------------------===//

TEST(Bta, PureRtStaticProgramHasNoDynamicBodyCode) {
  // Everything depends only on the init global, which is rt-static at Ret:
  // it is key-static, so not even a Ret flush is dynamic — the next key
  // carries its value.
  CompiledProgram P = compileOk(R"(
    init val pc = 100;
    fun main() { pc = pc + 4; }
  )");
  auto [Dyn, Stat] = countLabels(P);
  EXPECT_GT(Stat, 0u);
  EXPECT_EQ(Dyn, 0u);
  EXPECT_EQ(countOps(P, ir::Op::SyncGlobal), 0u);
  EXPECT_TRUE(P.KeyStatic[P.GlobalIndex.at("pc")]);
  EXPECT_EQ(P.Bta.KeyStaticWords, 1u);
}

TEST(Bta, NonInitGlobalIsDynamicAtEntry) {
  CompiledProgram P = compileOk(R"(
    val g = 0;
    init val pc = 0;
    fun main() { val x = g + 1; pc = pc + x; g = x; }
  )");
  // The add consuming g must be dynamic, and pc's store becomes dynamic.
  bool FoundDynAdd = false;
  for (const ir::Block &B : P.Step.Blocks)
    for (const ir::Inst &I : B.Insts)
      if (I.Opcode == ir::Op::Bin && I.Dynamic)
        FoundDynAdd = true;
  EXPECT_TRUE(FoundDynAdd);
}

TEST(Bta, ExternCallsAreDynamic) {
  CompiledProgram P = compileOk(R"(
    extern probe(int) : int;
    init val pc = 0;
    fun main() { val x = probe(pc); }
  )");
  bool Found = false;
  for (const ir::Block &B : P.Step.Blocks)
    for (const ir::Inst &I : B.Insts)
      if (I.Opcode == ir::Op::CallExtern) {
        EXPECT_TRUE(I.Dynamic);
        // The rt-static argument pc is a placeholder (Args start at bit 2).
        EXPECT_TRUE(I.StaticOperands & (1u << 2));
        Found = true;
      }
  EXPECT_TRUE(Found);
}

TEST(Bta, DynamicBranchBecomesResultTest) {
  CompiledProgram P = compileOk(R"(
    extern probe(int) : int;
    init val pc = 0;
    fun main() {
      if (probe(pc)) pc = pc + 4;
      else pc = pc + 8;
    }
  )");
  unsigned DynBranches = 0, StatBranches = 0;
  for (const ir::Block &B : P.Step.Blocks) {
    const ir::Inst &T = B.terminator();
    if (T.Opcode == ir::Op::Branch)
      (T.Dynamic ? DynBranches : StatBranches)++;
  }
  EXPECT_EQ(DynBranches, 1u);
}

TEST(Bta, RtStaticBranchStaysStatic) {
  CompiledProgram P = compileOk(R"(
    init val pc = 0;
    fun main() {
      if (pc == 0) pc = 4;
      else pc = pc + 4;
    }
  )");
  for (const ir::Block &B : P.Step.Blocks) {
    const ir::Inst &T = B.terminator();
    if (T.Opcode == ir::Op::Branch) {
      EXPECT_FALSE(T.Dynamic);
    }
  }
}

TEST(Bta, PaperFigure7Division) {
  // The paper's running example: decode is rt-static, register-file
  // arithmetic is dynamic, rt-static sub-expressions of dynamic statements
  // become placeholders.
  CompiledProgram P = compileOk(R"(
    token instruction[32]
      fields op 26:31, rd 21:25, rs1 16:20, imm 0:15;
    pat add = op==1;
    pat beq = op==24;
    val R = array(32){0};
    init val pc = 4096;
    fun main() {
      val npc = pc + 4;
      switch (pc) {
        pat add: R[rd] = R[rs1] + imm?sext(16);
        pat beq: if (R[rd] == 0) npc = pc + imm?sext(16);
      }
      pc = npc;
    }
  )");
  // R is a non-init array -> dynamic class.
  uint32_t RIdx = P.GlobalIndex.at("R");
  EXPECT_TRUE(P.DynArrays[RIdx]);
  // Fetch of the rt-static pc is rt-static (text is rt-static, paper §4.1).
  for (const ir::Block &B : P.Step.Blocks)
    for (const ir::Inst &I : B.Insts)
      if (I.Opcode == ir::Op::Fetch) {
        EXPECT_FALSE(I.Dynamic);
      }
  // Array stores into R are dynamic with rt-static index placeholders.
  bool FoundStore = false;
  for (const ir::Block &B : P.Step.Blocks)
    for (const ir::Inst &I : B.Insts)
      if (I.Opcode == ir::Op::StoreElem) {
        EXPECT_TRUE(I.Dynamic);
        EXPECT_TRUE(I.StaticOperands & 1u) << "index should be placeholder";
        FoundStore = true;
      }
  EXPECT_TRUE(FoundStore);
}

TEST(Bta, InitArrayStaysRtStaticWhenAccessedStatically) {
  CompiledProgram P = compileOk(R"(
    init val q = array(8){0};
    init val n = 0;
    fun main() {
      q[n % 8] = n;
      n = n + 1;
    }
  )");
  uint32_t QIdx = P.GlobalIndex.at("q");
  EXPECT_FALSE(P.DynArrays[QIdx]);
  // An rt-static init array is key-static: no whole-array flush at Ret.
  EXPECT_TRUE(P.KeyStatic[QIdx]);
  EXPECT_TRUE(P.KeyStatic[P.GlobalIndex.at("n")]);
  EXPECT_EQ(countOps(P, ir::Op::SyncArray), 0u);
  EXPECT_EQ(countOps(P, ir::Op::SyncGlobal), 0u);
  EXPECT_EQ(P.Bta.KeyStaticWords, 9u);
}

// Every Ret-flush case in one program (also run end to end in
// Runtime2.KeyStaticMixedProgramMatchesAcrossEngines).
TEST(Bta, RetFlushSkipsOnlyKeyStaticInitGlobals) {
  CompiledProgram P = compileOk(keyStaticMixSource());
  auto Id = [&](const char *Name) { return P.GlobalIndex.at(Name); };
  // Key-static: rt-static at Ret, so neither gets a flush.
  EXPECT_TRUE(P.KeyStatic[Id("n")]);
  EXPECT_TRUE(P.KeyStatic[Id("q")]);
  EXPECT_EQ(countOps(P, ir::Op::SyncGlobal, Id("n")), 0u);
  EXPECT_EQ(countOps(P, ir::Op::SyncArray, Id("q")), 0u);
  // pc is rt-static on one path into Ret and dynamic on the other: it keeps
  // its sync on the rt-static edge and stays in the chain compare.
  EXPECT_FALSE(P.KeyStatic[Id("pc")]);
  EXPECT_EQ(countOps(P, ir::Op::SyncGlobal, Id("pc")), 1u);
  // The demoted init array lives in the dynamic store (its stores write
  // there directly, nothing to flush) and stays in the chain compare.
  EXPECT_TRUE(P.DynArrays[Id("d")]);
  EXPECT_FALSE(P.KeyStatic[Id("d")]);
  EXPECT_EQ(countOps(P, ir::Op::SyncArray, Id("d")), 0u);
  // A non-init global rt-static at Ret is still flushed there.
  EXPECT_FALSE(P.KeyStatic[Id("last")]);
  const ir::Block &RetBlock = *std::find_if(
      P.Step.Blocks.begin(), P.Step.Blocks.end(), [](const ir::Block &B) {
        return B.terminator().Opcode == ir::Op::Ret;
      });
  unsigned LastFlushes = 0;
  for (const ir::Inst &I : RetBlock.Insts)
    if (I.Opcode == ir::Op::SyncGlobal && I.Id == Id("last"))
      ++LastFlushes;
  EXPECT_EQ(LastFlushes, 1u);
  // Only n and q's four words are restored from the key.
  EXPECT_EQ(P.Bta.KeyStaticWords, 5u);
}

TEST(Bta, InitArrayDemotedByDynamicStore) {
  CompiledProgram P = compileOk(R"(
    extern probe(int) : int;
    init val q = array(8){0};
    init val n = 0;
    fun main() {
      q[n % 8] = probe(n);
      n = n + 1;
    }
  )");
  EXPECT_TRUE(P.DynArrays[P.GlobalIndex.at("q")]);
  EXPECT_GE(P.Bta.ArrayRestarts, 1u);
}

TEST(Bta, MergeDemotionInsertsSync) {
  // x is rt-static on one path and dynamic on the other; the merge demotes
  // it and the rt-static edge must be synchronised.
  CompiledProgram P = compileOk(R"(
    extern probe(int) : int;
    init val pc = 0;
    val out = 0;
    fun main() {
      val x = 1;
      if (probe(pc)) { x = probe(pc); }
      out = x + 1;
      pc = pc + 4;
    }
  )");
  EXPECT_GE(P.Bta.SplitEdges, 1u);
  bool FoundSlotSync = false;
  for (const ir::Block &B : P.Step.Blocks)
    for (const ir::Inst &I : B.Insts)
      if (I.Opcode == ir::Op::SyncSlot)
        FoundSlotSync = true;
  EXPECT_TRUE(FoundSlotSync);
}

//===----------------------------------------------------------------------===//
// Actions
//===----------------------------------------------------------------------===//

TEST(Actions, RetBlockAlwaysHasAction) {
  CompiledProgram P = compileOk("init val pc = 0;\nfun main() { pc = pc; }");
  bool Found = false;
  for (uint32_t B = 0; B != P.Step.Blocks.size(); ++B)
    if (P.Step.Blocks[B].terminator().Opcode == ir::Op::Ret) {
      EXPECT_TRUE(P.Actions.Blocks[B].EndsWithRet);
      EXPECT_NE(P.Actions.Blocks[B].ActionId, ActionBlockInfo::NoAction);
      Found = true;
    }
  EXPECT_TRUE(Found);
}

TEST(Actions, FullyStaticBlocksHaveNoAction) {
  CompiledProgram P = compileOk(R"(
    init val pc = 0;
    fun main() {
      val a = pc + 1;
      val b = a * 2;
      if (b > 10) pc = 0;
      else pc = b;
    }
  )");
  unsigned NoActionBlocks = 0;
  for (const ActionBlockInfo &AI : P.Actions.Blocks)
    if (AI.ActionId == ActionBlockInfo::NoAction)
      ++NoActionBlocks;
  EXPECT_GT(NoActionBlocks, 0u);
}

TEST(Actions, TestBlocksAreMarked) {
  CompiledProgram P = compileOk(R"(
    extern probe(int) : int;
    init val pc = 0;
    fun main() { if (probe(pc)) pc = pc + 4; else pc = pc + 8; }
  )");
  unsigned Tests = 0;
  for (const ActionBlockInfo &AI : P.Actions.Blocks)
    if (AI.EndsWithTest)
      ++Tests;
  EXPECT_EQ(Tests, 1u);
}

TEST(Actions, ActionIdsAreDenseAndMapped) {
  CompiledProgram P = compileOk(R"(
    extern probe(int) : int;
    init val pc = 0;
    fun main() { pc = pc + probe(pc); }
  )");
  for (uint32_t A = 0; A != P.Actions.numActions(); ++A) {
    uint32_t B = P.Actions.ActionToBlock[A];
    EXPECT_EQ(P.Actions.Blocks[B].ActionId, static_cast<int32_t>(A));
  }
}

//===----------------------------------------------------------------------===//
// Inlining
//===----------------------------------------------------------------------===//

TEST(Lowering, FunctionsAreInlined) {
  const char *Source = R"(
    init val pc = 0;
    fun inc(x) { return x + 1; }
    fun main() { pc = inc(inc(pc)); }
  )";
  // Two call sites -> two inlined copies; there must be at least two join
  // blocks and no call instructions (externs aside). Passes off: this
  // pins the raw lowering output.
  CompiledProgram P = compileNoPasses(Source);
  for (const ir::Block &B : P.Step.Blocks)
    for (const ir::Inst &I : B.Insts)
      EXPECT_NE(I.Opcode, ir::Op::CallExtern);
  EXPECT_GE(P.Step.Blocks.size(), 3u);
  // With the pipeline on, the straight-line call joins collapse.
  CompiledProgram Opt = compileOk(Source);
  EXPECT_LT(Opt.Step.Blocks.size(), P.Step.Blocks.size());
}

TEST(Lowering, NeverAssignedGlobalsConstantFold) {
  // `val W = 16;` used as machine parameter must fold to a literal, or it
  // would be dynamic at step entry and poison the analysis (a slice of the
  // paper's §6.3 item 5).
  CompiledProgram P = compileOk(R"(
    val W = 16;
    init val q = array(16){0};
    init val head = 0;
    fun main() {
      q[head % W] = head;
      head = (head + 1) % W;
    }
  )");
  // q stays rt-static: the index (head % W) folded to rt-static.
  EXPECT_FALSE(P.DynArrays[P.GlobalIndex.at("q")]);
  // No LoadGlobal of W remains anywhere.
  uint32_t WIdx = P.GlobalIndex.at("W");
  for (const ir::Block &B : P.Step.Blocks)
    for (const ir::Inst &I : B.Insts)
      if (I.Opcode == ir::Op::LoadGlobal) {
        EXPECT_NE(I.Id, WIdx);
      }
}

TEST(Lowering, AssignedGlobalsDoNotFold) {
  CompiledProgram P = compileOk(R"(
    val counter = 0;
    init val pc = 0;
    fun main() { counter = counter + 1; pc = pc + counter; }
  )");
  bool FoundLoad = false;
  uint32_t Idx = P.GlobalIndex.at("counter");
  for (const ir::Block &B : P.Step.Blocks)
    for (const ir::Inst &I : B.Insts)
      if (I.Opcode == ir::Op::LoadGlobal && I.Id == Idx)
        FoundLoad = true;
  EXPECT_TRUE(FoundLoad);
}

TEST(Lowering, IrPrinterProducesText) {
  CompiledProgram P = compileOk("init val pc = 0;\nfun main() { pc = pc; }");
  std::string Text = ir::printStepFunction(P.Step);
  EXPECT_NE(Text.find("ret"), std::string::npos);
  // pc is key-static (no flush); the non-init global g is flushed at Ret.
  EXPECT_EQ(Text.find("gsync"), std::string::npos);
  P = compileOk("val g = 0;\nfun main() { g = 1; }");
  Text = ir::printStepFunction(P.Step);
  EXPECT_NE(Text.find("gsync"), std::string::npos);
}
