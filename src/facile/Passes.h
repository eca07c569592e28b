//===- Passes.h - IR optimization passes over the lowered CFG ---*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler's middle end: a small pipeline of classic scalar and CFG
/// optimizations run over the lowered step function *before* binding-time
/// analysis. Lowering with full inlining (Lower.cpp) produces long chains
/// of Const / Copy temporaries and one basic block per structural seam
/// (call joins, case tests, if/while edges); the passes collapse those so
/// that BTA, action extraction and the packed execution plan
/// (src/runtime/ExecPlan.h) all see a smaller, tighter CFG — fewer action
/// nodes recorded per step and fewer instructions replayed per action.
///
/// Passes (run round-robin until a fixpoint by runPassPipeline):
///
///  - foldConstants: block-local constant propagation through Const, Copy,
///    Bin and Un, plus folding of Branch-on-constant into Jump.
///  - propagateCopies: block-local copy propagation into every operand
///    position (A, B, call arguments and branch conditions).
///  - eliminateDeadCode: global slot liveness (backward fixpoint over the
///    CFG); pure instructions whose destination is dead are dropped.
///  - simplifyCfg: jump threading through empty blocks, merging of
///    single-predecessor / single-successor block pairs, and removal (with
///    id compaction) of unreachable blocks.
///
/// The IR verifier checks the structural invariants documented in
/// docs/INTERNALS.md after every pass; a verifier failure aborts
/// compilation with a diagnostic naming the offending pass.
///
/// Cost: fold, copy propagation and CFG simplification are block-local or
/// single sweeps. The two whole-function slot dataflows (DCE's liveness
/// and the verifier's definite assignment) keep one bit row per block,
/// packed into 64-bit words, so a block visit costs O(instructions +
/// NumSlots / 64) and the whole pipeline on ooo.fac runs in about a
/// millisecond.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_FACILE_PASSES_H
#define FACILE_FACILE_PASSES_H

#include "src/facile/Lower.h"

#include <cstdint>
#include <string>

namespace facile {

/// Cumulative counters for one pipeline run, reported via
/// `facilec --pass-stats` and the `"passes"` block of
/// SimHarness::statsJson(). The counters are deterministic; PassUs and
/// VerifyUs are wall-clock and differ run to run.
struct PassPipelineStats {
  unsigned InstsBefore = 0;
  unsigned InstsAfter = 0;
  unsigned BlocksBefore = 0;
  unsigned BlocksAfter = 0;
  unsigned Rounds = 0;            ///< fixpoint iterations executed
  unsigned Folded = 0;            ///< instructions rewritten to Const
  unsigned BranchesFolded = 0;    ///< Branch-on-constant -> Jump
  unsigned CopiesPropagated = 0;  ///< operand uses redirected past a Copy
  unsigned DeadRemoved = 0;       ///< pure instructions with a dead Dst
  unsigned JumpsThreaded = 0;     ///< edges retargeted through empty blocks
  unsigned BlocksMerged = 0;      ///< single-pred/single-succ merges
  unsigned BlocksRemoved = 0;     ///< unreachable / emptied blocks dropped
  uint64_t PassUs = 0;   ///< wall time inside the four passes
  uint64_t VerifyUs = 0; ///< wall time inside verifier calls; compileFacile
                         ///< adds its post-lowering / post-BTA calls
};

/// \name Individual passes
/// Each pass mutates \p F in place, accumulates into \p Stats, and returns
/// the number of changes it made (0 = fixpoint for that pass).
/// @{
unsigned foldConstants(ir::StepFunction &F, PassPipelineStats &Stats);
unsigned propagateCopies(ir::StepFunction &F, PassPipelineStats &Stats);
unsigned eliminateDeadCode(ir::StepFunction &F, PassPipelineStats &Stats);
unsigned simplifyCfg(ir::StepFunction &F, PassPipelineStats &Stats);
/// @}

/// Structural IR verifier. Checks (see docs/INTERNALS.md "Verifier
/// invariants"): non-empty blocks terminated exactly once, exactly one
/// Ret, in-range block targets / slots / global / local-array / extern /
/// builtin ids, builtin and extern arity, and definite slot assignment
/// before use on every path. With \p PostBta it additionally checks that
/// binding-time annotations are internally consistent (Sync* instructions
/// are dynamic; StaticOperands appear only on dynamic instructions;
/// rt-static code never contains externs or dynamic builtins).
///
/// Returns an empty string when the IR is well-formed, else a description
/// of the first violation.
std::string verifyStepFunction(const ir::StepFunction &F,
                               const std::vector<ir::GlobalVar> &Globals,
                               const std::vector<ir::ExternFn> &Externs,
                               bool PostBta = false);

/// Runs the full pipeline over \p LP until a fixpoint (bounded round
/// count), verifying between passes when \p Error is non-null. Returns
/// false (with the failure message in \p *Error) if verification fails;
/// the IR is then in an unspecified state and must not be used.
bool runPassPipeline(LoweredProgram &LP, PassPipelineStats &Stats,
                     std::string *Error);

} // namespace facile

#endif // FACILE_FACILE_PASSES_H
