//===- Compiler.h - Facile compiler driver ----------------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the Facile compiler: source text in, a fully
/// analysed CompiledProgram out. The pipeline is
///
///   lex/parse -> sema -> lower (full inlining) -> binding-time analysis
///   (+ sync insertion) -> action extraction
///
/// The result is consumed by the fast-forwarding runtime (src/runtime).
/// Between lowering and BTA the optimization pipeline (Passes.h) runs,
/// with the IR verifier checking invariants after every pass.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_FACILE_COMPILER_H
#define FACILE_FACILE_COMPILER_H

#include "src/facile/Actions.h"
#include "src/facile/Bta.h"
#include "src/facile/Lower.h"
#include "src/facile/Passes.h"
#include "src/support/Diagnostic.h"

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace facile {

/// Knobs for compileFacile. Defaults give the full optimizing pipeline.
struct CompileOptions {
  /// Run the optimization passes (Passes.h) between lowering and BTA.
  bool RunPasses = true;
  /// Run the IR verifier after lowering, after every pass, and after BTA.
  bool VerifyIr = true;
  /// Keep a printed copy of the pre-pass IR in
  /// CompiledProgram::IrBeforePasses (for `facilec --dump-ir=before`).
  bool CaptureIrBeforePasses = false;
};

/// A compiled, analysis-annotated Facile simulator ready to run.
struct CompiledProgram {
  ir::StepFunction Step;
  std::vector<ir::GlobalVar> Globals;
  std::vector<ir::ExternFn> Externs;
  std::vector<bool> DynArrays;      ///< per global: dynamic array class
  std::vector<bool> DynLocalArrays; ///< per local array
  /// Per global: an init global rt-static at every Ret (Bta.h). It gets no
  /// Ret flush; the runtime keeps its value in the step's key instead.
  std::vector<bool> KeyStatic;
  ActionTable Actions;
  BtaStats Bta;
  PassPipelineStats Passes;         ///< zeroed when RunPasses was off
  std::string IrBeforePasses;       ///< only with CaptureIrBeforePasses

  std::map<std::string, uint32_t> GlobalIndex;
  std::map<std::string, uint32_t> ExternIndex;

  /// Indices of the `init` globals, in declaration order — the action-cache
  /// key layout.
  std::vector<uint32_t> InitGlobals;

  const ir::GlobalVar *findGlobal(const std::string &Name) const {
    auto It = GlobalIndex.find(Name);
    return It == GlobalIndex.end() ? nullptr : &Globals[It->second];
  }
};

/// Compiles Facile source text. Returns std::nullopt with diagnostics in
/// \p Diag on any front-end error or IR verifier failure.
std::optional<CompiledProgram>
compileFacile(std::string_view Source, DiagnosticEngine &Diag,
              const CompileOptions &Opts = CompileOptions());

/// Convenience: reads \p Path and compiles it. Reports file errors through
/// \p Diag as well.
std::optional<CompiledProgram>
compileFacileFile(const std::string &Path, DiagnosticEngine &Diag,
                  const CompileOptions &Opts = CompileOptions());

} // namespace facile

#endif // FACILE_FACILE_COMPILER_H
