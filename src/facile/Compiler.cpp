//===- Compiler.cpp - Facile compiler driver ---------------------------------===//

#include "src/facile/Compiler.h"

#include "src/facile/Parser.h"
#include "src/facile/Sema.h"
#include "src/support/StringUtils.h"

#include <cstdio>

using namespace facile;

std::optional<CompiledProgram>
facile::compileFacile(std::string_view Source, DiagnosticEngine &Diag,
                      const CompileOptions &Opts) {
  std::optional<ast::Program> P = parseFacile(Source, Diag);
  if (!P)
    return std::nullopt;
  std::optional<SemaResult> S = analyzeFacile(*P, Diag);
  if (!S)
    return std::nullopt;
  std::optional<LoweredProgram> LP = lowerFacile(*P, *S, Diag);
  if (!LP)
    return std::nullopt;

  CompiledProgram Out;
  if (Opts.CaptureIrBeforePasses)
    Out.IrBeforePasses = ir::printStepFunction(LP->Step);

  if (Opts.RunPasses) {
    std::string PassError;
    if (!runPassPipeline(*LP, Out.Passes,
                         Opts.VerifyIr ? &PassError : nullptr)) {
      Diag.error(SourceLoc(), PassError);
      return std::nullopt;
    }
  } else if (Opts.VerifyIr) {
    std::string E = verifyStepFunction(LP->Step, LP->Globals, LP->Externs);
    if (!E.empty()) {
      Diag.error(SourceLoc(),
                 strFormat("IR verifier failed after lowering: %s", E.c_str()));
      return std::nullopt;
    }
  }

  Out.Bta = annotateStepFunction(*LP, &Out.DynArrays, &Out.DynLocalArrays,
                                 &Out.KeyStatic);
  if (Opts.VerifyIr) {
    std::string E = verifyStepFunction(LP->Step, LP->Globals, LP->Externs,
                                       /*PostBta=*/true);
    if (!E.empty()) {
      Diag.error(SourceLoc(),
                 strFormat("IR verifier failed after BTA: %s", E.c_str()));
      return std::nullopt;
    }
  }
  Out.Actions = extractActions(LP->Step);
  Out.Step = std::move(LP->Step);
  Out.Globals = std::move(LP->Globals);
  Out.Externs = std::move(LP->Externs);
  for (uint32_t I = 0; I != Out.Globals.size(); ++I) {
    Out.GlobalIndex.emplace(Out.Globals[I].Name, I);
    if (Out.Globals[I].IsInit)
      Out.InitGlobals.push_back(I);
  }
  for (uint32_t I = 0; I != Out.Externs.size(); ++I)
    Out.ExternIndex.emplace(Out.Externs[I].Name, I);
  return std::optional<CompiledProgram>(std::move(Out));
}

std::optional<CompiledProgram>
facile::compileFacileFile(const std::string &Path, DiagnosticEngine &Diag,
                          const CompileOptions &Opts) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    Diag.error(SourceLoc(), strFormat("cannot open '%s'", Path.c_str()));
    return std::nullopt;
  }
  std::string Source;
  char Buffer[4096];
  size_t N;
  while ((N = std::fread(Buffer, 1, sizeof(Buffer), File)) != 0)
    Source.append(Buffer, N);
  std::fclose(File);
  return compileFacile(Source, Diag, Opts);
}
