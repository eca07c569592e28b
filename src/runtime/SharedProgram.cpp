//===- SharedProgram.cpp - Process-shared immutable program state ----------===//

#include "src/runtime/SharedProgram.h"

#include "src/jit/JitCache.h"

using namespace facile;
using namespace facile::rt;

SharedProgram::SharedProgram(const CompiledProgram &Prog,
                             isa::TargetImage Image)
    : Prog(Prog), Image(std::move(Image)), Plan(buildExecPlan(Prog)) {}

SharedProgram::~SharedProgram() = default;

jit::JitCache &SharedProgram::jitCache(
    const jit::JitRuntimeHooks &Hooks) const {
  std::lock_guard<std::mutex> Lock(JitMu);
  if (!Jit)
    Jit = std::make_unique<jit::JitCache>(Prog, Plan, Image, Hooks);
  return *Jit;
}

const jit::JitCache *SharedProgram::builtJitCache() const {
  std::lock_guard<std::mutex> Lock(JitMu);
  return Jit.get();
}
