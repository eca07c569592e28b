//===- CEmitter.cpp - C source backend for compiled Facile -----------------===//

#include "src/facile/CEmitter.h"

#include "src/support/StringUtils.h"

#include <cassert>

using namespace facile;
using namespace facile::ir;

namespace {

const char *binOpC(ast::BinOp O) {
  switch (O) {
  case ast::BinOp::Add:
    return "+";
  case ast::BinOp::Sub:
    return "-";
  case ast::BinOp::Mul:
    return "*";
  case ast::BinOp::Div:
    return "/";
  case ast::BinOp::Rem:
    return "%";
  case ast::BinOp::And:
    return "&";
  case ast::BinOp::Or:
    return "|";
  case ast::BinOp::Xor:
    return "^";
  case ast::BinOp::Shl:
    return "<<";
  case ast::BinOp::Shr:
    return ">>";
  case ast::BinOp::Lt:
    return "<";
  case ast::BinOp::Le:
    return "<=";
  case ast::BinOp::Gt:
    return ">";
  case ast::BinOp::Ge:
    return ">=";
  case ast::BinOp::Eq:
    return "==";
  case ast::BinOp::Ne:
    return "!=";
  case ast::BinOp::LogAnd:
    return "&&";
  case ast::BinOp::LogOr:
    return "||";
  }
  return "?";
}

std::string slotRef(SlotId S) { return strFormat("s%u", S); }

/// Operand reference in the fast simulator: memoized rt-static operands
/// read placeholder data from the cache; dynamic operands read slots.
std::string fastOperand(const Inst &I, SlotId S, unsigned Pos) {
  if (I.StaticOperands & (1u << Pos))
    return "read_static_data()";
  return slotRef(S);
}

/// Renders the pure computation of one dynamic instruction for the fast
/// simulator (Figure 9 case bodies).
std::string emitFastInst(const CompiledProgram &P, const Inst &I) {
  switch (I.Opcode) {
  case Op::Copy:
    return strFormat("%s = %s;", slotRef(I.Dst).c_str(),
                     fastOperand(I, I.A, 0).c_str());
  case Op::Bin:
    return strFormat("%s = %s %s %s;", slotRef(I.Dst).c_str(),
                     fastOperand(I, I.A, 0).c_str(), binOpC(I.BinKind),
                     fastOperand(I, I.B, 1).c_str());
  case Op::Un:
    switch (I.UnOp) {
    case UnKind::Neg:
      return strFormat("%s = -%s;", slotRef(I.Dst).c_str(),
                       fastOperand(I, I.A, 0).c_str());
    case UnKind::Not:
      return strFormat("%s = !%s;", slotRef(I.Dst).c_str(),
                       fastOperand(I, I.A, 0).c_str());
    case UnKind::BitNot:
      return strFormat("%s = ~%s;", slotRef(I.Dst).c_str(),
                       fastOperand(I, I.A, 0).c_str());
    case UnKind::Sext:
      return strFormat("%s = sext(%s, %lld);", slotRef(I.Dst).c_str(),
                       fastOperand(I, I.A, 0).c_str(),
                       static_cast<long long>(I.Imm));
    case UnKind::Zext:
      return strFormat("%s = zext(%s, %lld);", slotRef(I.Dst).c_str(),
                       fastOperand(I, I.A, 0).c_str(),
                       static_cast<long long>(I.Imm));
    }
    return "";
  case Op::LoadGlobal:
    return strFormat("%s = %s;", slotRef(I.Dst).c_str(),
                     P.Globals[I.Id].Name.c_str());
  case Op::StoreGlobal:
    return strFormat("%s = %s;", P.Globals[I.Id].Name.c_str(),
                     fastOperand(I, I.A, 0).c_str());
  case Op::LoadElem:
    return strFormat("%s = %s[%s];", slotRef(I.Dst).c_str(),
                     P.Globals[I.Id].Name.c_str(),
                     fastOperand(I, I.A, 0).c_str());
  case Op::StoreElem:
    return strFormat("%s[%s] = %s;", P.Globals[I.Id].Name.c_str(),
                     fastOperand(I, I.A, 0).c_str(),
                     fastOperand(I, I.B, 1).c_str());
  case Op::LoadLocElem:
    return strFormat("%s = loc%u[%s];", slotRef(I.Dst).c_str(), I.Id,
                     fastOperand(I, I.A, 0).c_str());
  case Op::StoreLocElem:
    return strFormat("loc%u[%s] = %s;", I.Id,
                     fastOperand(I, I.A, 0).c_str(),
                     fastOperand(I, I.B, 1).c_str());
  case Op::InitLocArray:
    return strFormat("array_fill(loc%u, %s);", I.Id,
                     fastOperand(I, I.A, 0).c_str());
  case Op::Fetch:
    return strFormat("%s = text_fetch(%s);", slotRef(I.Dst).c_str(),
                     fastOperand(I, I.A, 0).c_str());
  case Op::CallExtern: {
    std::string Args;
    for (size_t K = 0; K != I.Args.size(); ++K) {
      if (K)
        Args += ", ";
      Args += fastOperand(I, I.Args[K], 2 + static_cast<unsigned>(K));
    }
    std::string Call =
        strFormat("%s(%s)", P.Externs[I.Id].Name.c_str(), Args.c_str());
    if (I.Dst != NoSlot)
      return strFormat("%s = %s;", slotRef(I.Dst).c_str(), Call.c_str());
    return Call + ";";
  }
  case Op::CallBuiltin: {
    std::string Args;
    for (size_t K = 0; K != I.Args.size(); ++K) {
      if (K)
        Args += ", ";
      Args += fastOperand(I, I.Args[K], 2 + static_cast<unsigned>(K));
    }
    std::string Call = strFormat(
        "%s(%s)", builtinInfo(static_cast<Builtin>(I.Imm)).Name,
        Args.c_str());
    if (I.Dst != NoSlot)
      return strFormat("%s = %s;", slotRef(I.Dst).c_str(), Call.c_str());
    return Call + ";";
  }
  case Op::SyncSlot:
    return strFormat("%s = read_static_data();", slotRef(I.Dst).c_str());
  case Op::SyncGlobal:
    return strFormat("%s = read_static_data();",
                     P.Globals[I.Id].Name.c_str());
  case Op::SyncArray:
    return strFormat("read_static_array(%s, %u);",
                     P.Globals[I.Id].Name.c_str(), P.Globals[I.Id].Size);
  case Op::Branch:
    return strFormat("t = (%s != 0); verify_dynamic_result(t);",
                     slotRef(I.A).c_str());
  default:
    return "/* unexpected dynamic op */";
  }
}

std::string globalDecls(const CompiledProgram &P) {
  std::string Out;
  Out += "/* dynamic simulator state (shared by both simulators) */\n";
  for (const GlobalVar &G : P.Globals) {
    if (G.IsArray)
      Out += strFormat("static int64_t %s[%u];%s\n", G.Name.c_str(), G.Size,
                       G.IsInit ? " /* init: part of the cache key */" : "");
    else
      Out += strFormat("static int64_t %s = %lld;%s\n", G.Name.c_str(),
                       static_cast<long long>(G.InitValue),
                       G.IsInit ? " /* init: part of the cache key */" : "");
  }
  return Out;
}

} // namespace

std::string facile::emitFastSimulatorC(const CompiledProgram &P) {
  std::string Out;
  Out += "/* fast/residual simulator generated by the Facile compiler\n"
         "   (structure per PLDI'01 Figure 9) */\n\n";
  Out += globalDecls(P);
  Out += strFormat("\nstatic int64_t s[%u]; /* dynamic slot file */\n",
                   P.Step.NumSlots);
  Out += "\nvoid fast_main(void) {\n"
         "  int64_t t;\n"
         "  for (;;) {\n"
         "    switch (get_next_action_number()) {\n"
         "    case INDEX_ACTION:\n"
         "      verify_static_input();\n"
         "      break;\n";
  for (uint32_t A = 0; A != P.Actions.numActions(); ++A) {
    uint32_t B = P.Actions.ActionToBlock[A];
    const ActionBlockInfo &AI = P.Actions.Blocks[B];
    Out += strFormat("    case %u:%s\n", A,
                     AI.EndsWithRet ? " /* end of step */" : "");
    for (uint32_t InstIdx : AI.DynInsts) {
      const Inst &I = P.Step.Blocks[B].Insts[InstIdx];
      Out += "      " + emitFastInst(P, I) + "\n";
    }
    if (AI.EndsWithRet)
      Out += "      end_of_step();\n";
    Out += "      break;\n";
  }
  Out += "    default:\n"
         "      action_cache_miss(); /* return to the slow simulator */\n"
         "      return;\n"
         "    }\n"
         "  }\n"
         "}\n";
  return Out;
}

std::string facile::emitSlowSimulatorC(const CompiledProgram &P) {
  std::string Out;
  Out += "/* slow/complete simulator generated by the Facile compiler\n"
         "   (structure per PLDI'01 Figure 10): rt-static code runs\n"
         "   unguarded on the slow simulator's private state; dynamic\n"
         "   statements are recorded and guarded by the recovery flag. */\n\n";
  Out += globalDecls(P);
  Out += strFormat("\nstatic int64_t ss[%u]; /* rt-static slot file */\n",
                   P.Step.NumSlots);
  Out += strFormat("static int64_t s[%u];  /* dynamic slot file */\n",
                   P.Step.NumSlots);
  Out += "static int recover;\n";
  Out += "\nvoid slow_main(void) {\n  int64_t t;\n";
  for (uint32_t B = 0; B != P.Step.Blocks.size(); ++B) {
    const ActionBlockInfo &AI = P.Actions.Blocks[B];
    Out += strFormat("b%u:\n", B);
    if (AI.ActionId != ActionBlockInfo::NoAction)
      Out += strFormat("  memoize_action_number(%d);\n", AI.ActionId);
    for (const Inst &I : P.Step.Blocks[B].Insts) {
      if (I.isTerminator()) {
        switch (I.Opcode) {
        case Op::Jump:
          Out += strFormat("  goto b%u;\n", I.Target);
          break;
        case Op::Branch:
          if (!I.Dynamic) {
            Out += strFormat("  if (ss%s) goto b%u; else goto b%u;\n",
                             strFormat("[%u]", I.A).c_str(), I.Target,
                             I.Target2);
          } else {
            Out += strFormat(
                "  if (recover) recover_dynamic_result(&t);\n"
                "  else { t = (s[%u] != 0); memoize_dynamic_result(t); }\n",
                I.A);
            Out += strFormat("  if (t) goto b%u; else goto b%u;\n", I.Target,
                             I.Target2);
          }
          break;
        case Op::Ret:
          // Key-static init globals have no flush: their static cells
          // become the dynamic store here, unrecorded.
          for (size_t G = 0; G != P.Globals.size(); ++G)
            if (P.KeyStatic[G])
              Out += strFormat("  write_back_key_static(%s);\n",
                               P.Globals[G].Name.c_str());
          Out += "  memoize_next_key();\n  return;\n";
          break;
        default:
          break;
        }
        continue;
      }
      if (!I.Dynamic) {
        // rt-static statement: plain C on the static slot file.
        std::string Text = emitFastInst(P, I);
        // Rewrite slot references to the static file for clarity.
        Out += "  " + Text + " /* rt-static */\n";
        continue;
      }
      // Dynamic statement: memoize placeholders, guard with `recover`.
      uint32_t Mask = I.StaticOperands;
      if (Mask != 0 || I.Opcode == Op::SyncSlot ||
          I.Opcode == Op::SyncGlobal || I.Opcode == Op::SyncArray)
        Out += "  memoize_static_data(...);\n";
      Out += strFormat("  if (!recover) { %s }\n", emitFastInst(P, I).c_str());
    }
  }
  Out += "}\n";
  return Out;
}
