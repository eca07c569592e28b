//===- JitEmitter.cpp - x86-64 template emitter for fast streams -----------===//
//
// One template per XOp, emitted in stream order. Semantics are pinned to
// the interpreter in FastEngine.cpp and ir::evalBin/evalUn: every template
// must be bit-exact against those, including division edge cases (which
// route through helpers built on evalBin itself so divergence is
// impossible, except for a divisor known to be a positive power of two,
// whose truncating quotient and remainder are emitted inline) and the
// hardware-masked shift counts (shl/shr/sar with cl mask the count to 6
// bits, exactly the `& 63` in evalBin).
//
//===----------------------------------------------------------------------===//

#include "src/jit/JitEmitter.h"

#include "src/facile/Ir.h"
#include "src/isa/TargetImage.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>

using namespace facile;
using namespace facile::jit;
using namespace facile::rt;

// The emitter hard-codes JitFrame field displacements; pin them here.
static_assert(offsetof(JitFrame, Slots) == 0, "frame layout is ABI");
static_assert(offsetof(JitFrame, Globals) == 8, "frame layout is ABI");
static_assert(offsetof(JitFrame, Arrays) == 16, "frame layout is ABI");
static_assert(offsetof(JitFrame, LocArrays) == 24, "frame layout is ABI");
static_assert(offsetof(JitFrame, Mem) == 32, "frame layout is ABI");
static_assert(offsetof(JitFrame, Sim) == 40, "frame layout is ABI");
static_assert(offsetof(JitFrame, RetiredTotal) == 48, "frame layout is ABI");
static_assert(offsetof(JitFrame, RetiredFast) == 56, "frame layout is ABI");
static_assert(offsetof(JitFrame, Cycles) == 64, "frame layout is ABI");
static_assert(offsetof(JitFrame, Halt) == 72, "frame layout is ABI");
static_assert(offsetof(JitFrame, ExternRet) == 80, "frame layout is ABI");
static_assert(offsetof(JitFrame, BaseData) == 88, "frame layout is ABI");
static_assert(offsetof(JitFrame, StatSlots) == 96, "frame layout is ABI");
static_assert(offsetof(JitFrame, StatGlobals) == 104, "frame layout is ABI");
static_assert(offsetof(JitFrame, StatArrays) == 112, "frame layout is ABI");
static_assert(offsetof(JitFrame, StatLocArrays) == 120, "frame layout is ABI");
static_assert(offsetof(JitFrame, Capture) == 128, "frame layout is ABI");
static_assert(offsetof(JitFrame, CaptureEnd) == 136, "frame layout is ABI");
static_assert(offsetof(JitFrame, SlowBlock) == 144, "frame layout is ABI");
static_assert(offsetof(JitFrame, OverlayData) == 152, "frame layout is ABI");
static_assert(offsetof(JitFrame, ChainStub) == 160, "frame layout is ABI");
static_assert(offsetof(JitFrame, ChainBudget) == 168, "frame layout is ABI");
static_assert(offsetof(JitFrame, ChainEntry) == 176, "frame layout is ABI");
static_assert(offsetof(JitFrame, ChainEpoch) == 184, "frame layout is ABI");
static_assert(offsetof(JitFrame, ChainSlots) == 192, "frame layout is ABI");
static_assert(offsetof(JitFrame, ChainSlotCount) == 200, "frame layout is ABI");
static_assert(offsetof(JitFrame, ChainTable) == 208, "frame layout is ABI");
static_assert(offsetof(JitFrame, ChainEntries) == 216, "frame layout is ABI");
static_assert(offsetof(JitFrame, ChainTick) == 224, "frame layout is ABI");
static_assert(offsetof(JitFrame, Steps) == 232, "frame layout is ABI");
static_assert(offsetof(JitFrame, StateKey) == 240, "frame layout is ABI");
static_assert(offsetof(JitFrame, MemLatch) == 248, "frame layout is ABI");
static_assert(offsetof(JitFrame, NodeLog) == 256, "frame layout is ABI");
static_assert(offsetof(JitFrame, NodeLogEnd) == 264, "frame layout is ABI");
static_assert(offsetof(TraceBind, SpanOfs) == 4, "binding layout is ABI");
static_assert(offsetof(TraceSlot, Gen) == 8, "slot layout is ABI");
static_assert(offsetof(TraceSlot, Epoch) == 16, "slot layout is ABI");
static_assert(offsetof(TraceSlot, TableOfs) == 24, "slot layout is ABI");
static_assert(offsetof(ChainLink, Key) == 4, "link layout is ABI");
static_assert(offsetof(ChainLink, Gen) == 8, "link layout is ABI");

bool jit::available() {
#if defined(__x86_64__) && (defined(__unix__) || defined(__APPLE__))
  return true;
#else
  return false;
#endif
}

namespace {

//===----------------------------------------------------------------------===//
// Helper functions compiled code calls out to (addresses baked as imm64).
// Div/Rem route through evalBin so the edge cases (B==0, B==-1, INT64_MIN)
// can never diverge from the interpreter.
//===----------------------------------------------------------------------===//

int64_t helpDiv(int64_t A, int64_t B) {
  return ir::evalBin(ast::BinOp::Div, A, B);
}
int64_t helpRem(int64_t A, int64_t B) {
  return ir::evalBin(ast::BinOp::Rem, A, B);
}
void helpFill(int64_t *P, uint64_t N, int64_t V) {
  for (uint64_t I = 0; I != N; ++I)
    P[I] = V;
}
void helpCopy(int64_t *Dst, const int64_t *Src, uint64_t Words) {
  std::memcpy(Dst, Src, Words * 8);
}

//===----------------------------------------------------------------------===//
// A minimal x86-64 encoder: exactly the forms the templates need.
//===----------------------------------------------------------------------===//

enum Reg : unsigned {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

// setcc / jcc condition codes.
enum Cond : uint8_t {
  CcB = 0x2,
  CcAE = 0x3,
  CcE = 0x4,
  CcNE = 0x5,
  CcA = 0x7,
  CcL = 0xC,
  CcGE = 0xD,
  CcLE = 0xE,
  CcG = 0xF,
};

class Asm {
public:
  std::vector<uint8_t> Code;

  size_t size() const { return Code.size(); }

  void u8(uint8_t V) { Code.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      u8(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      u8(static_cast<uint8_t>(V >> (8 * I)));
  }

  /// REX prefix; emitted when a bit is set or \p Force (REX.W paths pass
  /// Force implicitly via W).
  void rex(bool W, unsigned R, unsigned X, unsigned B) {
    uint8_t V = 0x40 | (static_cast<uint8_t>(W) << 3) | ((R >> 3) << 2) |
                ((X >> 3) << 1) | (B >> 3);
    if (V != 0x40)
      u8(V);
  }

  /// ModRM for [Base+Disp] (disp8 when it fits, else disp32; SIB when
  /// Base is rsp/r12). Never patched after emission, so the width can
  /// vary freely.
  void memRM(unsigned RegField, unsigned Base, int32_t Disp) {
    const bool Small = Disp >= -128 && Disp <= 127;
    const uint8_t Mod = Small ? 0x40 : 0x80;
    if ((Base & 7) == 4) {
      u8(Mod | 0x04 | ((RegField & 7) << 3));
      u8(0x24);
    } else {
      u8(Mod | ((RegField & 7) << 3) | (Base & 7));
    }
    if (Small)
      u8(static_cast<uint8_t>(Disp));
    else
      u32(static_cast<uint32_t>(Disp));
  }

  /// ModRM+SIB for [Base + Index<<ScaleLog] (disp8 = 0 form: valid for
  /// every base register).
  void memSIB(unsigned RegField, unsigned Base, unsigned Index,
              unsigned ScaleLog) {
    u8(0x44 | ((RegField & 7) << 3));
    u8(static_cast<uint8_t>((ScaleLog << 6) | ((Index & 7) << 3) | (Base & 7)));
    u8(0);
  }

  void modRR(unsigned RegField, unsigned Rm) {
    u8(0xC0 | ((RegField & 7) << 3) | (Rm & 7));
  }

  void push(unsigned R) {
    rex(false, 0, 0, R);
    u8(0x50 | (R & 7));
  }
  void pop(unsigned R) {
    rex(false, 0, 0, R);
    u8(0x58 | (R & 7));
  }
  void ret() { u8(0xC3); }

  void movRR(unsigned D, unsigned S) { // mov D, S (64-bit)
    rex(true, S, 0, D);
    u8(0x89);
    modRR(S, D);
  }
  void movR32R32(unsigned D, unsigned S) { // mov D32, S32 (zero-extends)
    rex(false, S, 0, D);
    u8(0x89);
    modRR(S, D);
  }
  void movRM(unsigned D, unsigned Base, int32_t Disp) { // mov D, [Base+Disp]
    rex(true, D, 0, Base);
    u8(0x8B);
    memRM(D, Base, Disp);
  }
  void movMR(unsigned Base, int32_t Disp, unsigned S) { // mov [Base+Disp], S
    rex(true, S, 0, Base);
    u8(0x89);
    memRM(S, Base, Disp);
  }
  void movRI64(unsigned D, uint64_t Imm) { // movabs D, Imm
    rex(true, 0, 0, D);
    u8(0xB8 | (D & 7));
    u64(Imm);
  }
  void movRI32(unsigned D, uint32_t Imm) { // mov D32, Imm (zero-extends)
    rex(false, 0, 0, D);
    u8(0xB8 | (D & 7));
    u32(Imm);
  }
  void movRI32s(unsigned D, int32_t Imm) { // mov D, sign-extended Imm
    rex(true, 0, 0, D);
    u8(0xC7);
    modRR(0, D);
    u32(static_cast<uint32_t>(Imm));
  }

  /// Two-register ALU, `op rm64, reg64` form. Op: 01 add, 29 sub, 21 and,
  /// 09 or, 31 xor, 39 cmp, 85 test.
  void alu(uint8_t Op, unsigned Rm, unsigned RegField) {
    rex(true, RegField, 0, Rm);
    u8(Op);
    modRR(RegField, Rm);
  }
  void imulRR(unsigned D, unsigned S) { // imul D, S
    rex(true, D, 0, S);
    u8(0x0F);
    u8(0xAF);
    modRR(D, S);
  }
  void unaryF7(uint8_t Ext, unsigned R) { // F7 /Ext: not=2 neg=3 div=6
    rex(true, 0, 0, R);
    u8(0xF7);
    modRR(Ext, R);
  }
  void shiftCl(uint8_t Ext, unsigned R) { // D3 /Ext: shl=4 shr=5 sar=7
    rex(true, 0, 0, R);
    u8(0xD3);
    modRR(Ext, R);
  }
  void shiftImm(uint8_t Ext, unsigned R, uint8_t N) {
    rex(true, 0, 0, R);
    u8(0xC1);
    modRR(Ext, R);
    u8(N);
  }
  void setccAl(uint8_t Cc) { // setcc al
    u8(0x0F);
    u8(0x90 | Cc);
    u8(0xC0);
  }
  void setccCl(uint8_t Cc) { // setcc cl
    u8(0x0F);
    u8(0x90 | Cc);
    u8(0xC1);
  }
  void andAlCl() { u8(0x20), u8(0xC8); } // and al, cl
  void orAlCl() { u8(0x08), u8(0xC8); }  // or al, cl
  void testAlAl() { u8(0x84), u8(0xC0); }
  void movzxRAl(unsigned D) { // movzx D64, al
    rex(true, D, 0, 0);
    u8(0x0F);
    u8(0xB6);
    modRR(D, 0);
  }
  void xorR32(unsigned R) { // xor R32, R32 (zeroes R)
    rex(false, R, 0, R);
    u8(0x31);
    modRR(R, R);
  }
  void cmpR32I32(unsigned R, uint32_t Imm) { // cmp R32, Imm
    rex(false, 0, 0, R);
    u8(0x81);
    modRR(7, R);
    u32(Imm);
  }
  void subR32I32(unsigned R, uint32_t Imm) { // sub R32, Imm
    rex(false, 0, 0, R);
    u8(0x81);
    modRR(5, R);
    u32(Imm);
  }
  void shrR32Imm(unsigned R, uint8_t N) { // shr R32, N
    rex(false, 0, 0, R);
    u8(0xC1);
    modRR(5, R);
    u8(N);
  }
  /// ALU r64, sign-extended immediate (imm8 form when it fits).
  void aluRI(uint8_t Ext, unsigned R, int32_t Imm) {
    rex(true, 0, 0, R);
    if (Imm >= -128 && Imm <= 127) {
      u8(0x83);
      modRR(Ext, R);
      u8(static_cast<uint8_t>(Imm));
    } else {
      u8(0x81);
      modRR(Ext, R);
      u32(static_cast<uint32_t>(Imm));
    }
  }
  void andRI32(unsigned R, int32_t Imm) { aluRI(4, R, Imm); }
  void addRI32(unsigned R, int32_t Imm) { aluRI(0, R, Imm); }
  void subRI32(unsigned R, int32_t Imm) { aluRI(5, R, Imm); }
  void leaRM(unsigned D, unsigned Base, int32_t Disp) {
    rex(true, D, 0, Base);
    u8(0x8D);
    memRM(D, Base, Disp);
  }
  void movR32M(unsigned D, unsigned Base, int32_t Disp) {
    rex(false, D, 0, Base); // mov D32, [Base+Disp] (zero-extends)
    u8(0x8B);
    memRM(D, Base, Disp);
  }
  /// lea D, [Base + disp32] with the displacement left to patch32();
  /// returns its position. Base must not be rsp/r12 (no SIB form).
  size_t leaRM32(unsigned D, unsigned Base) {
    rex(true, D, 0, Base);
    u8(0x8D);
    u8(0x80 | ((D & 7) << 3) | (Base & 7));
    size_t P = size();
    u32(0);
    return P;
  }
  void patch32(size_t Pos, int32_t V) { std::memcpy(&Code[Pos], &V, 4); }
  void leaIdx8(unsigned D, unsigned Base, unsigned Idx) {
    rex(true, D, Idx, Base); // lea D, [Base+Idx*8]
    u8(0x8D);
    memSIB(D, Base, Idx, 3);
  }
  void movRMIdx8(unsigned D, unsigned Base, unsigned Idx) {
    rex(true, D, Idx, Base); // mov D, [Base+Idx*8]
    u8(0x8B);
    memSIB(D, Base, Idx, 3);
  }
  void movMRIdx8(unsigned Base, unsigned Idx, unsigned S) {
    rex(true, S, Idx, Base); // mov [Base+Idx*8], S
    u8(0x89);
    memSIB(S, Base, Idx, 3);
  }
  void movR32MIdx4(unsigned D, unsigned Base, unsigned Idx) {
    rex(false, D, Idx, Base); // mov D32, [Base+Idx*4] (zero-extends)
    u8(0x8B);
    memSIB(D, Base, Idx, 2);
  }
  void addMR(unsigned Base, int32_t Disp, unsigned S) { // add [Base+Disp], S
    rex(true, S, 0, Base);
    u8(0x01);
    memRM(S, Base, Disp);
  }
  void movMI32(unsigned Base, int32_t Disp, int32_t Imm) { // mov qword [..], simm32
    rex(true, 0, 0, Base);
    u8(0xC7);
    memRM(0, Base, Disp);
    u32(static_cast<uint32_t>(Imm));
  }
  /// lea D, [rip + rel32]: emits a rel32 placeholder, returns its position
  /// (patch() resolves it like a jump: rip is the end of the displacement).
  size_t leaRip(unsigned D) {
    rex(true, D, 0, 0);
    u8(0x8D);
    u8(0x05 | ((D & 7) << 3));
    size_t P = size();
    u32(0);
    return P;
  }
  void movsxdIdx4(unsigned D, unsigned Base, unsigned Idx) {
    rex(true, D, Idx, Base); // movsxd D, dword [Base+Idx*4]
    u8(0x63);
    memSIB(D, Base, Idx, 2);
  }
  void jmpR(unsigned R) {
    rex(false, 0, 0, R);
    u8(0xFF);
    modRR(4, R);
  }
  void jmpM(unsigned Base, int32_t Disp) { // jmp qword [Base+Disp]
    rex(false, 0, 0, Base);
    u8(0xFF);
    memRM(4, Base, Disp);
  }
  void movzxR32R16(unsigned D, unsigned S) { // movzx D32, S16
    rex(false, D, 0, S);
    u8(0x0F);
    u8(0xB7);
    modRR(D, S);
  }
  void movzxR32M8(unsigned D, unsigned Base, int32_t Disp) {
    rex(false, D, 0, Base); // movzx D32, byte [Base+Disp]
    u8(0x0F);
    u8(0xB6);
    memRM(D, Base, Disp);
  }
  void movM32R(unsigned Base, int32_t Disp, unsigned S) { // mov [..], S32
    rex(false, S, 0, Base);
    u8(0x89);
    memRM(S, Base, Disp);
  }
  void imulRRI(unsigned D, unsigned S, int32_t Imm) { // imul D, S, Imm
    rex(true, D, 0, S);
    u8(0x69);
    modRR(D, S);
    u32(static_cast<uint32_t>(Imm));
  }
  void movMI8(unsigned Base, int32_t Disp, uint8_t Imm) { // mov byte [..], Imm
    rex(false, 0, 0, Base);
    u8(0xC6);
    memRM(0, Base, Disp);
    u8(Imm);
  }
  void callR(unsigned R) {
    rex(false, 0, 0, R);
    u8(0xFF);
    modRR(2, R);
  }
  /// Call through an absolute address (clobbers r10, a scratch register).
  void callAbs(const void *Fn) {
    movRI64(R10, reinterpret_cast<uint64_t>(Fn));
    callR(R10);
  }

  /// Forward jcc/jmp: emits a rel32 placeholder, returns its position.
  size_t jcc(uint8_t Cc) {
    u8(0x0F);
    u8(0x80 | Cc);
    size_t P = size();
    u32(0);
    return P;
  }
  size_t jmp() {
    u8(0xE9);
    size_t P = size();
    u32(0);
    return P;
  }
  /// Patches the rel32 at \p Pos to land on \p Target.
  void patch(size_t Pos, size_t Target) {
    int32_t Rel = static_cast<int32_t>(static_cast<int64_t>(Target) -
                                       static_cast<int64_t>(Pos + 4));
    std::memcpy(&Code[Pos], &Rel, 4);
  }
  /// Patches the rel32 at \p Pos to land here.
  void patchHere(size_t Pos) { patch(Pos, size()); }
};

//===----------------------------------------------------------------------===//
// Action bodies and the slow-step function
//===----------------------------------------------------------------------===//

class ActionCompiler {
public:
  ActionCompiler(const EmitContext &Ctx, Asm &A) : Ctx(Ctx), A(A) {}

  /// Emits the instruction stream of \p Action at the current code
  /// position — no prologue, epilogue or bail stubs. The register
  /// contract is the standing one (rbx/r12/r13/r14/r15); the placeholder
  /// cursor restarts at Span[0], so the caller must point r13 at the
  /// node's span first. Bail jump sites accumulate in FetchBails /
  /// ExternBails for the caller to patch.
  bool emitBody(uint32_t Action, uint32_t &WordsOut);

  /// Compiles the plan's whole slow stream into one function; see
  /// jit::emitSlowStep. Register plan: rbp = StatSlots base, r13 = capture
  /// cursor and r15 = node-log cursor (recording variants only); the rest
  /// as for fast streams.
  bool compileSlowStep(bool Recording, uint32_t &CaptureWordsOut);

  std::vector<size_t> FetchBails;
  std::vector<size_t> ExternBails;

private:
  const EmitContext &Ctx;
  Asm &A;
  uint32_t K = 0; ///< compile-time placeholder cursor (Span word index)
  bool Slow = false;      ///< emitting slow-stream (complete) block bodies
  bool Recording = false; ///< current slow block captures placeholder words
  bool InStatic = false;  ///< current instruction is run-time static
  uint32_t CapWords = 0;  ///< words one execution of the block captures
  /// Per slot: the value a Const of the current slow block stored to the
  /// slot's StatSlots word, valid while ConstBlock[Slot] == Block (any
  /// later store to the slot clears it). Lets a division by a constant
  /// power of two compile inline.
  std::vector<int64_t> ConstVal;
  std::vector<uint32_t> ConstBlock;
  uint32_t Block = 0; ///< 1 + the slow block being emitted; 0 otherwise

  bool slotOk(uint32_t Slot) const { return Slot < Ctx.NumSlots; }
  /// Appends the value in \p Src to the capture buffer (action blocks of
  /// recording slow variants).
  void capture(unsigned Src) {
    ++CapWords;
    if (!Recording)
      return;
    A.movMR(R13, 0, Src);
    A.addRI32(R13, 8);
  }
  /// Loads operand (slot \p Slot at StaticOperands position \p Pos of
  /// \p I) into \p Dst. Fast streams: a fixed Span displacement for
  /// placeholder operands, a fixed DynSlots displacement otherwise. Slow
  /// streams mirror the recording interpreter's readOperand: rt-static
  /// instructions read StatSlots only; dynamic instructions read StatSlots
  /// and capture for placeholder operands, DynSlots otherwise.
  bool loadOp(const XInst &I, unsigned Dst, uint32_t Slot, unsigned Pos) {
    if (Slow && InStatic) {
      if (!slotOk(Slot))
        return false;
      A.movRM(Dst, RBP, 8 * static_cast<int32_t>(Slot));
      return true;
    }
    if (I.StaticOperands & (1u << Pos)) {
      if (!Slow) {
        A.movRM(Dst, R13, 8 * static_cast<int32_t>(K++));
        return true;
      }
      if (!slotOk(Slot))
        return false;
      A.movRM(Dst, RBP, 8 * static_cast<int32_t>(Slot));
      capture(Dst);
      return true;
    }
    if (!slotOk(Slot))
      return false;
    A.movRM(Dst, R12, 8 * static_cast<int32_t>(Slot));
    return true;
  }
  bool storeSlot(uint32_t Dst, unsigned Src = RAX) {
    if (!slotOk(Dst))
      return false;
    if (Dst < ConstBlock.size())
      ConstBlock[Dst] = 0;
    A.movMR(Slow && InStatic ? RBP : R12, 8 * static_cast<int32_t>(Dst), Src);
    return true;
  }
  /// The value operand \p Pos of \p I (slot \p Slot) is known to hold:
  /// loadOp read it from StatSlots, where a Const of this block put it.
  bool knownConst(const XInst &I, uint32_t Slot, unsigned Pos,
                  int64_t &V) const {
    if (!Slow || !(InStatic || (I.StaticOperands & (1u << Pos))) ||
        Slot >= ConstBlock.size() || Block == 0 || ConstBlock[Slot] != Block)
      return false;
    V = ConstVal[Slot];
    return true;
  }
  /// rax = rax / 2^K or rax % 2^K, truncating toward zero as evalBin does
  /// for a positive divisor (clobbers rcx/rdx): a negative dividend is
  /// biased by 2^K - 1 first.
  void divPow2(bool Rem, unsigned K) {
    if (K == 0) {
      if (Rem)
        A.xorR32(RAX);
      return;
    }
    A.movRR(RDX, RAX);
    A.shiftImm(7, RDX, 63);                            // sar: 0 or -1
    A.shiftImm(5, RDX, static_cast<uint8_t>(64 - K)); // shr: bias
    A.alu(0x01, RAX, RDX);                             // add rax, rdx
    if (!Rem) {
      A.shiftImm(7, RAX, static_cast<uint8_t>(K)); // sar
      return;
    }
    const uint64_t Mask = (uint64_t(1) << K) - 1;
    if (Mask <= INT32_MAX) {
      A.andRI32(RAX, static_cast<int32_t>(Mask));
    } else {
      A.movRI64(RCX, Mask);
      A.alu(0x21, RAX, RCX); // and rax, rcx
    }
    A.alu(0x29, RAX, RDX); // sub rax, rdx
  }
  /// Loads global \p Id of the current domain into \p Dst (the static
  /// domain indirects through the frame; the dynamic one sits in r14).
  void loadGlobal(unsigned Dst, uint32_t Id) {
    if (Slow && InStatic) {
      A.movRM(Dst, RBX, 104);
      A.movRM(Dst, Dst, 8 * static_cast<int32_t>(Id));
    } else {
      A.movRM(Dst, R14, 8 * static_cast<int32_t>(Id));
    }
  }
  /// Stores \p Src to global \p Id of the current domain; \p Tmp is
  /// clobbered in the static domain.
  void storeGlobal(uint32_t Id, unsigned Src, unsigned Tmp) {
    if (Slow && InStatic) {
      A.movRM(Tmp, RBX, 104);
      A.movMR(Tmp, 8 * static_cast<int32_t>(Id), Src);
    } else {
      A.movMR(R14, 8 * static_cast<int32_t>(Id), Src);
    }
  }
  /// Frame offset of the array-pointer table for the current domain.
  int32_t arrayTableOfs(bool Local) const {
    if (Slow && InStatic)
      return Local ? 120 : 112;
    return Local ? 24 : 16;
  }
  /// Wraps the index in \p RAX modulo \p Size (clobbers rcx/rdx):
  /// (uint64_t)V % Size, matching rt::wrapIndex.
  void wrapIndex(uint32_t Size) {
    if ((Size & (Size - 1)) == 0) { // power of two: mask (fits simm32)
      if (Size == 1)
        A.xorR32(RAX);
      else
        A.andRI32(RAX, static_cast<int32_t>(Size - 1));
      return;
    }
    A.movRI32(RCX, Size);
    A.xorR32(RDX);
    A.unaryF7(6, RCX); // div rcx: rax = quot, rdx = rem
    A.movRR(RAX, RDX);
  }

  bool emitInst(const XInst &I, uint32_t FastIdx);
  bool emitBin(const XInst &I);
  bool emitUn(const XInst &I);
};

bool ActionCompiler::emitBin(const XInst &I) {
  if (!loadOp(I, RAX, I.A, 0) || !loadOp(I, RCX, I.B, 1))
    return false;
  switch (static_cast<ast::BinOp>(I.Kind)) {
  case ast::BinOp::Add:
    A.alu(0x01, RAX, RCX);
    break;
  case ast::BinOp::Sub:
    A.alu(0x29, RAX, RCX);
    break;
  case ast::BinOp::Mul:
    A.imulRR(RAX, RCX);
    break;
  case ast::BinOp::Div:
  case ast::BinOp::Rem: {
    const bool Rem = static_cast<ast::BinOp>(I.Kind) == ast::BinOp::Rem;
    int64_t D = 0;
    if (knownConst(I, I.B, 1, D) && D > 0 && (D & (D - 1)) == 0) {
      divPow2(Rem, static_cast<unsigned>(__builtin_ctzll(
                       static_cast<uint64_t>(D))));
      break;
    }
    // Edge cases (B==0, B==-1 with INT64_MIN) are defined by evalBin; the
    // helpers are built on it, so this cannot diverge.
    A.movRR(RDI, RAX);
    A.movRR(RSI, RCX);
    A.callAbs(reinterpret_cast<const void *>(Rem ? &helpRem : &helpDiv));
    break;
  }
  case ast::BinOp::And:
    A.alu(0x21, RAX, RCX);
    break;
  case ast::BinOp::Or:
    A.alu(0x09, RAX, RCX);
    break;
  case ast::BinOp::Xor:
    A.alu(0x31, RAX, RCX);
    break;
  case ast::BinOp::Shl:
    A.shiftCl(4, RAX); // hardware masks the count to 6 bits == `& 63`
    break;
  case ast::BinOp::Shr:
    A.shiftCl(5, RAX); // logical right shift, count masked
    break;
  case ast::BinOp::Lt:
  case ast::BinOp::Le:
  case ast::BinOp::Gt:
  case ast::BinOp::Ge:
  case ast::BinOp::Eq:
  case ast::BinOp::Ne: {
    uint8_t Cc = CcL;
    switch (static_cast<ast::BinOp>(I.Kind)) {
    case ast::BinOp::Lt:
      Cc = CcL;
      break;
    case ast::BinOp::Le:
      Cc = CcLE;
      break;
    case ast::BinOp::Gt:
      Cc = CcG;
      break;
    case ast::BinOp::Ge:
      Cc = CcGE;
      break;
    case ast::BinOp::Eq:
      Cc = CcE;
      break;
    default:
      Cc = CcNE;
      break;
    }
    A.alu(0x39, RAX, RCX); // cmp rax, rcx
    A.setccAl(Cc);
    A.movzxRAl(RAX);
    break;
  }
  case ast::BinOp::LogAnd:
  case ast::BinOp::LogOr:
    A.alu(0x85, RAX, RAX); // test rax, rax
    A.setccAl(CcNE);
    A.alu(0x85, RCX, RCX);
    A.setccCl(CcNE);
    if (static_cast<ast::BinOp>(I.Kind) == ast::BinOp::LogAnd)
      A.andAlCl();
    else
      A.orAlCl();
    A.movzxRAl(RAX);
    break;
  default:
    return false;
  }
  return storeSlot(I.Dst);
}

bool ActionCompiler::emitUn(const XInst &I) {
  if (!loadOp(I, RAX, I.A, 0))
    return false;
  int64_t W = I.Imm; // bit width for Sext/Zext
  switch (static_cast<ir::UnKind>(I.Kind)) {
  case ir::UnKind::Neg:
    A.unaryF7(3, RAX);
    break;
  case ir::UnKind::Not:
    A.alu(0x85, RAX, RAX);
    A.setccAl(CcE);
    A.movzxRAl(RAX);
    break;
  case ir::UnKind::BitNot:
    A.unaryF7(2, RAX);
    break;
  case ir::UnKind::Sext:
    if (W < 1)
      return false;
    if (W < 64) {
      A.shiftImm(4, RAX, static_cast<uint8_t>(64 - W));
      A.shiftImm(7, RAX, static_cast<uint8_t>(64 - W)); // sar
    }
    break;
  case ir::UnKind::Zext:
    if (W < 1)
      return false;
    if (W < 64) {
      A.shiftImm(4, RAX, static_cast<uint8_t>(64 - W));
      A.shiftImm(5, RAX, static_cast<uint8_t>(64 - W)); // shr
    }
    break;
  default:
    return false;
  }
  return storeSlot(I.Dst);
}

bool ActionCompiler::emitInst(const XInst &I, uint32_t FastIdx) {
  const ExecPlan &P = *Ctx.Plan;
  const isa::TargetImage &Img = *Ctx.Image;
  switch (I.Opcode) {
  case XOp::Const:
    // Only ever run-time static (the fast streams are dynamic-only).
    if (!(Slow && InStatic))
      return false;
    if (I.Imm >= INT32_MIN && I.Imm <= INT32_MAX)
      A.movRI32s(RAX, static_cast<int32_t>(I.Imm));
    else
      A.movRI64(RAX, static_cast<uint64_t>(I.Imm));
    if (!storeSlot(I.Dst))
      return false;
    ConstVal[I.Dst] = I.Imm;
    ConstBlock[I.Dst] = Block;
    return true;
  case XOp::Copy:
    return loadOp(I, RAX, I.A, 0) && storeSlot(I.Dst);
  case XOp::Bin:
    return emitBin(I);
  case XOp::Un:
    return emitUn(I);
  case XOp::LoadGlobal:
    if (I.Id >= Ctx.ArraySizes.size())
      return false;
    loadGlobal(RAX, I.Id);
    return storeSlot(I.Dst);
  case XOp::StoreGlobal:
    if (I.Id >= Ctx.ArraySizes.size() || !loadOp(I, RAX, I.A, 0))
      return false;
    storeGlobal(I.Id, RAX, RCX);
    return true;
  case XOp::LoadElem:
  case XOp::LoadLocElem: {
    bool Local = I.Opcode == XOp::LoadLocElem;
    const std::vector<uint32_t> &Sizes =
        Local ? Ctx.LocArraySizes : Ctx.ArraySizes;
    if (I.Id >= Sizes.size() || Sizes[I.Id] == 0 || !loadOp(I, RAX, I.A, 0))
      return false;
    wrapIndex(Sizes[I.Id]);
    A.movRM(RCX, RBX, arrayTableOfs(Local));
    A.movRM(RCX, RCX, 8 * static_cast<int32_t>(I.Id));
    A.movRMIdx8(RAX, RCX, RAX);
    return storeSlot(I.Dst);
  }
  case XOp::StoreElem:
  case XOp::StoreLocElem: {
    bool Local = I.Opcode == XOp::StoreLocElem;
    const std::vector<uint32_t> &Sizes =
        Local ? Ctx.LocArraySizes : Ctx.ArraySizes;
    if (I.Id >= Sizes.size() || Sizes[I.Id] == 0 ||
        !loadOp(I, RAX, I.A, 0) || !loadOp(I, R8, I.B, 1))
      return false;
    wrapIndex(Sizes[I.Id]);
    A.movRM(RCX, RBX, arrayTableOfs(Local));
    A.movRM(RCX, RCX, 8 * static_cast<int32_t>(I.Id));
    A.movMRIdx8(RCX, RAX, R8);
    return true;
  }
  case XOp::InitLocArray:
    if (I.Id >= Ctx.LocArraySizes.size() || !loadOp(I, RDX, I.A, 0))
      return false;
    A.movRM(RDI, RBX, arrayTableOfs(/*Local=*/true));
    A.movRM(RDI, RDI, 8 * static_cast<int32_t>(I.Id));
    A.movRI32(RSI, Ctx.LocArraySizes[I.Id]);
    A.callAbs(reinterpret_cast<const void *>(&helpFill));
    return true;
  case XOp::Fetch: {
    if (!loadOp(I, RAX, I.A, 0))
      return false;
    uint32_t Lo = Img.TextBase, Hi = Img.textEnd();
    A.movR32R32(RCX, RAX); // ecx = (uint32_t)addr
    A.cmpR32I32(RCX, Lo);
    size_t J1 = A.jcc(CcB);
    A.cmpR32I32(RCX, Hi);
    size_t J2 = A.jcc(CcAE);
    // Out of range: bail; the caller raises the interpreter's immediate
    // DecodeError.
    FetchBails.push_back(J1);
    FetchBails.push_back(J2);
    A.subR32I32(RCX, Lo);
    A.shrR32Imm(RCX, 2);
    A.movRI64(RDX, reinterpret_cast<uint64_t>(Img.Text.data()));
    A.movR32MIdx4(RAX, RDX, RCX);
    return storeSlot(I.Dst);
  }
  case XOp::CallExtern: {
    if (InStatic || I.ArgCount > 16 ||
        static_cast<uint64_t>(I.ArgOfs) + I.ArgCount > P.ArgPool.size())
      return false;
    for (unsigned Arg = 0; Arg != I.ArgCount; ++Arg) {
      if (!loadOp(I, RAX, P.ArgPool[I.ArgOfs + Arg], 2 + Arg))
        return false;
      A.movMR(RSP, 8 * static_cast<int32_t>(Arg), RAX);
    }
    A.movRM(RDI, RBX, 40); // Simulation*
    A.movRI32(RSI, FastIdx); // Fast index (fast streams) / Code index (slow)
    A.movRR(RDX, RSP);
    A.leaRM(RCX, RBX, 80); // &Frame.ExternRet
    A.callAbs(reinterpret_cast<const void *>(Slow ? Ctx.Hooks.ExternSlow
                                                  : Ctx.Hooks.Extern));
    A.testAlAl();
    ExternBails.push_back(A.jcc(CcE)); // jz: fault already raised
    if (I.Dst != ir::NoSlot) {
      A.movRM(RAX, RBX, 80);
      return storeSlot(I.Dst);
    }
    return true;
  }
  case XOp::MemLd:
  case XOp::MemLd8:
    if (!loadOp(I, RAX, I.A, 0))
      return false;
    A.movRM(RDI, RBX, 32); // TargetMemory*
    A.movR32R32(RSI, RAX); // (uint32_t)addr
    A.callAbs(reinterpret_cast<const void *>(
        I.Opcode == XOp::MemLd ? Ctx.Hooks.MemRead32 : Ctx.Hooks.MemRead8));
    return storeSlot(I.Dst);
  case XOp::MemSt:
  case XOp::MemSt8: {
    if (!loadOp(I, RAX, I.A, 0) || !loadOp(I, RCX, I.B, 1))
      return false;
    A.movRM(RDI, RBX, 32);
    A.movR32R32(RSI, RAX);
    // The value travels in edx either way; the uint8_t callee reads dl.
    A.movR32R32(RDX, RCX);
    const void *Fn =
        I.Opcode == XOp::MemSt
            ? reinterpret_cast<const void *>(Ctx.Hooks.MemWrite32)
            : reinterpret_cast<const void *>(Ctx.Hooks.MemWrite8);
    A.callAbs(Fn);
    return true;
  }
  case XOp::SimHalt:
    A.movRM(RAX, RBX, 72);
    A.movMI8(RAX, 0, 1);
    return true;
  case XOp::Retire:
    if (!loadOp(I, RAX, I.A, 0))
      return false;
    A.movRM(RCX, RBX, 48);
    A.addMR(RCX, 0, RAX);
    if (!Slow) { // the fast engine also counts replayed retires
      A.movRM(RCX, RBX, 56);
      A.addMR(RCX, 0, RAX);
    }
    return true;
  case XOp::Cycles:
    if (!loadOp(I, RAX, I.A, 0))
      return false;
    A.movRM(RCX, RBX, 64);
    A.addMR(RCX, 0, RAX);
    return true;
  case XOp::TextStart:
    A.movRI32(RAX, Img.TextBase);
    return storeSlot(I.Dst);
  case XOp::TextEnd:
    A.movRI32(RAX, Img.textEnd());
    return storeSlot(I.Dst);
  case XOp::Print:
    if (!loadOp(I, RDI, I.A, 0))
      return false;
    A.callAbs(reinterpret_cast<const void *>(Ctx.Hooks.Print));
    return true;
  case XOp::SyncSlot:
    if (!Slow) {
      A.movRM(RAX, R13, 8 * static_cast<int32_t>(K++));
      return storeSlot(I.Dst);
    }
    // Recording side: the static value is memoized, then installed.
    if (!slotOk(I.Dst))
      return false;
    A.movRM(RAX, RBP, 8 * static_cast<int32_t>(I.Dst));
    capture(RAX);
    return storeSlot(I.Dst);
  case XOp::SyncGlobal:
    if (I.Id >= Ctx.ArraySizes.size())
      return false;
    if (!Slow) {
      A.movRM(RAX, R13, 8 * static_cast<int32_t>(K++));
    } else {
      A.movRM(RAX, RBX, 104);
      A.movRM(RAX, RAX, 8 * static_cast<int32_t>(I.Id));
      capture(RAX);
    }
    A.movMR(R14, 8 * static_cast<int32_t>(I.Id), RAX);
    return true;
  case XOp::SyncArray: {
    if (I.Id >= Ctx.ArraySizes.size())
      return false;
    uint32_t Size = Ctx.ArraySizes[I.Id];
    if (Size == 0)
      return true; // memcpy of zero words; consumes nothing
    if (!Slow) {
      A.movRM(RDI, RBX, 16);
      A.movRM(RDI, RDI, 8 * static_cast<int32_t>(I.Id));
      A.leaRM(RSI, R13, 8 * static_cast<int32_t>(K));
      A.movRI32(RDX, Size);
      A.callAbs(reinterpret_cast<const void *>(&helpCopy));
      K += Size;
      return true;
    }
    // Recording side: memoize the whole static array, then install it.
    // The interpreter interleaves per element; the source is loop-
    // invariant, so capture-then-copy pushes the identical word sequence.
    CapWords += Size;
    if (Recording) {
      A.movRM(RSI, RBX, 112);
      A.movRM(RSI, RSI, 8 * static_cast<int32_t>(I.Id));
      A.movRR(RDI, R13);
      A.movRI32(RDX, Size);
      A.callAbs(reinterpret_cast<const void *>(&helpCopy));
      A.addRI32(R13, 8 * static_cast<int32_t>(Size));
    }
    A.movRM(RSI, RBX, 112);
    A.movRM(RSI, RSI, 8 * static_cast<int32_t>(I.Id));
    A.movRM(RDI, RBX, 16);
    A.movRM(RDI, RDI, 8 * static_cast<int32_t>(I.Id));
    A.movRI32(RDX, Size);
    A.callAbs(reinterpret_cast<const void *>(&helpCopy));
    return true;
  }
  case XOp::Branch:
    if (Slow || !slotOk(I.A))
      return false; // slow streams only branch in the terminator
    A.movRM(RAX, R12, 8 * static_cast<int32_t>(I.A));
    A.alu(0x85, RAX, RAX);
    A.setccAl(CcNE);
    A.movzxRAl(R15);
    return true;
  // Const/Jump/Ret never appear in fast (dynamic-only) streams; anything
  // else is a plan the templates do not cover — leave it interpreted.
  default:
    return false;
  }
}

bool ActionCompiler::emitBody(uint32_t Action, uint32_t &WordsOut) {
  const ExecPlan &P = *Ctx.Plan;
  uint32_t Begin = P.ActionOfs[Action], End = P.ActionOfs[Action + 1];
  K = 0;
  for (uint32_t Idx = Begin; Idx != End; ++Idx) {
    if (!emitInst(P.Fast[Idx], Idx))
      return false;
    // Span displacements must stay within rel32 reach of the base.
    if (K > (1u << 26))
      return false;
  }
  WordsOut = K;
  return true;
}

bool ActionCompiler::compileSlowStep(bool Rec, uint32_t &CaptureWordsOut) {
  const ExecPlan &P = *Ctx.Plan;
  if (P.BlockOfs.size() < 2)
    return false;
  // The slow engine's block table: blocks the plan frames *and* the action
  // table describes. A flush exit packs its resume block above two bits.
  const size_t NumBlocks =
      std::min(P.BlockOfs.size() - 1, Ctx.BlockActions.size());
  if (NumBlocks == 0 || NumBlocks >= (size_t(1) << 29))
    return false;
  Slow = true;
  ConstVal.assign(Ctx.NumSlots, 0);
  ConstBlock.assign(Ctx.NumSlots, 0);

  // Prologue mirrors the trace compiler's (6 pushes + 136 keeps rsp
  // 16-aligned at call sites) with rbp = StatSlots, r13 = the capture
  // cursor and r15 = the node-log cursor, then dispatches on the entry
  // block (rsi) through a table of rel32 offsets from the table's own
  // start.
  A.push(RBX);
  A.push(RBP);
  A.push(R12);
  A.push(R13);
  A.push(R14);
  A.push(R15);
  A.movRR(RBX, RDI);
  A.movRM(R12, RBX, 0);
  A.movRM(R14, RBX, 8);
  A.movRM(RBP, RBX, 96);
  if (Rec) {
    A.movRM(R13, RBX, 128);
    A.movRM(R15, RBX, 256);
  }
  A.subRI32(RSP, 136);
  const size_t TableRef = A.leaRip(RAX);
  A.movsxdIdx4(RCX, RAX, RSI);
  A.alu(0x01, RAX, RCX); // add rax, rcx
  A.jmpR(RAX);
  const size_t Table = A.size();
  A.patch(TableRef, Table);
  for (size_t B = 0; B != NumBlocks; ++B)
    A.u32(0);

  struct Pending {
    size_t Pos;      ///< rel32 position in the code buffer
    uint32_t Target; ///< block id
  };
  std::vector<Pending> Jumps;
  std::vector<size_t> Label(NumBlocks);
  std::vector<size_t> Exits; ///< jumps to the shared epilogue
  std::vector<Pending> Flushes; ///< full-log checks, by resume block
  /// Bail sites of one block and kind, funnelled through one stub that
  /// names the block.
  struct BailGroup {
    uint32_t Block;
    JitBail Code;
    std::vector<size_t> Sites;
  };
  std::vector<BailGroup> Bails;
  uint32_t MaxCap = 0;

  for (uint32_t B = 0; B != NumBlocks; ++B) {
    const uint32_t Begin = P.BlockOfs[B], End = P.BlockOfs[B + 1];
    if (End <= Begin || End > P.Code.size())
      return false;
    Label[B] = A.size();
    Block = B + 1; // forgets every constant of the block before
    const int32_t Rel = static_cast<int32_t>(Label[B] - Table);
    std::memcpy(&A.Code[Table + 4 * B], &Rel, 4);

    // Only action blocks record a node, so only they capture and log. A
    // recording action block first checks that its worst-case capture
    // and descriptor fit between the cursors (the bound is patched in
    // once the body is emitted); if not, it returns a flush naming
    // itself, so the caller commits the log and re-enters here.
    const int32_t ActionId = Ctx.BlockActions[B];
    Recording = Rec && ActionId >= 0;
    size_t Room = 0;
    if (Recording) {
      Room = A.leaRM32(RAX, R13);
      A.alu(0x39, RAX, R15); // cmp rax, r15
      Flushes.push_back({A.jcc(CcA), B});
    }
    CapWords = 0;
    for (uint32_t Idx = Begin; Idx != End - 1; ++Idx) {
      const XInst &I = P.Code[Idx];
      InStatic = !I.Dynamic;
      if (InStatic) {
        // Only the opcodes the slow interpreter's rt-static switch
        // handles; anything else would be a PlanCorrupt fault — leave the
        // plan interpreted.
        switch (I.Opcode) {
        case XOp::Const:
        case XOp::Copy:
        case XOp::Bin:
        case XOp::Un:
        case XOp::LoadGlobal:
        case XOp::StoreGlobal:
        case XOp::LoadElem:
        case XOp::StoreElem:
        case XOp::LoadLocElem:
        case XOp::StoreLocElem:
        case XOp::InitLocArray:
        case XOp::Fetch:
        case XOp::TextStart:
        case XOp::TextEnd:
          break;
        default:
          return false;
        }
      }
      if (!emitInst(I, Idx))
        return false;
    }
    InStatic = false;
    if (Recording) {
      // The capture is straight-line, so its size is a constant of the
      // block: the descriptor carries it and the room check reserves it.
      if (CapWords > (1u << 26))
        return false;
      A.patch32(Room, 8 * static_cast<int32_t>(CapWords + 1));
      MaxCap = std::max(MaxCap, CapWords);
    }
    if (!FetchBails.empty())
      Bails.push_back({B, BailFetchOob, std::move(FetchBails)});
    if (!ExternBails.empty())
      Bails.push_back({B, BailExternFail, std::move(ExternBails)});
    FetchBails.clear();
    ExternBails.clear();

    // Terminator: a native jump within the function, or at Ret an exit.
    // A recording action block logs its node's descriptor first, on each
    // arm of a dynamic-result Branch (the arm decides the node's edge).
    auto logNode = [&](SlowNodeKind Kind) {
      A.movRI64(RAX, slowNodeDesc(static_cast<uint32_t>(ActionId), Kind,
                                  CapWords));
      A.subRI32(R15, 8);
      A.movMR(R15, 0, RAX);
    };
    auto jumpTo = [&](uint32_t Target) {
      if (Target != B + 1)
        Jumps.push_back({A.jmp(), Target});
    };
    const XInst &T = P.Code[End - 1];
    switch (T.Opcode) {
    case XOp::Jump:
      if (T.Target >= NumBlocks)
        return false;
      if (Recording)
        logNode(SlowPlain);
      jumpTo(T.Target);
      break;
    case XOp::Branch: {
      if (T.Target >= NumBlocks || T.Target2 >= NumBlocks || !slotOk(T.A))
        return false;
      if (Recording && !T.Dynamic)
        logNode(SlowPlain);
      A.movRM(RAX, T.Dynamic ? R12 : RBP, 8 * static_cast<int32_t>(T.A));
      A.alu(0x85, RAX, RAX); // test rax, rax
      if (Recording && T.Dynamic) {
        // A dynamic-result test makes the node a Test node.
        size_t NotTaken = A.jcc(CcE);
        logNode(SlowEdge1);
        Jumps.push_back({A.jmp(), T.Target});
        A.patchHere(NotTaken);
        logNode(SlowEdge0);
      } else {
        Jumps.push_back({A.jcc(CcNE), T.Target});
      }
      jumpTo(T.Target2);
      break;
    }
    case XOp::Ret:
      if (Recording)
        logNode(SlowEnd);
      A.movRI32(RAX, static_cast<uint32_t>(SlowRet));
      Exits.push_back(A.jmp());
      break;
    default:
      return false; // a block without a terminator
    }
  }

  // Shared epilogue; every exit, flush and bail funnels through it with
  // rax set, publishing both cursors so the caller can commit exactly
  // what the interpreter would have recorded.
  const size_t Epilogue = A.size();
  if (Rec) {
    A.movMR(RBX, 136, R13);
    A.movMR(RBX, 264, R15);
  }
  A.addRI32(RSP, 136);
  A.pop(R15);
  A.pop(R14);
  A.pop(R13);
  A.pop(R12);
  A.pop(RBP);
  A.pop(RBX);
  A.ret();
  for (size_t Pos : Exits)
    A.patch(Pos, Epilogue);
  for (const Pending &F : Flushes) {
    A.patchHere(F.Pos);
    A.movRI32(RAX, (F.Target << 2) | static_cast<uint32_t>(SlowFlush));
    A.patch(A.jmp(), Epilogue);
  }
  for (const BailGroup &G : Bails) {
    for (size_t Pos : G.Sites)
      A.patchHere(Pos);
    A.movMI32(RBX, 144, static_cast<int32_t>(G.Block));
    A.movRI32s(RAX, static_cast<int32_t>(G.Code));
    A.patch(A.jmp(), Epilogue);
  }
  for (const Pending &J : Jumps)
    A.patch(J.Pos, Label[J.Target]);

  // The buffer holds the largest block's capture and descriptor, so a
  // flushed block always fits on re-entry; and room for whole steps, so
  // flushes stay rare.
  CaptureWordsOut = std::max(MaxCap + 1, SlowLogWords);
  return true;
}

//===----------------------------------------------------------------------===//
// Trace shape compilation
//
// One function per trace shape running a whole recorded node tree: per
// node a three-instruction span setup — the node's word offset loaded from
// the binding table, scaled onto the base or overlay pool pointer — then
// the instruction templates the slow-step function uses, then
// direct-threaded control flow: Test nodes compare the accumulated
// TestValue and branch straight into the successor's block. Edges with no
// recorded successor, and End nodes, compile to exit stubs returning the
// exit's index; the caller maps those back to recovery or end-of-step
// through TraceExitDesc and the binding table.
//
// Register plan: the standing one (JitEmitter.h) with rbp = binding table
// (arriving in rsi; callee-saved so helper calls keep it) and r13 a
// per-node span pointer. Prologue: 6 pushes + sub rsp,136 keeps rsp
// 16-aligned at call sites with the same 128-byte extern scratch.
//===----------------------------------------------------------------------===//

class TraceCompiler {
public:
  explicit TraceCompiler(const EmitContext &Ctx) : Ctx(Ctx), C(Ctx, A) {}

  bool compile(const std::vector<TraceNodeDesc> &Nodes, uint32_t LinkBytes,
               std::vector<uint8_t> &Out, std::vector<TraceExitDesc> &Exits,
               uint32_t &BodyOfs);

private:
  const EmitContext &Ctx;
  Asm A;
  ActionCompiler C;

  /// A forward jump awaiting its target block.
  struct Pending {
    size_t Pos;      ///< rel32 position in the code buffer
    bool ToExit;     ///< target is an exit stub, not a node block
    uint32_t Target; ///< node descriptor index or exit id
  };
  std::vector<Pending> Jumps;

  uint32_t exitId(std::vector<TraceExitDesc> &Exits, uint32_t Desc,
                  uint8_t Value, bool IsEnd) {
    Exits.push_back({Desc, Value, IsEnd});
    return static_cast<uint32_t>(Exits.size() - 1);
  }
};

bool TraceCompiler::compile(const std::vector<TraceNodeDesc> &Nodes,
                            uint32_t LinkBytes, std::vector<uint8_t> &Out,
                            std::vector<TraceExitDesc> &Exits,
                            uint32_t &BodyOfs) {
  if (Nodes.empty() || LinkBytes % sizeof(TraceBind) != 0)
    return false;

  A.push(RBX);
  A.push(RBP);
  A.push(R12);
  A.push(R13);
  A.push(R14);
  A.push(R15);
  A.movRR(RBX, RDI);
  A.movRR(RBP, RSI); // binding table
  A.movRM(R12, RBX, 0);
  A.movRM(R14, RBX, 8);
  A.subRI32(RSP, 136); // 8+48+136 ≡ 0 (mod 16) at call sites
  BodyOfs = static_cast<uint32_t>(A.size());

  std::vector<size_t> BlockStart(Nodes.size(), 0);
  std::vector<size_t> EndJumps; ///< exits still needing the epilogue target
  std::vector<size_t> ChainJumps; ///< End exits jumping to the chain stub
  uint32_t Links = 0;           ///< End exits so far: the next link ordinal

  for (uint32_t Di = 0; Di != Nodes.size(); ++Di) {
    const TraceNodeDesc &N = Nodes[Di];
    BlockStart[Di] = A.size();

    // Point r13 at this node's placeholder span: the bound word offset off
    // the frame's base- or overlay-pool pointer.
    if (Di > (static_cast<uint32_t>(INT32_MAX) - 4) / sizeof(TraceBind))
      return false;
    A.movR32M(RAX, RBP,
              static_cast<int32_t>(Di * sizeof(TraceBind) +
                                   offsetof(TraceBind, SpanOfs)));
    A.movRM(R13, RBX, N.BaseSide ? 88 : 152);
    A.leaIdx8(R13, R13, RAX);
    A.xorR32(R15); // TestValue restarts per node, as in the interpreter

    uint32_t Words = 0;
    if (!C.emitBody(static_cast<uint32_t>(N.ActionId), Words))
      return false;
    if (Words != N.DataLen)
      return false; // plan and recording disagree; leave it interpreted

    switch (N.Kind) {
    case 2: { // End: return the exit id; the caller reads the bound End node
      const uint32_t X = exitId(Exits, Di, 0, true);
      if (LinkBytes == 0) {
        A.movRI32(RAX, X);
        EndJumps.push_back(A.jmp());
        break;
      }
      // Chain: the exit id in ax and the table cell of this exit's link,
      // past the binding's pairs, above it; the stub splits them.
      Exits[X].Link = Links;
      const size_t Cell =
          Nodes.size() + Links++ * (LinkBytes / sizeof(TraceBind));
      if (X > 0xffff || Cell > 0x7fff)
        return false;
      A.movRI32(RAX, X | static_cast<uint32_t>(Cell) << 16);
      ChainJumps.push_back(A.jmp());
      break;
    }
    case 0: { // Plain
      if (N.Succ[0] == TraceNoSucc)
        return false; // complete entries always link Plain nodes
      if (N.Succ[0] != Di + 1)
        Jumps.push_back({A.jmp(), false, N.Succ[0]});
      break;
    }
    case 1: { // Test: branch on the accumulated TestValue
      A.alu(0x85, R15, R15); // test r15, r15
      // Taken = value 1, fallthrough = value 0 when the 0-successor is the
      // next block (the DFS order makes that the common shape).
      size_t Jnz = A.jcc(CcNE);
      if (N.Succ[1] == TraceNoSucc)
        Jumps.push_back({Jnz, true, exitId(Exits, Di, 1, false)});
      else
        Jumps.push_back({Jnz, false, N.Succ[1]});
      if (N.Succ[0] == TraceNoSucc)
        Jumps.push_back({A.jmp(), true, exitId(Exits, Di, 0, false)});
      else if (N.Succ[0] != Di + 1)
        Jumps.push_back({A.jmp(), false, N.Succ[0]});
      break;
    }
    default:
      return false;
    }
  }

  // End exits that may chain leave through the session's stub, which
  // returns through an epilogue of its own when it does not chain.
  if (!ChainJumps.empty()) {
    for (size_t Pos : ChainJumps)
      A.patchHere(Pos);
    A.jmpM(RBX, offsetof(JitFrame, ChainStub));
  }
  // Shared epilogue; every other exit funnels through it with rax set.
  size_t Epilogue = A.size();
  A.addRI32(RSP, 136);
  A.pop(R15);
  A.pop(R14);
  A.pop(R13);
  A.pop(R12);
  A.pop(RBP);
  A.pop(RBX);
  A.ret();
  for (size_t Pos : EndJumps)
    A.patch(Pos, Epilogue);

  // Side-exit stubs (one per non-End exit id), then the bail stubs.
  std::vector<size_t> StubStart(Exits.size(), Epilogue);
  for (uint32_t E = 0; E != Exits.size(); ++E) {
    if (Exits[E].IsEnd)
      continue;
    StubStart[E] = A.size();
    A.movRI32(RAX, E);
    A.patch(A.jmp(), Epilogue);
  }
  if (!C.FetchBails.empty()) {
    for (size_t Pos : C.FetchBails)
      A.patchHere(Pos);
    A.movRI32s(RAX, static_cast<int32_t>(BailFetchOob));
    A.patch(A.jmp(), Epilogue);
  }
  if (!C.ExternBails.empty()) {
    for (size_t Pos : C.ExternBails)
      A.patchHere(Pos);
    A.movRI32s(RAX, static_cast<int32_t>(BailExternFail));
    A.patch(A.jmp(), Epilogue);
  }

  for (const Pending &J : Jumps)
    A.patch(J.Pos, J.ToExit ? StubStart[J.Target] : BlockStart[J.Target]);

  Out = std::move(A.Code);
  return true;
}

} // namespace

bool jit::emitSlowStep(const EmitContext &Ctx, bool Recording,
                       std::vector<uint8_t> &Code, uint32_t &CaptureWordsOut) {
  if (!available() || !Ctx.Plan || !Ctx.Image || !Ctx.Hooks.ExternSlow)
    return false;
  Asm A;
  ActionCompiler C(Ctx, A);
  if (!C.compileSlowStep(Recording, CaptureWordsOut))
    return false;
  Code = std::move(A.Code);
  return true;
}

bool jit::emitTrace(const EmitContext &Ctx,
                    const std::vector<TraceNodeDesc> &Nodes,
                    uint32_t LinkBytes, std::vector<uint8_t> &Code,
                    std::vector<TraceExitDesc> &Exits, uint32_t &BodyOfs) {
  if (!available() || !Ctx.Plan || !Ctx.Image || !Ctx.Hooks.Extern)
    return false;
  Exits.clear();
  return TraceCompiler(Ctx).compile(Nodes, LinkBytes, Code, Exits, BodyOfs);
}

bool jit::emitChainStub(const std::vector<ChainWord> &Words,
                        uint32_t SlotBytes, std::vector<uint8_t> &Code) {
  if (!available() || Words.size() > MaxChainWords || SlotBytes == 0 ||
      SlotBytes > (1u << 16))
    return false;
  // Entered by a jmp from a shape's End exit, inside that shape's frame:
  // ax = the exit id, the upper half of eax = the table cell of the
  // exit's ChainLink, rbx = frame, rbp = binding table, r12/r14 =
  // slots/globals, rsp 136 bytes below the six saved registers. The stub
  // points rcx at the link and leaves the exit id alone in rax for the
  // fallback return. Only scratch registers change before the jump, so
  // the target body finds the standing register plan with rbp re-pointed
  // at its own table.
  Asm A;
  std::vector<size_t> Fallback;
  auto stopIf = [&](uint8_t Cc) { Fallback.push_back(A.jcc(Cc)); };

  A.movR32R32(RCX, RAX);
  A.shrR32Imm(RCX, 16);
  A.leaIdx8(RCX, RBP, RCX);
  A.movzxR32R16(RAX, RAX);

  A.movRM(RDX, RBX, offsetof(JitFrame, ChainBudget));
  A.alu(0x85, RDX, RDX);
  stopIf(CcLE);
  A.movRM(RDX, RBX, offsetof(JitFrame, Halt));
  A.movzxR32M8(RDX, RDX, 0);
  A.alu(0x85, RDX, RDX);
  stopIf(CcNE);
  A.movRM(RDX, RBX, offsetof(JitFrame, MemLatch));
  A.movzxR32M8(RDX, RDX, 0);
  A.alu(0x85, RDX, RDX);
  stopIf(CcNE);
  // INDEX chain: the dynamic store's compared words against NextKey's.
  for (size_t K = 0; K != Words.size(); ++K) {
    const ChainWord &W = Words[K];
    if (W.Global > (1u << 26) || W.Index > (1u << 26))
      return false;
    if (W.Array) {
      A.movRM(RDX, RBX, offsetof(JitFrame, Arrays));
      A.movRM(RDX, RDX, static_cast<int32_t>(8 * W.Global));
      A.movRM(RDX, RDX, static_cast<int32_t>(8 * W.Index));
    } else {
      A.movRM(RDX, R14, static_cast<int32_t>(8 * W.Global));
    }
    A.movRM(RSI, RCX, static_cast<int32_t>(sizeof(ChainLink) + 8 * K));
    A.alu(0x39, RDX, RSI); // cmp rdx, rsi
    stopIf(CcNE);
  }
  // The target slot: in range, bound at the link's generation and at the
  // cache's current epoch. rdx = target entry, rsi = its slot.
  A.movR32M(RDX, RCX, offsetof(ChainLink, Target));
  A.movRM(RSI, RBX, offsetof(JitFrame, ChainSlotCount));
  A.alu(0x39, RDX, RSI);
  stopIf(CcAE);
  A.imulRRI(RSI, RDX, static_cast<int32_t>(SlotBytes));
  A.movRM(RDI, RBX, offsetof(JitFrame, ChainSlots));
  A.alu(0x01, RSI, RDI); // add rsi, rdi
  A.movRM(RDI, RSI, offsetof(TraceSlot, Gen));
  A.movRM(R8, RCX, offsetof(ChainLink, Gen));
  A.alu(0x39, RDI, R8);
  stopIf(CcNE);
  A.movRM(RDI, RSI, offsetof(TraceSlot, Epoch));
  A.movRM(R8, RBX, offsetof(JitFrame, ChainEpoch));
  A.movRM(R8, R8, 0);
  A.alu(0x39, RDI, R8);
  stopIf(CcNE);
  A.movRM(RDI, RSI, offsetof(TraceSlot, Body));
  A.alu(0x85, RDI, RDI);
  stopIf(CcE);
  // A detached entry (head NoNode) no longer answers its key's lookup.
  // r8 = &Entries[target] (16-byte CacheEntry: Head, Key, LastUse).
  A.movRR(R8, RDX);
  A.shiftImm(4, R8, 4);
  A.movRM(R10, RBX, offsetof(JitFrame, ChainEntries));
  A.alu(0x01, R8, R10);
  A.movR32M(R10, R8, 0);
  A.cmpR32I32(R10, 0xFFFFFFFFu);
  stopIf(CcE);

  // Commit: the step is entered. Nothing below can stop it.
  A.movRM(R10, RBX, offsetof(JitFrame, ChainTick));
  A.movRM(R11, R10, 0);
  A.addRI32(R11, 1);
  A.movMR(R10, 0, R11);
  A.movMR(R8, 8, R11); // LastUse = ++Tick, as lookup() does
  A.movRM(R10, RBX, offsetof(JitFrame, ChainBudget));
  A.subRI32(R10, 1);
  A.movMR(RBX, offsetof(JitFrame, ChainBudget), R10);
  A.movRM(R10, RBX, offsetof(JitFrame, Steps));
  A.movRM(R11, R10, 0);
  A.addRI32(R11, 1);
  A.movMR(R10, 0, R11);
  A.movRM(R10, RBX, offsetof(JitFrame, StateKey));
  A.movR32M(R11, RCX, offsetof(ChainLink, Key));
  A.movM32R(R10, 0, R11);
  A.movMR(RBX, offsetof(JitFrame, ChainEntry), RDX);
  A.movR32M(RBP, RSI, offsetof(TraceSlot, TableOfs));
  A.shiftImm(4, RBP, 3);
  A.movRM(R10, RBX, offsetof(JitFrame, ChainTable));
  A.alu(0x01, RBP, R10);
  A.jmpR(RDI);

  // Fallback: the shape's epilogue, returning the End exit id in rax.
  for (size_t Pos : Fallback)
    A.patchHere(Pos);
  A.addRI32(RSP, 136);
  A.pop(R15);
  A.pop(R14);
  A.pop(R13);
  A.pop(R12);
  A.pop(RBP);
  A.pop(RBX);
  A.ret();
  Code = std::move(A.Code);
  return true;
}
