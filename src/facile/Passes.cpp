//===- Passes.cpp - IR optimization passes over the lowered CFG ------------===//

#include "src/facile/Passes.h"

#include "src/support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <deque>
#include <iterator>

using namespace facile;
using namespace facile::ir;

namespace {

/// Enumerates the slot *operands* of \p I (not the destination), passing a
/// mutable reference so passes can rewrite uses in place. Enumeration is
/// opcode-driven: fields that exist but are meaningless for an opcode
/// (e.g. Un's Imm-as-width) are never visited.
template <typename Fn> void forEachUsedSlot(Inst &I, Fn F) {
  switch (I.Opcode) {
  case Op::Copy:
  case Op::Un:
  case Op::StoreGlobal:
  case Op::LoadElem:
  case Op::LoadLocElem:
  case Op::InitLocArray:
  case Op::Fetch:
  case Op::Branch:
    F(I.A);
    break;
  case Op::Bin:
  case Op::StoreElem:
  case Op::StoreLocElem:
    F(I.A);
    F(I.B);
    break;
  case Op::CallExtern:
  case Op::CallBuiltin:
    for (SlotId &S : I.Args)
      F(S);
    break;
  case Op::SyncSlot:
    // Reads the rt-static cell of Dst (post-BTA only). Never rewritten by
    // the scalar passes (they run pre-BTA), but the liveness and verifier
    // walks must see the use.
    F(I.Dst);
    break;
  case Op::Const:
  case Op::LoadGlobal:
  case Op::Jump:
  case Op::Ret:
  case Op::SyncGlobal:
  case Op::SyncArray:
    break;
  }
}

template <typename Fn> void forEachUsedSlot(const Inst &I, Fn F) {
  forEachUsedSlot(const_cast<Inst &>(I),
                  [&](SlotId &S) { F(static_cast<SlotId>(S)); });
}

/// True when removing \p I is unobservable provided its destination is
/// never read. Stores, calls with effects, syncs and terminators all stay.
bool isPure(const Inst &I) {
  switch (I.Opcode) {
  case Op::Const:
  case Op::Copy:
  case Op::Bin:
  case Op::Un:
  case Op::LoadGlobal:
  case Op::LoadElem:
  case Op::LoadLocElem:
  case Op::Fetch:
    return true;
  case Op::CallBuiltin:
    return !builtinInfo(static_cast<Builtin>(I.Imm)).Dynamic;
  default:
    return false;
  }
}

unsigned countInsts(const StepFunction &F) {
  unsigned N = 0;
  for (const Block &B : F.Blocks)
    N += static_cast<unsigned>(B.Insts.size());
  return N;
}

/// Reference counts of every block as a branch target (entry gets +1 so it
/// is never considered dead or mergeable-away).
std::vector<uint32_t> refCounts(const StepFunction &F) {
  std::vector<uint32_t> Refs(F.Blocks.size(), 0);
  Refs[0] = 1;
  for (const Block &B : F.Blocks) {
    const Inst &T = B.terminator();
    if (T.Opcode == Op::Jump) {
      ++Refs[T.Target];
    } else if (T.Opcode == Op::Branch) {
      ++Refs[T.Target];
      ++Refs[T.Target2];
    }
  }
  return Refs;
}

/// The whole-function slot dataflows (DCE's liveness, the verifier's
/// definite assignment) keep one bit row of rowWords(NumSlots) 64-bit
/// words per block, all in one flat array, and meet and compare rows a
/// word at a time: a block visit costs O(instructions + NumSlots / 64).
size_t rowWords(uint32_t NumSlots) { return (NumSlots + 63) / 64; }
bool testSlot(const uint64_t *Row, SlotId S) {
  return (Row[S / 64] >> (S % 64)) & 1;
}
void setSlot(uint64_t *Row, SlotId S) {
  Row[S / 64] |= uint64_t(1) << (S % 64);
}
void clearSlot(uint64_t *Row, SlotId S) {
  Row[S / 64] &= ~(uint64_t(1) << (S % 64));
}

uint64_t elapsedUs(std::chrono::steady_clock::time_point Since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Since)
          .count());
}

} // namespace

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

unsigned facile::foldConstants(StepFunction &F, PassPipelineStats &Stats) {
  unsigned Changes = 0;
  // Block-local constness: slots holding a known literal at the current
  // program point. Epoch-stamped so per-block reset is O(1).
  std::vector<uint32_t> Epoch(F.NumSlots, 0);
  std::vector<int64_t> Value(F.NumSlots, 0);
  uint32_t Cur = 0;

  for (Block &B : F.Blocks) {
    ++Cur;
    auto known = [&](SlotId S) { return Epoch[S] == Cur; };

    for (Inst &I : B.Insts) {
      switch (I.Opcode) {
      case Op::Copy:
        if (known(I.A)) {
          I.Opcode = Op::Const;
          I.Imm = Value[I.A];
          I.A = NoSlot;
          ++Stats.Folded;
          ++Changes;
        }
        break;
      case Op::Bin:
        if (known(I.A) && known(I.B)) {
          I.Imm = evalBin(I.BinKind, Value[I.A], Value[I.B]);
          I.Opcode = Op::Const;
          I.A = I.B = NoSlot;
          ++Stats.Folded;
          ++Changes;
        }
        break;
      case Op::Un:
        if (known(I.A)) {
          I.Imm = evalUn(I.UnOp, Value[I.A], I.Imm);
          I.Opcode = Op::Const;
          I.A = NoSlot;
          ++Stats.Folded;
          ++Changes;
        }
        break;
      case Op::Branch:
        if (known(I.A)) {
          I.Target = Value[I.A] != 0 ? I.Target : I.Target2;
          I.Opcode = Op::Jump;
          I.A = NoSlot;
          I.Target2 = 0;
          ++Stats.BranchesFolded;
          ++Changes;
        }
        break;
      default:
        break;
      }
      if (I.Dst != NoSlot) {
        if (I.Opcode == Op::Const) {
          Epoch[I.Dst] = Cur;
          Value[I.Dst] = I.Imm;
        } else {
          Epoch[I.Dst] = 0; // redefined with an unknown value
        }
      }
    }
  }
  return Changes;
}

//===----------------------------------------------------------------------===//
// Copy propagation
//===----------------------------------------------------------------------===//

unsigned facile::propagateCopies(StepFunction &F, PassPipelineStats &Stats) {
  unsigned Changes = 0;
  // Block-local aliases: Alias[d] = source slot of the last `d = copy s`
  // with neither d nor s redefined since. Epoch-stamped like the folder.
  std::vector<uint32_t> Epoch(F.NumSlots, 0);
  std::vector<SlotId> Alias(F.NumSlots, NoSlot);
  uint32_t Cur = 0;

  for (Block &B : F.Blocks) {
    ++Cur;
    std::vector<SlotId> LiveAliases; // keys valid this block, for kill scans

    auto resolve = [&](SlotId S) {
      return Epoch[S] == Cur ? Alias[S] : S;
    };
    auto kill = [&](SlotId W) {
      // W is redefined: drop its own alias and any alias rooted at W.
      Epoch[W] = 0;
      for (SlotId K : LiveAliases)
        if (Epoch[K] == Cur && Alias[K] == W)
          Epoch[K] = 0;
    };

    for (Inst &I : B.Insts) {
      forEachUsedSlot(I, [&](SlotId &S) {
        SlotId R = resolve(S);
        if (R != S) {
          S = R;
          ++Stats.CopiesPropagated;
          ++Changes;
        }
      });
      if (I.Dst != NoSlot && I.Opcode != Op::SyncSlot) {
        kill(I.Dst);
        if (I.Opcode == Op::Copy && I.A != I.Dst) {
          Epoch[I.Dst] = Cur;
          Alias[I.Dst] = I.A; // already resolved to its root above
          LiveAliases.push_back(I.Dst);
        }
      }
    }
  }
  return Changes;
}

//===----------------------------------------------------------------------===//
// Dead code elimination
//===----------------------------------------------------------------------===//

unsigned facile::eliminateDeadCode(StepFunction &F, PassPipelineStats &Stats) {
  const size_t NumBlocks = F.Blocks.size();

  // Predecessor lists for the backward fixpoint.
  std::vector<std::vector<uint32_t>> Preds(NumBlocks);
  for (uint32_t B = 0; B != NumBlocks; ++B) {
    uint32_t Succs[2];
    unsigned Count = 0;
    F.successors(B, Succs, &Count);
    for (unsigned K = 0; K != Count; ++K)
      Preds[Succs[K]].push_back(B);
  }

  // LiveIn per block over all slots.
  const size_t W = rowWords(F.NumSlots);
  std::vector<uint64_t> LiveIn(NumBlocks * W), Live(W);
  // Live = LiveOut(B), the union of B's successors' LiveIn.
  auto liveOut = [&](uint32_t B) {
    std::fill(Live.begin(), Live.end(), 0);
    uint32_t Succs[2];
    unsigned Count = 0;
    F.successors(B, Succs, &Count);
    for (unsigned K = 0; K != Count; ++K)
      for (size_t I = 0; I != W; ++I)
        Live[I] |= LiveIn[Succs[K] * W + I];
  };
  // Steps Live backwards over \p In.
  auto transfer = [&](const Inst &In) {
    if (In.Dst != NoSlot && In.Opcode != Op::SyncSlot)
      clearSlot(Live.data(), In.Dst);
    forEachUsedSlot(In, [&](SlotId S) { setSlot(Live.data(), S); });
  };

  std::deque<uint32_t> Work;
  std::vector<bool> InWork(NumBlocks, true);
  for (uint32_t B = 0; B != NumBlocks; ++B)
    Work.push_back(B);
  while (!Work.empty()) {
    uint32_t B = Work.front();
    Work.pop_front();
    InWork[B] = false;
    liveOut(B);
    const std::vector<Inst> &Insts = F.Blocks[B].Insts;
    for (size_t I = Insts.size(); I-- > 0;)
      transfer(Insts[I]);
    uint64_t *Row = LiveIn.data() + B * W;
    if (!std::equal(Live.begin(), Live.end(), Row)) {
      std::copy(Live.begin(), Live.end(), Row);
      for (uint32_t P : Preds[B])
        if (!InWork[P]) {
          Work.push_back(P);
          InWork[P] = true;
        }
    }
  }

  // Backward sweep per block: drop pure instructions whose Dst is dead.
  // Skipping a removed instruction's uses lets whole chains die in one
  // sweep within a block.
  unsigned Removed = 0;
  for (uint32_t B = 0; B != NumBlocks; ++B) {
    liveOut(B);
    std::vector<Inst> &Insts = F.Blocks[B].Insts;
    std::vector<bool> Keep(Insts.size(), true);
    for (size_t I = Insts.size(); I-- > 0;) {
      const Inst &In = Insts[I];
      if (isPure(In) && In.Dst != NoSlot && !testSlot(Live.data(), In.Dst)) {
        Keep[I] = false;
        ++Removed;
        continue;
      }
      transfer(In);
    }
    if (Removed != 0) {
      size_t Out = 0;
      for (size_t I = 0; I != Insts.size(); ++I)
        if (Keep[I]) {
          if (Out != I)
            Insts[Out] = std::move(Insts[I]);
          ++Out;
        }
      Insts.resize(Out);
    }
  }
  Stats.DeadRemoved += Removed;
  return Removed;
}

//===----------------------------------------------------------------------===//
// CFG simplification
//===----------------------------------------------------------------------===//

unsigned facile::simplifyCfg(StepFunction &F, PassPipelineStats &Stats) {
  unsigned Changes = 0;
  const size_t NumBlocks = F.Blocks.size();

  // 1. Jump threading: resolve chains of blocks that consist of a single
  // unconditional Jump. A visited set guards against empty-block cycles.
  auto isTrivial = [&](uint32_t B) {
    return F.Blocks[B].Insts.size() == 1 &&
           F.Blocks[B].terminator().Opcode == Op::Jump;
  };
  std::vector<bool> OnChain(NumBlocks);
  auto resolve = [&](uint32_t B) {
    std::fill(OnChain.begin(), OnChain.end(), false);
    while (isTrivial(B) && !OnChain[B]) {
      OnChain[B] = true;
      B = F.Blocks[B].terminator().Target;
    }
    return B;
  };
  for (Block &B : F.Blocks) {
    Inst &T = B.Insts.back();
    if (T.Opcode == Op::Jump) {
      uint32_t N = resolve(T.Target);
      if (N != T.Target) {
        T.Target = N;
        ++Stats.JumpsThreaded;
        ++Changes;
      }
    } else if (T.Opcode == Op::Branch) {
      for (uint32_t *Tgt : {&T.Target, &T.Target2}) {
        uint32_t N = resolve(*Tgt);
        if (N != *Tgt) {
          *Tgt = N;
          ++Stats.JumpsThreaded;
          ++Changes;
        }
      }
      if (T.Target == T.Target2) {
        // Both arms reach the same block: degrade to a Jump. The condition
        // slot stays live via other uses or dies in the next DCE round.
        T.Opcode = Op::Jump;
        T.A = NoSlot;
        T.Target2 = 0;
        ++Stats.BranchesFolded;
        ++Changes;
      }
    }
  }

  // 2. Merge single-reference Jump successors into their predecessor.
  std::vector<uint32_t> Refs = refCounts(F);
  std::vector<bool> Gone(NumBlocks, false);
  for (uint32_t B = 0; B != NumBlocks; ++B) {
    if (Gone[B])
      continue;
    for (;;) {
      Inst &T = F.Blocks[B].Insts.back();
      if (T.Opcode != Op::Jump)
        break;
      uint32_t S = T.Target;
      if (S == B || S == 0 || Refs[S] != 1 || Gone[S])
        break;
      std::vector<Inst> &Dst = F.Blocks[B].Insts;
      std::vector<Inst> &Src = F.Blocks[S].Insts;
      Dst.pop_back(); // drop the Jump
      Dst.insert(Dst.end(), std::make_move_iterator(Src.begin()),
                 std::make_move_iterator(Src.end()));
      Src.clear();
      Gone[S] = true;
      ++Stats.BlocksMerged;
      ++Changes;
    }
  }

  // 3. Drop unreachable blocks and compact ids. The Ret block is pinned
  // even when unreachable (e.g. a step that always loops) so the
  // one-Ret-per-function invariant survives.
  std::vector<bool> Reach(NumBlocks, false);
  std::deque<uint32_t> Work;
  Reach[0] = true;
  Work.push_back(0);
  while (!Work.empty()) {
    uint32_t B = Work.front();
    Work.pop_front();
    uint32_t Succs[2];
    unsigned Count = 0;
    F.successors(B, Succs, &Count);
    for (unsigned K = 0; K != Count; ++K)
      if (!Reach[Succs[K]]) {
        Reach[Succs[K]] = true;
        Work.push_back(Succs[K]);
      }
  }
  for (uint32_t B = 0; B != NumBlocks; ++B)
    if (!Gone[B] && !F.Blocks[B].Insts.empty() &&
        F.Blocks[B].terminator().Opcode == Op::Ret)
      Reach[B] = true; // pin the exit block

  std::vector<uint32_t> Remap(NumBlocks, ~0u);
  uint32_t Next = 0;
  for (uint32_t B = 0; B != NumBlocks; ++B)
    if (Reach[B] && !Gone[B])
      Remap[B] = Next++;
  if (Next != NumBlocks) {
    Stats.BlocksRemoved += static_cast<unsigned>(NumBlocks) - Next;
    Changes += static_cast<unsigned>(NumBlocks) - Next;
    std::vector<Block> NewBlocks(Next);
    for (uint32_t B = 0; B != NumBlocks; ++B)
      if (Remap[B] != ~0u)
        NewBlocks[Remap[B]] = std::move(F.Blocks[B]);
    for (Block &B : NewBlocks) {
      Inst &T = B.Insts.back();
      if (T.Opcode == Op::Jump) {
        T.Target = Remap[T.Target];
      } else if (T.Opcode == Op::Branch) {
        T.Target = Remap[T.Target];
        T.Target2 = Remap[T.Target2];
      }
    }
    F.Blocks = std::move(NewBlocks);
  }
  return Changes;
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

std::string facile::verifyStepFunction(const StepFunction &F,
                                       const std::vector<GlobalVar> &Globals,
                                       const std::vector<ExternFn> &Externs,
                                       bool PostBta) {
  auto err = [](uint32_t B, size_t I, const char *Msg) {
    return strFormat("b%u[%zu]: %s", B, I, Msg);
  };
  if (F.Blocks.empty())
    return "step function has no blocks";

  unsigned Rets = 0;
  for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
    const Block &Blk = F.Blocks[B];
    if (Blk.Insts.empty())
      return strFormat("b%u: empty block", B);
    for (size_t I = 0; I != Blk.Insts.size(); ++I) {
      const Inst &In = Blk.Insts[I];
      const bool IsLast = I + 1 == Blk.Insts.size();
      if (In.isTerminator() != IsLast)
        return err(B, I, IsLast ? "block does not end with a terminator"
                                : "terminator in mid-block");

      // Slot ranges: destination and every used operand.
      if (In.Dst != NoSlot && In.Dst >= F.NumSlots)
        return err(B, I, "destination slot out of range");
      bool SlotOk = true;
      forEachUsedSlot(In, [&](SlotId S) {
        if (S == NoSlot || S >= F.NumSlots)
          SlotOk = false;
      });
      if (!SlotOk)
        return err(B, I, "operand slot missing or out of range");

      switch (In.Opcode) {
      case Op::Const:
      case Op::Copy:
      case Op::Bin:
      case Op::Un:
      case Op::Fetch:
        if (In.Dst == NoSlot)
          return err(B, I, "value-producing instruction without destination");
        break;
      case Op::LoadGlobal:
      case Op::StoreGlobal:
      case Op::SyncGlobal:
        if (In.Id >= Globals.size() || Globals[In.Id].IsArray)
          return err(B, I, "scalar global id invalid");
        if (In.Opcode == Op::LoadGlobal && In.Dst == NoSlot)
          return err(B, I, "load without destination");
        break;
      case Op::LoadElem:
      case Op::StoreElem:
      case Op::SyncArray:
        if (In.Id >= Globals.size() || !Globals[In.Id].IsArray)
          return err(B, I, "array global id invalid");
        if (In.Opcode == Op::LoadElem && In.Dst == NoSlot)
          return err(B, I, "load without destination");
        break;
      case Op::LoadLocElem:
      case Op::StoreLocElem:
      case Op::InitLocArray:
        if (In.Id >= F.LocalArrays.size())
          return err(B, I, "local array id invalid");
        break;
      case Op::CallExtern:
        if (In.Id >= Externs.size())
          return err(B, I, "extern id invalid");
        if (In.Args.size() != Externs[In.Id].Arity)
          return err(B, I, "extern arity mismatch");
        if ((In.Dst != NoSlot) != Externs[In.Id].HasResult)
          return err(B, I, "extern result mismatch");
        break;
      case Op::CallBuiltin: {
        if (In.Imm < 0 || In.Imm >= static_cast<int64_t>(numBuiltins()))
          return err(B, I, "builtin id invalid");
        const BuiltinInfo &BI = builtinInfo(static_cast<Builtin>(In.Imm));
        if (In.Args.size() != BI.Arity)
          return err(B, I, "builtin arity mismatch");
        if (In.Dst != NoSlot && !BI.HasResult)
          return err(B, I, "result-less builtin with destination");
        break;
      }
      case Op::Jump:
        if (In.Target >= F.Blocks.size())
          return err(B, I, "jump target out of range");
        break;
      case Op::Branch:
        if (In.Target >= F.Blocks.size() || In.Target2 >= F.Blocks.size())
          return err(B, I, "branch target out of range");
        break;
      case Op::Ret:
        ++Rets;
        break;
      case Op::SyncSlot:
        if (In.Dst == NoSlot)
          return err(B, I, "sync without a slot");
        break;
      }

      if (PostBta) {
        if (In.StaticOperands != 0 && !In.Dynamic)
          return err(B, I, "StaticOperands on an rt-static instruction");
        if ((In.Opcode == Op::SyncSlot || In.Opcode == Op::SyncGlobal ||
             In.Opcode == Op::SyncArray) &&
            !In.Dynamic)
          return err(B, I, "rt-static sync instruction");
        if (In.Opcode == Op::CallExtern && !In.Dynamic)
          return err(B, I, "rt-static extern call");
        if (In.Opcode == Op::CallBuiltin && !In.Dynamic &&
            builtinInfo(static_cast<Builtin>(In.Imm)).Dynamic)
          return err(B, I, "rt-static dynamic builtin");
      } else {
        if (In.Opcode == Op::SyncSlot || In.Opcode == Op::SyncGlobal ||
            In.Opcode == Op::SyncArray)
          return err(B, I, "sync instruction before binding-time analysis");
      }
    }
  }
  if (Rets != 1)
    return strFormat("expected exactly one Ret, found %u", Rets);

  // Definite assignment: every slot is written before read on every path
  // (lowering guarantees it; BTA's Undef lattice element and the engines'
  // uninitialised slot files rely on it). In[B] is the set assigned on
  // every path seen so far into B; a block's first visit takes its
  // predecessor's set whole, later ones intersect.
  const size_t N = F.Blocks.size(), W = rowWords(F.NumSlots);
  std::vector<uint64_t> In(N * W), Defined(W);
  std::vector<bool> Seen(N, false), Queued(N, false);
  std::deque<uint32_t> Work;
  Seen[0] = Queued[0] = true;
  Work.push_back(0);
  while (!Work.empty()) {
    uint32_t B = Work.front();
    Work.pop_front();
    Queued[B] = false;
    std::copy_n(In.data() + B * W, W, Defined.begin());
    const std::vector<Inst> &Insts = F.Blocks[B].Insts;
    for (size_t I = 0; I != Insts.size(); ++I) {
      SlotId Unassigned = NoSlot;
      forEachUsedSlot(Insts[I], [&](SlotId S) {
        if (Unassigned == NoSlot && !testSlot(Defined.data(), S))
          Unassigned = S;
      });
      if (Unassigned != NoSlot)
        return strFormat("b%u[%zu]: slot s%u read before assignment", B, I,
                         Unassigned);
      if (Insts[I].Dst != NoSlot)
        setSlot(Defined.data(), Insts[I].Dst);
    }
    uint32_t Succs[2];
    unsigned Count = 0;
    F.successors(B, Succs, &Count);
    for (unsigned K = 0; K != Count; ++K) {
      uint32_t S = Succs[K];
      uint64_t *Row = In.data() + S * W;
      bool Changed = !Seen[S];
      if (Changed) {
        Seen[S] = true;
        std::copy(Defined.begin(), Defined.end(), Row);
      } else {
        for (size_t I = 0; I != W; ++I) { // meet = intersection
          Changed |= (Row[I] & ~Defined[I]) != 0;
          Row[I] &= Defined[I];
        }
      }
      if (Changed && !Queued[S]) {
        Work.push_back(S);
        Queued[S] = true;
      }
    }
  }
  return std::string();
}

//===----------------------------------------------------------------------===//
// Pipeline driver
//===----------------------------------------------------------------------===//

bool facile::runPassPipeline(LoweredProgram &LP, PassPipelineStats &Stats,
                             std::string *Error) {
  StepFunction &F = LP.Step;
  Stats.InstsBefore = countInsts(F);
  Stats.BlocksBefore = static_cast<unsigned>(F.Blocks.size());

  auto verify = [&](const char *PassName) {
    if (!Error)
      return true;
    auto Start = std::chrono::steady_clock::now();
    std::string E = verifyStepFunction(F, LP.Globals, LP.Externs);
    Stats.VerifyUs += elapsedUs(Start);
    if (E.empty())
      return true;
    *Error = strFormat("IR verifier failed after %s: %s", PassName,
                       E.c_str());
    return false;
  };
  // Runs one pass, then the verifier; false when the verifier fails.
  using PassFn = unsigned (*)(StepFunction &, PassPipelineStats &);
  unsigned Changes = 0;
  auto run = [&](PassFn Pass, const char *PassName) {
    auto Start = std::chrono::steady_clock::now();
    Changes += Pass(F, Stats);
    Stats.PassUs += elapsedUs(Start);
    return verify(PassName);
  };

  if (!verify("lowering"))
    return false;

  // Passes enable each other (folding exposes dead code, DCE empties
  // blocks, merging creates longer blocks for the local passes), so loop
  // until a whole round changes nothing. The bound is a backstop: each
  // round either removes instructions/blocks or rewrites operands toward
  // canonical form, so real programs converge in a handful of rounds.
  constexpr unsigned MaxRounds = 16;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    Changes = 0;
    if (!run(foldConstants, "foldConstants") ||
        !run(propagateCopies, "propagateCopies") ||
        !run(eliminateDeadCode, "eliminateDeadCode") ||
        !run(simplifyCfg, "simplifyCfg"))
      return false;
    ++Stats.Rounds;
    if (Changes == 0)
      break;
  }

  Stats.InstsAfter = countInsts(F);
  Stats.BlocksAfter = static_cast<unsigned>(F.Blocks.size());
  return true;
}
