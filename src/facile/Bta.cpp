//===- Bta.cpp - Binding-time analysis for Facile IR ------------------------===//

#include "src/facile/Bta.h"

#include <cassert>
#include <deque>
#include <map>

using namespace facile;
using namespace facile::ir;

namespace {

/// The binding-time lattice. Join is max(); Undef is bottom (a value not
/// yet defined along any path into the merge).
enum BT : uint8_t { Undef = 0, Stat = 1, Dyn = 2 };

BT join(BT A, BT B) { return A > B ? A : B; }

/// Enumerates the slot operands of \p I in placeholder order: A, B, Args.
template <typename Fn> void forEachUse(const Inst &I, Fn F) {
  unsigned Pos = 0;
  if (I.A != NoSlot && I.Opcode != Op::SyncSlot)
    F(I.A, Pos);
  ++Pos;
  if (I.B != NoSlot)
    F(I.B, Pos);
  ++Pos;
  for (size_t K = 0; K != I.Args.size(); ++K)
    F(I.Args[K], Pos + static_cast<unsigned>(K));
}

class Analyzer {
public:
  Analyzer(LoweredProgram &LP, std::vector<bool> *DynArrays,
           std::vector<bool> *DynLocalArrays, std::vector<bool> *KeyStatic)
      : F(LP.Step), Globals(LP.Globals), DynArrays(*DynArrays),
        DynLocalArrays(*DynLocalArrays), KeyStatic(*KeyStatic) {}

  BtaStats run() {
    computeCrossSlots();
    seedArrayClasses();
    // Restart loop: rerun the scalar fixpoint until no rt-static array is
    // accessed dynamically.
    for (;;) {
      fixpoint();
      if (!demoteViolatingArrays())
        break;
      ++Stats.ArrayRestarts;
    }
    labelInstructions();
    classifyKeyStatic();
    insertSyncs();
    return Stats;
  }

private:
  StepFunction &F;
  std::vector<GlobalVar> &Globals;
  std::vector<bool> &DynArrays;
  std::vector<bool> &DynLocalArrays;
  std::vector<bool> &KeyStatic;
  BtaStats Stats;

  // Cross-block slots get dense indices into the per-block entry states;
  // block-local temporaries are tracked only in the walk scratch.
  std::vector<uint32_t> CrossIndex; ///< slot -> dense index or ~0u
  std::vector<SlotId> CrossSlots;   ///< dense index -> slot
  static constexpr uint32_t NotCross = ~0u;

  /// Per-block entry state: [cross slots..., scalar globals...]. Present
  /// (non-empty) only for reached blocks.
  std::vector<std::vector<uint8_t>> Entry;
  std::vector<uint8_t> Scratch;        ///< full slot array during a walk
  std::vector<uint8_t> GlobalScratch;  ///< scalar global BTs during a walk

  size_t stateSize() const { return CrossSlots.size() + Globals.size(); }

  void computeCrossSlots() {
    // A slot referenced by more than one block must be carried in block
    // entry states; lowering guarantees single-block slots are defined
    // before use within their block.
    std::vector<uint32_t> FirstBlock(F.NumSlots, NotCross);
    std::vector<bool> Cross(F.NumSlots, false);
    for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
      auto Touch = [&](SlotId S) {
        if (S == NoSlot)
          return;
        if (FirstBlock[S] == NotCross)
          FirstBlock[S] = B;
        else if (FirstBlock[S] != B)
          Cross[S] = true;
      };
      for (const Inst &I : F.Blocks[B].Insts) {
        forEachUse(I, [&](SlotId S, unsigned) { Touch(S); });
        if (I.A != NoSlot)
          Touch(I.A);
        Touch(I.Dst);
      }
    }
    CrossIndex.assign(F.NumSlots, NotCross);
    for (SlotId S = 0; S != F.NumSlots; ++S)
      if (Cross[S]) {
        CrossIndex[S] = static_cast<uint32_t>(CrossSlots.size());
        CrossSlots.push_back(S);
      }
  }

  void seedArrayClasses() {
    DynArrays.assign(Globals.size(), false);
    for (size_t G = 0; G != Globals.size(); ++G)
      if (Globals[G].IsArray && !Globals[G].IsInit)
        DynArrays[G] = true; // non-init arrays are dynamic at entry
    DynLocalArrays.assign(F.LocalArrays.size(), false);
  }

  //===-- state plumbing -------------------------------------------------------
  std::vector<uint8_t> initialEntryState() const {
    std::vector<uint8_t> St(stateSize(), Undef);
    for (size_t G = 0; G != Globals.size(); ++G)
      if (!Globals[G].IsArray)
        St[CrossSlots.size() + G] =
            Globals[G].IsInit ? Stat : Dyn;
    return St;
  }

  BT slotBT(SlotId S) const { return static_cast<BT>(Scratch[S]); }
  void setSlotBT(SlotId S, BT V) { Scratch[S] = V; }
  BT globalBT(uint32_t G) const { return static_cast<BT>(GlobalScratch[G]); }
  void setGlobalBT(uint32_t G, BT V) { GlobalScratch[G] = V; }

  void loadState(const std::vector<uint8_t> &St) {
    for (size_t I = 0; I != CrossSlots.size(); ++I)
      Scratch[CrossSlots[I]] = St[I];
    for (size_t G = 0; G != Globals.size(); ++G)
      GlobalScratch[G] = St[CrossSlots.size() + G];
  }

  std::vector<uint8_t> saveState() const {
    std::vector<uint8_t> St(stateSize());
    for (size_t I = 0; I != CrossSlots.size(); ++I)
      St[I] = Scratch[CrossSlots[I]];
    for (size_t G = 0; G != Globals.size(); ++G)
      St[CrossSlots.size() + G] = GlobalScratch[G];
    return St;
  }

  //===-- transfer --------------------------------------------------------------
  /// Computes the binding time of \p I under the current scratch state and
  /// applies its state effects.
  BT transfer(const Inst &I) {
    BT UsesBT = Undef;
    forEachUse(I, [&](SlotId S, unsigned) { UsesBT = join(UsesBT, slotBT(S)); });

    BT Label = Stat;
    switch (I.Opcode) {
    case Op::Const:
      Label = Stat;
      break;
    case Op::Copy:
    case Op::Bin:
    case Op::Un:
    case Op::Fetch:
      Label = UsesBT == Undef ? Stat : UsesBT;
      break;
    case Op::LoadGlobal:
      Label = globalBT(I.Id) == Undef ? Dyn : globalBT(I.Id);
      break;
    case Op::StoreGlobal:
      Label = UsesBT == Undef ? Stat : UsesBT;
      setGlobalBT(I.Id, Label);
      break;
    case Op::LoadElem:
    case Op::StoreElem:
      Label = DynArrays[I.Id] ? Dyn : Stat;
      break;
    case Op::LoadLocElem:
    case Op::StoreLocElem:
    case Op::InitLocArray:
      Label = DynLocalArrays[I.Id] ? Dyn : Stat;
      break;
    case Op::CallExtern:
      Label = Dyn;
      break;
    case Op::CallBuiltin:
      Label = builtinInfo(static_cast<Builtin>(I.Imm)).Dynamic
                  ? Dyn
                  : (UsesBT == Undef ? Stat : UsesBT);
      break;
    case Op::Jump:
    case Op::Ret:
      Label = Stat;
      break;
    case Op::Branch:
      Label = UsesBT == Undef ? Stat : UsesBT;
      break;
    case Op::SyncSlot:
    case Op::SyncGlobal:
    case Op::SyncArray:
      Label = Dyn;
      break;
    }

    if (I.Dst != NoSlot)
      setSlotBT(I.Dst, Label);
    return Label;
  }

  //===-- fixpoint ---------------------------------------------------------------
  void fixpoint() {
    Entry.assign(F.Blocks.size(), {});
    Scratch.assign(F.NumSlots, Undef);
    GlobalScratch.assign(Globals.size(), Undef);

    Entry[0] = initialEntryState();
    std::deque<uint32_t> Work;
    std::vector<bool> InWork(F.Blocks.size(), false);
    Work.push_back(0);
    InWork[0] = true;

    while (!Work.empty()) {
      uint32_t B = Work.front();
      Work.pop_front();
      InWork[B] = false;
      loadState(Entry[B]);
      for (const Inst &I : F.Blocks[B].Insts)
        transfer(I);
      std::vector<uint8_t> Exit = saveState();

      uint32_t Succs[2];
      unsigned Count = 0;
      F.successors(B, Succs, &Count);
      for (unsigned K = 0; K != Count; ++K) {
        uint32_t Succ = Succs[K];
        std::vector<uint8_t> &SEntry = Entry[Succ];
        bool Changed = false;
        if (SEntry.empty()) {
          SEntry = Exit;
          Changed = true;
        } else {
          for (size_t I = 0; I != SEntry.size(); ++I) {
            uint8_t J = join(static_cast<BT>(SEntry[I]),
                             static_cast<BT>(Exit[I]));
            if (J != SEntry[I]) {
              SEntry[I] = J;
              Changed = true;
            }
          }
        }
        if (Changed && !InWork[Succ]) {
          Work.push_back(Succ);
          InWork[Succ] = true;
        }
      }
    }
  }

  /// After a fixpoint, finds accesses that contradict an rt-static array
  /// class. Returns true (and demotes) if any were found.
  bool demoteViolatingArrays() {
    bool Any = false;
    for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
      if (Entry[B].empty())
        continue; // unreachable
      loadState(Entry[B]);
      for (const Inst &I : F.Blocks[B].Insts) {
        BT UsesBT = Undef;
        forEachUse(I, [&](SlotId S, unsigned) {
          UsesBT = join(UsesBT, slotBT(S));
        });
        if (UsesBT == Dyn) {
          if ((I.Opcode == Op::LoadElem || I.Opcode == Op::StoreElem) &&
              !DynArrays[I.Id]) {
            DynArrays[I.Id] = true;
            Any = true;
          }
          if ((I.Opcode == Op::LoadLocElem || I.Opcode == Op::StoreLocElem ||
               I.Opcode == Op::InitLocArray) &&
              !DynLocalArrays[I.Id]) {
            DynLocalArrays[I.Id] = true;
            Any = true;
          }
        }
        transfer(I);
      }
    }
    return Any;
  }

  //===-- final labeling -----------------------------------------------------------
  void labelInstructions() {
    for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
      if (Entry[B].empty()) {
        // Unreachable block: label everything rt-static; it never runs.
        for (Inst &I : F.Blocks[B].Insts)
          I.Dynamic = false;
        continue;
      }
      loadState(Entry[B]);
      for (Inst &I : F.Blocks[B].Insts) {
        // Record per-operand binding times before the transfer mutates
        // the state.
        uint32_t Mask = 0;
        forEachUse(I, [&](SlotId S, unsigned Pos) {
          if (slotBT(S) != Dyn)
            Mask |= 1u << Pos;
        });
        BT Label = transfer(I);
        I.Dynamic = Label == Dyn;
        I.StaticOperands = I.Dynamic ? Mask : 0;
        if (I.Dynamic)
          ++Stats.DynamicInsts;
        else
          ++Stats.StaticInsts;
      }
    }
  }

  //===-- key-static classification ---------------------------------------------
  /// Reachable Ret blocks with the scalar-global state just before their
  /// terminator, in the walk scratch.
  template <typename Fn> void forEachRetExit(Fn Visit) {
    for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
      if (Entry[B].empty() || F.Blocks[B].terminator().Opcode != Op::Ret)
        continue;
      loadState(Entry[B]);
      std::vector<Inst> &Insts = F.Blocks[B].Insts;
      for (size_t K = 0; K + 1 < Insts.size(); ++K)
        transfer(Insts[K]);
      Visit(Insts);
    }
  }

  /// An init global is key-static when it is rt-static at every reachable
  /// Ret: its value at step end is fixed by the key and the recorded path,
  /// so the End node's next key already holds it and no flush is needed.
  /// An init array is key-static unless the restart loop demoted it.
  void classifyKeyStatic() {
    KeyStatic.assign(Globals.size(), false);
    for (size_t G = 0; G != Globals.size(); ++G)
      KeyStatic[G] = Globals[G].IsInit && !(Globals[G].IsArray && DynArrays[G]);
    forEachRetExit([&](const std::vector<Inst> &) {
      for (uint32_t G = 0; G != Globals.size(); ++G)
        if (!Globals[G].IsArray && globalBT(G) != Stat)
          KeyStatic[G] = false;
    });
    for (size_t G = 0; G != Globals.size(); ++G)
      if (KeyStatic[G])
        Stats.KeyStaticWords += Globals[G].IsArray ? Globals[G].Size : 1;
  }

  //===-- sync insertion -------------------------------------------------------------
  Inst syncSlotInst(SlotId S) {
    Inst I;
    I.Opcode = Op::SyncSlot;
    I.Dst = S;
    I.Dynamic = true;
    return I;
  }
  Inst syncGlobalInst(uint32_t G) {
    Inst I;
    I.Opcode = Op::SyncGlobal;
    I.Id = G;
    I.Dynamic = true;
    return I;
  }
  Inst syncArrayInst(uint32_t G) {
    Inst I;
    I.Opcode = Op::SyncArray;
    I.Id = G;
    I.Dynamic = true;
    return I;
  }

  void insertSyncs() {
    // 1. Flush every rt-static scalar global and rt-static array that is
    //    not key-static before Ret, so the next step's key (and any
    //    external observer) sees the up-to-date store. Key-static globals
    //    are restored from the step's next key instead (Simulation.h).
    forEachRetExit([&](std::vector<Inst> &Insts) {
      std::vector<Inst> Flushes;
      for (uint32_t G = 0; G != Globals.size(); ++G) {
        if (KeyStatic[G])
          continue;
        if (Globals[G].IsArray) {
          if (!DynArrays[G])
            Flushes.push_back(syncArrayInst(G));
        } else if (globalBT(G) == Stat) {
          Flushes.push_back(syncGlobalInst(G));
        }
      }
      Stats.SyncInsts += static_cast<unsigned>(Flushes.size());
      Insts.insert(Insts.end() - 1, Flushes.begin(), Flushes.end());
    });

    // 2. Split every edge that demotes an rt-static slot or scalar global
    //    to dynamic, materialising the value on the edge.
    struct Split {
      uint32_t Pred;
      unsigned SuccIdx; ///< 0 = Target, 1 = Target2
      std::vector<Inst> Syncs;
    };
    std::vector<Split> Splits;
    for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
      if (Entry[B].empty())
        continue;
      loadState(Entry[B]);
      for (const Inst &I : F.Blocks[B].Insts)
        transfer(I);
      std::vector<uint8_t> Exit = saveState();

      uint32_t Succs[2];
      unsigned Count = 0;
      F.successors(B, Succs, &Count);
      for (unsigned K = 0; K != Count; ++K) {
        const std::vector<uint8_t> &SEntry = Entry[Succs[K]];
        if (SEntry.empty())
          continue;
        std::vector<Inst> Syncs;
        for (size_t I = 0; I != CrossSlots.size(); ++I)
          if (Exit[I] == Stat && SEntry[I] == Dyn)
            Syncs.push_back(syncSlotInst(CrossSlots[I]));
        for (size_t G = 0; G != Globals.size(); ++G)
          if (Exit[CrossSlots.size() + G] == Stat &&
              SEntry[CrossSlots.size() + G] == Dyn)
            Syncs.push_back(syncGlobalInst(static_cast<uint32_t>(G)));
        if (!Syncs.empty())
          Splits.push_back({B, K, std::move(Syncs)});
      }
    }
    for (Split &Sp : Splits) {
      Inst &Term = F.Blocks[Sp.Pred].Insts.back();
      uint32_t &TargetRef = Sp.SuccIdx == 0 ? Term.Target : Term.Target2;
      uint32_t NewBlock = static_cast<uint32_t>(F.Blocks.size());
      Block NB;
      NB.Insts = std::move(Sp.Syncs);
      Stats.SyncInsts += static_cast<unsigned>(NB.Insts.size());
      Inst J;
      J.Opcode = Op::Jump;
      J.Target = TargetRef;
      NB.Insts.push_back(J);
      F.Blocks.push_back(std::move(NB));
      TargetRef = NewBlock;
      ++Stats.SplitEdges;
    }
  }
};

} // namespace

BtaStats facile::annotateStepFunction(LoweredProgram &LP,
                                      std::vector<bool> *DynArrays,
                                      std::vector<bool> *DynLocalArrays,
                                      std::vector<bool> *KeyStatic) {
  std::vector<bool> Unused;
  Analyzer A(LP, DynArrays, DynLocalArrays, KeyStatic ? KeyStatic : &Unused);
  return A.run();
}
