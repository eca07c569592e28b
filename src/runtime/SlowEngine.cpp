//===- SlowEngine.cpp - The slow / complete simulator ----------------------===//
//
// Executes the full per-block streams of the ExecPlan: rt-static
// instructions against the slow simulator's private state, dynamic
// instructions against the shared state while recording action nodes and
// placeholder data into the cache. Also implements miss recovery (paper
// §4.3): re-execute rt-static code only, take dynamic results from the
// replayed prefix handed over by the fast engine, then resume recording at
// the miss point.
//
// Once the plan's slow-step function is compiled (JitCache), a session
// with the JIT armed runs the stream natively instead: block to block in
// one call, returning here at Ret, on a bail, and — recording, rarely — to
// flush a full node log. A recording call logs each action block's
// captured words and a node descriptor as it goes; one commit pass here
// turns the log into cache nodes. Miss recovery stays interpreted; the
// recording that resumes after the miss point goes native.
//
// Every condition that used to be an assert but is reachable from user
// input — a corrupted recovery prefix, an illegal opcode in a loaded plan,
// a control-flow target outside the block table — raises a structured
// fault instead and abandons the step, detaching the entry being recorded
// so the cache never retains a half-recorded step.
//
//===----------------------------------------------------------------------===//

#include "src/runtime/Simulation.h"

#include "src/jit/JitCache.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <utility>

using namespace facile;
using namespace facile::rt;
using namespace facile::ir;

void Simulation::runSlow(EntryId Rec, const ReplayedStep *Recovery) {
  const ExecPlan &P = *Plan;
  const bool Record = Rec != NoId;
  const size_t NBlocks =
      std::min(P.BlockOfs.size() - 1, Prog.Actions.Blocks.size());
  bool Recovering = Recovery != nullptr;
  size_t RecoveryIdx = 0;

  // Where the next recorded node hangs: off the entry head, a plain node's
  // Next, or a test node's OnValue[PrevEdge].
  uint32_t PrevNode = ActionNode::NoNode;
  int PrevEdge = -1;

  // Abandons the step on a detected inconsistency. Anything recorded so
  // far becomes unreachable (the key maps to no entry again), so the next
  // visit of this key records from scratch.
  auto fail = [&](FaultKind Kind, const char *Detail) {
    if (Record)
      Cache.detachEntry(Rec);
    raiseFault(Kind, Detail);
  };

  // Recovery seeds from the key and leaves the dynamic store alone: the
  // replayed prefix may already have written demoted globals there, and
  // key-static ones are written back at Ret.
  if (Recovering) {
    assert(Rec == Recovery->Entry && "recovery must extend the missed entry");
    if (!seedStaticFromKey(Recovery->Key))
      return fail(FaultKind::CacheCorrupt, "step key is malformed");
  } else {
    materialize();
    if (Fault) // the state key was malformed
      return fail(FaultKind::CacheCorrupt, "step key is malformed");
    copyInitDynToStatic();
  }

  // The link tag of the node currently being recorded (sealed with it).
  uint64_t NodeTag = 0;

  // Links arena node \p Idx at the current attach point. The attach point
  // may be a base node (miss recovery extends a mapped entry's Test), so
  // links go through the cache's setters: overlay parents are written in
  // place, base parents get an edge patch. The seal tag is the same
  // either way — tags are over global ids.
  auto link = [&](uint32_t Idx) {
    if (PrevNode == ActionNode::NoNode) {
      assert(Cache.entry(Rec).Head == ActionNode::NoNode &&
             "entry already has a head");
      Cache.entry(Rec).Head = Idx;
      NodeTag = ActionCache::headTag(Cache.entry(Rec).Key);
    } else if (PrevEdge < 0) {
      Cache.setNext(PrevNode, Idx);
      NodeTag = ActionCache::edgeTag(PrevNode, -1);
    } else {
      Cache.setTestSuccessor(PrevNode, PrevEdge, Idx);
      NodeTag = ActionCache::edgeTag(PrevNode, PrevEdge);
    }
    PrevNode = Idx;
    PrevEdge = -1;
  };
  auto appendNode = [&](int32_t ActionId) -> uint32_t {
    uint32_t Idx = Cache.appendNode(ActionId);
    link(Idx);
    return Idx;
  };

  // Sealing closes a node's data span and integrity seal; its kind must be
  // final by then. A block whose terminator transfers control closes its
  // node as a Test node hanging the next one off edge \p Edge (a
  // dynamic-result Branch), or as a plain node (\p Edge < 0).
  auto closeNode = [&](uint32_t NodeIdx, int Edge) {
    if (NodeIdx == ActionNode::NoNode)
      return;
    ActionNode &N = Cache.node(NodeIdx);
    if (Edge >= 0)
      N.K = ActionNode::Kind::Test;
    N.DataLen = Cache.dataSize() - N.DataOfs;
    Cache.sealNode(NodeIdx, NodeTag);
    if (Edge >= 0)
      PrevEdge = Edge;
  };
  // Ret ends the step in every mode: key-static globals, which have no
  // flush, take their static values in the dynamic store. A Ret block's
  // node then names the next step's key (hashed as it is serialized) and
  // arms the INDEX chain; the caller seals it. False without a node.
  auto endStep = [&](uint32_t NodeIdx) {
    writeBackKeyStatic();
    if (NodeIdx == ActionNode::NoNode)
      return false;
    const SerializedKey Key = serializeKey();
    KeyId Next = Cache.internKey(KeyBuf.data(), Key.Len, Key.Hash);
    ActionNode &N = Cache.node(NodeIdx);
    N.K = ActionNode::Kind::End;
    N.NextKey = Next;
    N.DataLen = Cache.dataSize() - N.DataOfs;
    PendingEndNode = NodeIdx;
    return true;
  };

  // The plan's compiled slow-step function for this step's shape, once
  // enough slow steps have run to compile it.
  jit::JitSession *const Jit = JitCtx;
  jit::JitSlowFn Native = nullptr;
  if (Jit) {
    jit::JitCache &JC = *Jit->Cache;
    Native = JC.slowFn(Record);
    if (!Native) {
      JC.noteSlowStep(Jit->Threshold);
      Native = JC.slowFn(Record);
    }
    if (Native && Record && Jit->Capture.size() < JC.slowCaptureWords()) {
      Jit->Capture.resize(JC.slowCaptureWords());
      Jit->Frame.Capture = Jit->Capture.data();
      Jit->Frame.NodeLog = reinterpret_cast<uint64_t *>(
          Jit->Capture.data() + Jit->Capture.size());
    }
  }

  // Commits what one recording native call logged, in one pass: a node per
  // logged action block and, after a bail inside an action block, the
  // partial node the interpreter appended before the fault (linked, holding
  // the words captured so far, never closed). Each node is spanned, linked
  // and sealed as appendNode/closeNode would; the End node of a Ret is
  // returned open, with its data xor in \p EndXor, for endStep. The
  // footprint is sampled where the interpreter's last sample would fall:
  // after the last node's words, or before its link when it has none.
  auto commitNative = [&](bool Bailed, uint64_t &EndXor) {
    const jit::JitFrame &F = Jit->Frame;
    const uint64_t *Log = F.NodeLog;
    const size_t Logged = static_cast<size_t>(Log - F.NodeLogEnd);
    const int32_t PartialAction =
        Bailed ? Prog.Actions.Blocks[F.SlowBlock].ActionId
               : ActionBlockInfo::NoAction;
    const size_t NNodes = Logged + (PartialAction != ActionBlockInfo::NoAction);
    if (NNodes == 0)
      return ActionNode::NoNode; // only action blocks capture
    const int64_t *const Words = F.Capture;
    const uint32_t NWords = static_cast<uint32_t>(F.CaptureEnd - Words);
    uint32_t Idx = Cache.appendNodes(NNodes, Words, NWords);
    S.PlaceholderWords += NWords;
    const uint32_t Base = Cache.dataSize() - NWords;
    uint32_t Used = 0, End = ActionNode::NoNode;
    for (size_t I = 0; I != NNodes; ++I, ++Idx) {
      const bool Partial = I == Logged;
      const uint64_t D = Partial ? 0 : Log[-1 - static_cast<ptrdiff_t>(I)];
      const uint32_t Len = Partial ? NWords - Used : jit::slowNodeWords(D);
      assert(Used + Len <= NWords && "node log overruns the capture");
      const bool Last = I + 1 == NNodes;
      if (Last && Len == 0)
        Cache.notePeak();
      link(Idx);
      ActionNode &N = Cache.node(Idx);
      N.DataOfs = Base + Used;
      if (Partial) {
        N.ActionId = PartialAction;
      } else {
        N.ActionId = jit::slowNodeAction(D);
        N.DataLen = Len;
        uint64_t X = 0;
        for (uint32_t W = Used; W != Used + Len; ++W)
          X ^= static_cast<uint64_t>(Words[W]);
        Used += Len;
        switch (jit::slowNodeKind(D)) {
        case jit::SlowPlain:
          Cache.sealNode(Idx, NodeTag, X);
          break;
        case jit::SlowEdge0:
        case jit::SlowEdge1:
          N.K = ActionNode::Kind::Test;
          Cache.sealNode(Idx, NodeTag, X);
          PrevEdge = jit::slowNodeKind(D) == jit::SlowEdge1 ? 1 : 0;
          break;
        case jit::SlowEnd:
          End = Idx;
          EndXor = X;
          break;
        }
      }
      if (Last && Len != 0)
        Cache.notePeak();
    }
    return End;
  };

  uint32_t BB = 0;
  int64_t ArgBuf[16];
  for (;;) {
    if (Native && !Recovering) {
      // Native: runs from BB to Ret, a bail or — recording — a full node
      // log, then commits what the call logged. Extern calls never read
      // the cache, so recording the nodes after their blocks ran leaves
      // the pool, seals and peak accounting bit-identical to the
      // interpreter — including on a mid-body bail, where exactly the
      // words pushed before the fault are committed.
      const int64_t R = Native(&Jit->Frame, BB);
      ++Jit->SlowCalls;
      uint32_t End = ActionNode::NoNode;
      uint64_t EndXor = 0;
      if (Record)
        End = commitNative(R < 0, EndXor);
      if (R < 0) {
        if (R == jit::BailFetchOob)
          return fail(FaultKind::DecodeError,
                      "instruction fetch outside the text segment");
        return fail(FaultKind::ExternFailure, "extern call failed");
      }
      if ((R & 3) == jit::SlowRet) {
        if (endStep(End))
          Cache.sealNode(End, NodeTag, EndXor);
        return;
      }
      BB = static_cast<uint32_t>(R >> 2);
      continue;
    }

    const ActionBlockInfo &AI = Prog.Actions.Blocks[BB];

    uint32_t NodeIdx = ActionNode::NoNode;
    bool MissBlock = false;   ///< this block holds the missed test
    int64_t RecordedTest = 0; ///< recovery: the recorded test outcome

    if (AI.ActionId != ActionBlockInfo::NoAction) {
      if (Recovering) {
        if (RecoveryIdx >= Recovery->Path.size())
          return fail(FaultKind::CacheCorrupt,
                      "recovery walked past the recorded prefix");
        const ReplayedStep::Item &Item = Recovery->Path[RecoveryIdx];
        // Const access: the replayed prefix may run through base nodes.
        if (std::as_const(Cache).node(Item.Node).ActionId != AI.ActionId)
          return fail(FaultKind::CacheCorrupt,
                      "slow and fast simulators disagree on the control path");
        MissBlock = RecoveryIdx + 1 == Recovery->Path.size();
        RecordedTest = Item.Value;
        if (MissBlock) {
          // Attach new recording after the missed test.
          PrevNode = Item.Node;
        }
        ++RecoveryIdx;
      } else if (Record) {
        NodeIdx = appendNode(AI.ActionId);
      }
    }

    // Execute the block body (everything but the terminator).
    const XInst *IP = P.blockBegin(BB);
    const XInst *Term = P.blockEnd(BB) - 1;
    for (; IP != Term; ++IP) {
      const XInst &I = *IP;
      if (!I.Dynamic) {
        // Run-time static: executes on the slow simulator's private state.
        switch (I.Opcode) {
        case XOp::Const:
          StatSlots[I.Dst] = I.Imm;
          break;
        case XOp::Copy:
          StatSlots[I.Dst] = StatSlots[I.A];
          break;
        case XOp::Bin:
          StatSlots[I.Dst] = evalBin(static_cast<ast::BinOp>(I.Kind),
                                     StatSlots[I.A], StatSlots[I.B]);
          break;
        case XOp::Un:
          StatSlots[I.Dst] =
              evalUn(static_cast<UnKind>(I.Kind), StatSlots[I.A], I.Imm);
          break;
        case XOp::LoadGlobal:
          StatSlots[I.Dst] = StatGlobals[I.Id];
          break;
        case XOp::StoreGlobal:
          StatGlobals[I.Id] = StatSlots[I.A];
          break;
        case XOp::LoadElem: {
          const std::vector<int64_t> &Arr = StatArrays[I.Id];
          StatSlots[I.Dst] = Arr[wrapIndex(StatSlots[I.A], Arr.size())];
          break;
        }
        case XOp::StoreElem: {
          std::vector<int64_t> &Arr = StatArrays[I.Id];
          Arr[wrapIndex(StatSlots[I.A], Arr.size())] = StatSlots[I.B];
          break;
        }
        case XOp::LoadLocElem: {
          const std::vector<int64_t> &Arr = StatLocalArrays[I.Id];
          StatSlots[I.Dst] = Arr[wrapIndex(StatSlots[I.A], Arr.size())];
          break;
        }
        case XOp::StoreLocElem: {
          std::vector<int64_t> &Arr = StatLocalArrays[I.Id];
          Arr[wrapIndex(StatSlots[I.A], Arr.size())] = StatSlots[I.B];
          break;
        }
        case XOp::InitLocArray:
          StatLocalArrays[I.Id].assign(StatLocalArrays[I.Id].size(),
                                       StatSlots[I.A]);
          break;
        case XOp::Fetch: {
          uint32_t Addr = static_cast<uint32_t>(StatSlots[I.A]);
          if (Addr < Image.TextBase || Addr >= Image.textEnd())
            return fail(FaultKind::DecodeError,
                        "instruction fetch outside the text segment");
          StatSlots[I.Dst] = Image.fetch(Addr);
          break;
        }
        // Only pure builtins can be rt-static.
        case XOp::TextStart:
          StatSlots[I.Dst] = Image.TextBase;
          break;
        case XOp::TextEnd:
          StatSlots[I.Dst] = Image.textEnd();
          break;
        default:
          assert(false && "unexpected rt-static opcode");
          return fail(FaultKind::PlanCorrupt,
                      "unexpected rt-static opcode in the slow stream");
        }
        continue;
      }

      // Dynamic instruction.
      if (Recovering)
        continue; // already executed by the fast simulator

      // Operand fetch in placeholder order; rt-static operands come from
      // the slow simulator's state and are memoized.
      auto readOperand = [&](uint32_t Slot, unsigned Pos) -> int64_t {
        if (I.StaticOperands & (1u << Pos)) {
          int64_t V = StatSlots[Slot];
          if (NodeIdx != ActionNode::NoNode) {
            Cache.pushData(V);
            ++S.PlaceholderWords;
          }
          return V;
        }
        return DynSlots[Slot];
      };
      auto memoize = [&](int64_t V) {
        if (NodeIdx != ActionNode::NoNode) {
          Cache.pushData(V);
          ++S.PlaceholderWords;
        }
      };

      switch (I.Opcode) {
      case XOp::Copy:
        DynSlots[I.Dst] = readOperand(I.A, 0);
        break;
      case XOp::Bin: {
        int64_t A = readOperand(I.A, 0);
        int64_t B = readOperand(I.B, 1);
        DynSlots[I.Dst] = evalBin(static_cast<ast::BinOp>(I.Kind), A, B);
        break;
      }
      case XOp::Un:
        DynSlots[I.Dst] =
            evalUn(static_cast<UnKind>(I.Kind), readOperand(I.A, 0), I.Imm);
        break;
      case XOp::LoadGlobal:
        DynSlots[I.Dst] = DynGlobals[I.Id];
        break;
      case XOp::StoreGlobal:
        DynGlobals[I.Id] = readOperand(I.A, 0);
        break;
      case XOp::LoadElem: {
        std::vector<int64_t> &Arr = DynArrays[I.Id];
        DynSlots[I.Dst] = Arr[wrapIndex(readOperand(I.A, 0), Arr.size())];
        break;
      }
      case XOp::StoreElem: {
        int64_t Idx = readOperand(I.A, 0);
        int64_t V = readOperand(I.B, 1);
        std::vector<int64_t> &Arr = DynArrays[I.Id];
        Arr[wrapIndex(Idx, Arr.size())] = V;
        break;
      }
      case XOp::LoadLocElem: {
        std::vector<int64_t> &Arr = DynLocalArrays[I.Id];
        DynSlots[I.Dst] = Arr[wrapIndex(readOperand(I.A, 0), Arr.size())];
        break;
      }
      case XOp::StoreLocElem: {
        int64_t Idx = readOperand(I.A, 0);
        int64_t V = readOperand(I.B, 1);
        std::vector<int64_t> &Arr = DynLocalArrays[I.Id];
        Arr[wrapIndex(Idx, Arr.size())] = V;
        break;
      }
      case XOp::InitLocArray: {
        int64_t V = readOperand(I.A, 0);
        DynLocalArrays[I.Id].assign(DynLocalArrays[I.Id].size(), V);
        break;
      }
      case XOp::Fetch: {
        uint32_t Addr = static_cast<uint32_t>(readOperand(I.A, 0));
        if (Addr < Image.TextBase || Addr >= Image.textEnd())
          return fail(FaultKind::DecodeError,
                      "instruction fetch outside the text segment");
        DynSlots[I.Dst] = Image.fetch(Addr);
        break;
      }
      case XOp::CallExtern: {
        if (I.ArgCount > 16)
          return fail(FaultKind::PlanCorrupt, "extern arity limit exceeded");
        if (static_cast<uint64_t>(I.ArgOfs) + I.ArgCount > P.ArgPool.size())
          return fail(FaultKind::PlanCorrupt,
                      "extern argument span outside the plan's arg pool");
        for (unsigned A = 0; A != I.ArgCount; ++A)
          ArgBuf[A] = readOperand(P.ArgPool[I.ArgOfs + A], 2 + A);
        int64_t R = 0;
        if (!externCall(I, ArgBuf, R))
          return fail(FaultKind::ExternFailure, "extern call failed");
        if (I.Dst != NoSlot)
          DynSlots[I.Dst] = R;
        break;
      }
      case XOp::MemLd:
        DynSlots[I.Dst] =
            Mem.read32(static_cast<uint32_t>(readOperand(I.A, 0)));
        break;
      case XOp::MemLd8:
        DynSlots[I.Dst] = Mem.read8(static_cast<uint32_t>(readOperand(I.A, 0)));
        break;
      case XOp::MemSt: {
        int64_t Addr = readOperand(I.A, 0);
        int64_t V = readOperand(I.B, 1);
        Mem.write32(static_cast<uint32_t>(Addr), static_cast<uint32_t>(V));
        break;
      }
      case XOp::MemSt8: {
        int64_t Addr = readOperand(I.A, 0);
        int64_t V = readOperand(I.B, 1);
        Mem.write8(static_cast<uint32_t>(Addr), static_cast<uint8_t>(V));
        break;
      }
      case XOp::SimHalt:
        HaltFlag = true;
        break;
      case XOp::Retire:
        S.RetiredTotal += static_cast<uint64_t>(readOperand(I.A, 0));
        break;
      case XOp::Cycles:
        S.Cycles += static_cast<uint64_t>(readOperand(I.A, 0));
        break;
      case XOp::TextStart:
        DynSlots[I.Dst] = Image.TextBase;
        break;
      case XOp::TextEnd:
        DynSlots[I.Dst] = Image.textEnd();
        break;
      case XOp::Print:
        std::printf("%lld\n", static_cast<long long>(readOperand(I.A, 0)));
        break;
      case XOp::SyncSlot: {
        int64_t V = StatSlots[I.Dst];
        memoize(V);
        DynSlots[I.Dst] = V;
        break;
      }
      case XOp::SyncGlobal: {
        int64_t V = StatGlobals[I.Id];
        memoize(V);
        DynGlobals[I.Id] = V;
        break;
      }
      case XOp::SyncArray: {
        const std::vector<int64_t> &Src = StatArrays[I.Id];
        std::vector<int64_t> &Dst = DynArrays[I.Id];
        for (size_t E = 0; E != Src.size(); ++E) {
          memoize(Src[E]);
          Dst[E] = Src[E];
        }
        break;
      }
      default:
        assert(false && "unexpected dynamic opcode");
        return fail(FaultKind::PlanCorrupt,
                    "unexpected dynamic opcode in the slow stream");
      }
    }

    // Terminator.
    const XInst &T = *Term;
    switch (T.Opcode) {
    case XOp::Jump:
      closeNode(NodeIdx, -1);
      BB = T.Target;
      break;
    case XOp::Branch: {
      bool Taken;
      if (!T.Dynamic) {
        Taken = StatSlots[T.A] != 0;
        closeNode(NodeIdx, -1);
      } else if (Recovering) {
        // Dynamic-result tests take the value recorded by the fast
        // simulator; at the miss point, the newly computed value.
        Taken = (MissBlock ? Recovery->MissValue : RecordedTest) != 0;
        if (MissBlock) {
          PrevEdge = Taken ? 1 : 0;
          Recovering = false;
        }
      } else {
        Taken = DynSlots[T.A] != 0;
        closeNode(NodeIdx, Taken ? 1 : 0);
      }
      BB = Taken ? T.Target : T.Target2;
      break;
    }
    case XOp::Ret:
      if (Recovering)
        return fail(FaultKind::CacheCorrupt,
                    "step ended before reaching the miss point");
      if (endStep(NodeIdx))
        Cache.sealNode(NodeIdx, NodeTag);
      return;
    default:
      assert(false && "block without a terminator");
      return fail(FaultKind::PlanCorrupt, "block without a terminator");
    }
    if (BB >= NBlocks)
      return fail(FaultKind::PlanCorrupt,
                  "control transfer outside the block table");
  }
}
