//===- ExecBackend.cpp - Interpret and Jit execution backends --------------===//
//
// The two engine-dispatch strategies behind Simulation::step(), plus the
// runtime-service thunks native code calls out to. The Jit backend owns
// the per-session jit::JitSession (frame pointers, trip point, counters)
// and arms Simulation::JitCtx with it; the engines call the compiled code
// (FastEngine.cpp a bound trace, SlowEngine.cpp the slow-step function).
//
//===----------------------------------------------------------------------===//

#include "src/runtime/ExecBackend.h"

#include "src/jit/JitCache.h"
#include "src/jit/JitTrace.h"
#include "src/telemetry/Metrics.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace facile;
using namespace facile::rt;

// The chain stub refreshes an entered entry's recency in place and stores
// its key (JitAbi.h, jit::emitChainStub).
static_assert(offsetof(CacheEntry, Head) == 0 &&
                  offsetof(CacheEntry, LastUse) == 8 &&
                  sizeof(CacheEntry) == 16,
              "the chain stub indexes entries by 16 bytes");
static_assert(sizeof(KeyId) == 4, "the chain stub stores 32-bit keys");

//===----------------------------------------------------------------------===//
// BackendKind names
//===----------------------------------------------------------------------===//

const char *facile::rt::backendKindName(BackendKind K) {
  switch (K) {
  case BackendKind::Auto:
    return "auto";
  case BackendKind::Interpret:
    return "interpret";
  case BackendKind::Jit:
    return "jit";
  }
  return "unknown";
}

bool facile::rt::parseBackendKind(const std::string &Name, BackendKind &Out) {
  if (Name == "auto") {
    Out = BackendKind::Auto;
    return true;
  }
  if (Name == "interpret" || Name == "off") {
    Out = BackendKind::Interpret;
    return true;
  }
  if (Name == "jit" || Name == "on") {
    Out = BackendKind::Jit;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// ExecBackend base
//===----------------------------------------------------------------------===//

ExecBackend::~ExecBackend() = default;

Simulation::ReplayResult ExecBackend::replay(EntryId Entry, KeyId Key,
                                             uint32_t) {
  return Sim.runFast(Entry, Key);
}

void ExecBackend::record(EntryId Rec) { Sim.runSlow(Rec, nullptr); }

void ExecBackend::exportMetrics(telemetry::MetricSink &Sink) const {
  Sink.text("backend", name());
  Sink.flag("available", jit::available());
  Sink.counter("compiled_actions", 0);
  Sink.counter("compiled_blocks", 0);
  Sink.counter("compiled_traces", 0);
  Sink.counter("trace_bindings", 0);
  Sink.counter("jit_exec_steps", 0);
  Sink.counter("trace_steps", 0);
  Sink.counter("trace_side_exits", 0);
  Sink.counter("slow_block_execs", 0);
  Sink.counter("bailouts", 0);
  Sink.counter("code_bytes", 0);
  Sink.counter("trace_code_bytes", 0);
  Sink.counter("slow_compile_us", 0);
  Sink.counter("trace_compile_us", 0);
  Sink.counter("chained_steps", 0);
  Sink.counter("trace_bind_us", 0);
}

//===----------------------------------------------------------------------===//
// InterpretBackend
//===----------------------------------------------------------------------===//

namespace facile {
namespace rt {

class InterpretBackend : public ExecBackend {
public:
  explicit InterpretBackend(Simulation &Sim) : ExecBackend(Sim) {}
  const char *name() const override { return "interpret"; }
  BackendKind kind() const override { return BackendKind::Interpret; }
};

//===----------------------------------------------------------------------===//
// JitBackend
//===----------------------------------------------------------------------===//

class JitBackend : public ExecBackend {
public:
  JitBackend(Simulation &Sim, jit::JitCache &Cache);
  ~JitBackend() override;

  const char *name() const override { return "jit"; }
  BackendKind kind() const override { return BackendKind::Jit; }

  Simulation::ReplayResult replay(EntryId Entry, KeyId Key,
                                  uint32_t ChainFrom) override {
    // Trace maintenance runs outside the engine: count the replay, and
    // bind the entry's whole node tree to a compiled shape once it proves
    // hot. The engine then dispatches the binding (FastEngine.cpp). When
    // this step chained from the End exit the previous trace left by,
    // fill that exit's link so the chain stub can follow it natively
    // (chainMatches already checked keyUsable(Key)).
    if (!Disabled) {
      maybeBindTrace(Entry);
      if (ChainFrom != ActionNode::NoNode &&
          Session.LinkFrom != jit::JitSession::NoLink)
        Traces.link(Session.LinkFrom, Session.LinkExit, ChainFrom, Entry, Key,
                    Sim.Cache.keyData(Key), Sim.Cache.mutationEpoch());
    }
    Session.LinkFrom = jit::JitSession::NoLink;
    return Sim.runFast(Entry, Key);
  }

  void onStateReplaced() override { refreshFrame(); }
  void onCacheRebuilt() override {
    // Trace shape code references no cache arena (spans are read from a
    // binding) and survives;
    // bindings name node ids and span offsets of the rebuilt arenas and
    // are dropped wholesale.
    Traces.dropBindings();
    ++CacheRebuilds;
  }
  void onPlanPrivatized() override {
    // Compiled code bakes plan constants as immediates. The caller got a
    // mutable plan reference, so all of it is suspect from here on:
    // disarm the session permanently — replay never consults the JIT
    // again — while published code stays mapped (another thread may be
    // mid-flight in it; the arena frees only at cache destruction).
    Sim.JitCtx = nullptr;
    Disabled = true;
  }

  void exportMetrics(telemetry::MetricSink &Sink) const override {
    Sink.text("backend", name());
    Sink.flag("available", true);
    // compiled_actions and bailouts read 0 (no code runs per action and
    // nothing falls back per node); the keys stay for schema readers.
    Sink.counter("compiled_actions", 0);
    Sink.counter("compiled_blocks", Session.Cache->compiledBlocks());
    // compiled_traces: trace shapes compiled; trace_bindings: entries
    // bound to one (re-bindings included).
    Sink.counter("compiled_traces", Traces.compiledTraces());
    Sink.counter("trace_bindings", Traces.bindings());
    Sink.counter("jit_exec_steps", Session.JitSteps);
    Sink.counter("trace_steps", Session.TraceSteps);
    Sink.counter("trace_side_exits", Session.TraceSideExits);
    // compiled_blocks: blocks the slow-step function covers;
    // slow_block_execs: native slow-step function calls.
    Sink.counter("slow_block_execs", Session.SlowCalls);
    Sink.counter("bailouts", 0);
    Sink.counter("code_bytes", Session.Cache->codeBytes());
    Sink.counter("trace_code_bytes", Traces.codeBytes());
    Sink.counter("slow_compile_us", Session.Cache->slowCompileMicros());
    Sink.counter("trace_compile_us", TraceCompileNs / 1000);
    // chained_steps: the subset of trace_steps entered by a native chain
    // jump; trace_bind_us: the part of trace_compile_us spent on entries
    // whose shape was already compiled (walk, shape lookup, bind).
    Sink.counter("chained_steps", Session.ChainedSteps);
    Sink.counter("trace_bind_us", TraceBindNs / 1000);
  }

  uint64_t compiledActions() const override {
    // Both tiers: the slow-step function's blocks and trace shapes.
    return Session.Cache->compiledBlocks() + Traces.compiledTraces();
  }

  uint64_t chainedSteps() const override { return Session.ChainedSteps; }

  // Runtime-service thunks whose addresses the emitter bakes into code
  // (signatures in JitAbi.h).
  static uint64_t memRead32(void *Mem, uint32_t Addr) {
    return static_cast<TargetMemory *>(Mem)->read32(Addr);
  }
  static uint64_t memRead8(void *Mem, uint32_t Addr) {
    return static_cast<TargetMemory *>(Mem)->read8(Addr);
  }
  static void memWrite32(void *Mem, uint32_t Addr, uint32_t Value) {
    static_cast<TargetMemory *>(Mem)->write32(Addr, Value);
  }
  static void memWrite8(void *Mem, uint32_t Addr, uint8_t Value) {
    static_cast<TargetMemory *>(Mem)->write8(Addr, Value);
  }
  static bool externThunk(void *SimP, uint32_t FastIdx, const int64_t *Args,
                          int64_t *Ret) {
    Simulation &S = *static_cast<Simulation *>(SimP);
    // The emitter only compiles in-range CallExterns, and the plan cannot
    // have changed since (privatization disarms the JIT first).
    const XInst &I = S.Plan->Fast[FastIdx];
    int64_t Out = 0;
    if (!S.externCall(I, Args, Out))
      return false; // fault already raised; native code bails
    *Ret = Out;
    return true;
  }
  static bool externSlowThunk(void *SimP, uint32_t CodeIdx,
                              const int64_t *Args, int64_t *Ret) {
    Simulation &S = *static_cast<Simulation *>(SimP);
    const XInst &I = S.Plan->Code[CodeIdx];
    int64_t Out = 0;
    if (!S.externCall(I, Args, Out))
      return false; // fault already raised; native code bails
    *Ret = Out;
    return true;
  }
  static void printThunk(int64_t Value) {
    std::printf("%lld\n", static_cast<long long>(Value));
  }

private:
  void refreshFrame();
  void maybeBindTrace(EntryId Entry);
  void bindTrace(EntryId Entry, uint64_t Epoch);
  bool walkTrace(EntryId Entry);

  jit::JitSession Session;
  jit::JitTraceCache Traces; ///< per-session: bindings name this cache's ids
  /// Buffers of the entry walk, reused across walks.
  struct Work {
    uint32_t Node;
    uint64_t Tag; ///< incoming link tag (seal verification)
    uint32_t ParentDesc;
    uint8_t Slot; ///< which Succ[] of the parent this node fills
  };
  std::vector<Work> WalkStack;
  std::vector<jit::TraceNodeDesc> WalkDescs;
  std::vector<jit::TraceBind> WalkBinds;
  std::vector<jit::TraceExitDesc> WalkExits;
  std::vector<uint8_t> WalkCode;
  uint64_t TraceCompileNs = 0; ///< walking, emitting and publishing
  uint64_t TraceBindNs = 0;    ///< of that, binds to compiled shapes
  /// The compared key words, for the chain stub (emitted with the first
  /// shape, so a session that never traces maps no code for it).
  std::vector<jit::ChainWord> ChainWords;
  bool ChainTried = false;
  /// Backing stores for the frame's array-of-pointers indirections.
  std::vector<int64_t *> ArrayPtrs;
  std::vector<int64_t *> LocPtrs;
  std::vector<int64_t *> StatArrayPtrs;
  std::vector<int64_t *> StatLocPtrs;
  bool Disabled = false;
  uint64_t CacheRebuilds = 0;
};

} // namespace rt
} // namespace facile

JitBackend::JitBackend(Simulation &Sim, jit::JitCache &Cache)
    : ExecBackend(Sim) {
  Session.Cache = &Cache;
  uint32_t T = Sim.Opts.JitThreshold;
  if (T == Simulation::Options::DefaultJitThreshold)
    if (const char *Env = std::getenv("FACILE_JIT_THRESHOLD"))
      T = static_cast<uint32_t>(std::strtoul(Env, nullptr, 10));
  Session.Threshold = T == 0 ? 1 : T;
  Session.Traces = &Traces;
  for (const Simulation::KeyField &F : Sim.ChainFields)
    for (uint32_t W = 0; W != F.Words; ++W)
      ChainWords.push_back({F.Global, W, Sim.Prog.Globals[F.Global].IsArray});
  refreshFrame();
  Sim.JitCtx = &Session;
}

JitBackend::~JitBackend() {
  if (Sim.JitCtx == &Session)
    Sim.JitCtx = nullptr;
}

void JitBackend::refreshFrame() {
  jit::JitFrame &F = Session.Frame;
  F.Slots = Sim.DynSlots.data();
  F.Globals = Sim.DynGlobals.data();
  // Element vectors never resize during execution (SyncArray memcpys in
  // place; InitLocArray assigns at fixed capacity), so inner data
  // pointers only move when whole vectors are replaced — exactly the
  // onStateReplaced() events that re-run this.
  ArrayPtrs.resize(Sim.DynArrays.size());
  for (size_t I = 0; I != Sim.DynArrays.size(); ++I)
    ArrayPtrs[I] = Sim.DynArrays[I].data();
  LocPtrs.resize(Sim.DynLocalArrays.size());
  for (size_t I = 0; I != Sim.DynLocalArrays.size(); ++I)
    LocPtrs[I] = Sim.DynLocalArrays[I].data();
  F.Arrays = ArrayPtrs.data();
  F.LocArrays = LocPtrs.data();
  F.Mem = &Sim.Mem;
  F.Sim = &Sim;
  F.RetiredTotal = &Sim.S.RetiredTotal;
  F.RetiredFast = &Sim.S.RetiredFast;
  F.Cycles = &Sim.S.Cycles;
  F.Halt = &Sim.HaltFlag;
  F.ChainEpoch = Sim.Cache.epochCounter();
  F.ChainTick = Sim.Cache.recencyTick();
  F.Steps = &Sim.S.Steps;
  F.StateKey = &Sim.StateKey;
  F.MemLatch = Sim.Mem.budgetLatch();
  // Slow-path state for the compiled slow-step function.
  F.StatSlots = Sim.StatSlots.data();
  F.StatGlobals = Sim.StatGlobals.data();
  StatArrayPtrs.resize(Sim.StatArrays.size());
  for (size_t I = 0; I != Sim.StatArrays.size(); ++I)
    StatArrayPtrs[I] = Sim.StatArrays[I].data();
  StatLocPtrs.resize(Sim.StatLocalArrays.size());
  for (size_t I = 0; I != Sim.StatLocalArrays.size(); ++I)
    StatLocPtrs[I] = Sim.StatLocalArrays[I].data();
  F.StatArrays = StatArrayPtrs.data();
  F.StatLocArrays = StatLocPtrs.data();
}

void JitBackend::maybeBindTrace(EntryId Entry) {
  const uint64_t Epoch = Sim.Cache.mutationEpoch();
  if (Traces.shouldCompile(Entry, Session.Threshold, Epoch))
    bindTrace(Entry, Epoch);
}

/// Walks \p Entry and binds it to its shape, compiling the shape first if
/// no entry had it yet. Any refusal pins the entry to the interpreter;
/// nothing here can fault.
void JitBackend::bindTrace(EntryId Entry, uint64_t Epoch) {
  const auto T0 = std::chrono::steady_clock::now();
  const jit::JitTraceCache::Shape *Shape = nullptr;
  bool Emitted = false;
  if (walkTrace(Entry)) {
    Shape = Traces.findShape(WalkDescs);
    if (!Shape && !Traces.budgetSpent()) {
      if (!ChainTried) {
        ChainTried = true;
        Session.Frame.ChainStub = Traces.enableChaining(ChainWords);
      }
      uint32_t BodyOfs = 0;
      Emitted = true;
      if (jit::emitTrace(Session.Cache->ctx(), WalkDescs, Traces.linkBytes(),
                         WalkCode, WalkExits, BodyOfs))
        Shape = Traces.addShape(WalkDescs, WalkExits, WalkCode, BodyOfs);
    }
  }
  if (Shape)
    Traces.bind(Entry, *Shape, WalkBinds.data(), Epoch);
  else
    Traces.noCompile(Entry);
  const uint64_t Ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
  TraceCompileNs += Ns;
  if (Shape && !Emitted)
    TraceBindNs += Ns;
}

/// Walks \p Entry's recorded node tree into WalkDescs (the shape key) and
/// WalkBinds (the binding), running the interpreter's full verification
/// over every node it is about to bind: structural bounds and the seal
/// sweep. Shape code skips per-node checks, so nothing unverified may be
/// bound. False refuses the entry.
bool JitBackend::walkTrace(EntryId Entry) {
  // Const reference on purpose: ActionCache::node() has a mutable
  // overlay-only overload; the walk must resolve global ids through the
  // base-aware const accessors.
  const ActionCache &C = Sim.Cache;
  const ExecPlan &P = *Sim.Plan;
  const uint32_t NumActions = static_cast<uint32_t>(P.ActionOfs.size() - 1);
  const uint32_t NumNodes = static_cast<uint32_t>(C.nodeCount());
  const uint64_t BaseD = C.baseDataWords();
  const uint64_t PoolSize = C.dataSize();
  const CacheEntry &E = C.entry(Entry);
  WalkStack.clear();
  WalkDescs.clear();
  WalkBinds.clear();
  if (E.Head == ActionNode::NoNode || E.Key == NoId)
    return false;

  // DFS pre-order over the entry's tree. Children of a Test are pushed
  // 1-edge first so the 0-edge becomes the emitted fallthrough. The walk
  // refuses non-trees (a revisited node means a corrupt or exotic graph
  // the per-exit prefixes cannot represent) and caps the node count.
  WalkStack.push_back(
      {E.Head, ActionCache::headTag(E.Key), jit::TraceNoSucc, 0});
  while (!WalkStack.empty()) {
    const Work W = WalkStack.back();
    WalkStack.pop_back();
    if (WalkDescs.size() >= jit::JitTraceCache::MaxNodes ||
        W.Node >= NumNodes ||
        std::any_of(WalkBinds.begin(), WalkBinds.end(),
                    [&](const jit::TraceBind &B) { return B.Node == W.Node; }))
      return false;
    const ActionNode &N = C.node(W.Node);
    if (static_cast<uint32_t>(N.ActionId) >= NumActions ||
        static_cast<uint8_t>(N.K) > static_cast<uint8_t>(ActionNode::Kind::End))
      return false;
    const uint64_t Lo = N.DataOfs, Hi = Lo + N.DataLen;
    if (Hi > PoolSize || (Lo < BaseD && Hi > BaseD))
      return false;
    // The interpreter's seal check, unconditionally (marks are an
    // optimization for the per-step loop; binding is rare). A mismatch is
    // left for the interpreter to detect or absorb.
    const int64_t *Span = C.spanData(N.DataOfs);
    uint64_t Xor = 0;
    for (uint32_t Wd = 0; Wd != N.DataLen; ++Wd)
      Xor ^= static_cast<uint64_t>(Span[Wd]);
    if ((Xor ^ ActionCache::identityMix(N) ^ W.Tag) != C.nodeSeal(W.Node))
      return false;
    Sim.Cache.markVerified(W.Node, W.Tag);
    const uint32_t Di = static_cast<uint32_t>(WalkDescs.size());
    if (W.ParentDesc != jit::TraceNoSucc)
      WalkDescs[W.ParentDesc].Succ[W.Slot] = Di;
    jit::TraceNodeDesc D;
    D.ActionId = N.ActionId;
    D.DataLen = N.DataLen;
    D.BaseSide = Lo < BaseD;
    switch (N.K) {
    case ActionNode::Kind::Plain:
      D.Kind = 0;
      if (N.Next == ActionNode::NoNode)
        return false; // complete entries link Plain nodes
      WalkStack.push_back({N.Next, ActionCache::edgeTag(W.Node, -1), Di, 0});
      break;
    case ActionNode::Kind::Test:
      D.Kind = 1;
      for (int V = 1; V >= 0; --V) {
        uint32_t Succ = C.testSuccessor(W.Node, V);
        if (Succ != ActionNode::NoNode)
          WalkStack.push_back({Succ, ActionCache::edgeTag(W.Node, V), Di,
                               static_cast<uint8_t>(V)});
      }
      break;
    case ActionNode::Kind::End:
      D.Kind = 2;
      break;
    }
    WalkDescs.push_back(D);
    WalkBinds.push_back(
        {W.Node, static_cast<uint32_t>(D.BaseSide ? Lo : Lo - BaseD)});
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Hooks table and backend factory
//===----------------------------------------------------------------------===//

const jit::JitRuntimeHooks &facile::rt::jitRuntimeHooks() {
  static const jit::JitRuntimeHooks Hooks = [] {
    jit::JitRuntimeHooks H;
    H.MemRead32 = &JitBackend::memRead32;
    H.MemRead8 = &JitBackend::memRead8;
    H.MemWrite32 = &JitBackend::memWrite32;
    H.MemWrite8 = &JitBackend::memWrite8;
    H.Extern = &JitBackend::externThunk;
    H.ExternSlow = &JitBackend::externSlowThunk;
    H.Print = &JitBackend::printThunk;
    return H;
  }();
  return Hooks;
}

namespace {

BackendKind resolveBackend(BackendKind Requested) {
  if (Requested == BackendKind::Auto) {
    if (const char *Env = std::getenv("FACILE_JIT")) {
      BackendKind FromEnv;
      if (parseBackendKind(Env, FromEnv) && FromEnv != BackendKind::Auto)
        Requested = FromEnv;
    }
  }
  if (Requested == BackendKind::Auto)
    Requested =
        jit::available() ? BackendKind::Jit : BackendKind::Interpret;
  // Degrade, never error: an explicit Jit request on a host without the
  // template JIT runs interpreted (the metrics' "available" flag records
  // the downgrade).
  if (Requested == BackendKind::Jit && !jit::available())
    Requested = BackendKind::Interpret;
  return Requested;
}

} // namespace

std::unique_ptr<ExecBackend> facile::rt::makeExecBackend(Simulation &Sim,
                                                         BackendKind Kind) {
  Kind = resolveBackend(Kind);
  if (Kind != BackendKind::Jit)
    return std::make_unique<InterpretBackend>(Sim);
  jit::JitCache *Cache = nullptr;
  if (Sim.SharedProg) {
    // Shared plan: all sessions compile into (and benefit from) the
    // SharedProgram's one code cache.
    Cache = &Sim.SharedProg->jitCache(jitRuntimeHooks());
  } else {
    Sim.OwnedJitCache = std::make_unique<jit::JitCache>(
        Sim.Prog, *Sim.Plan, Sim.Image, jitRuntimeHooks());
    Cache = Sim.OwnedJitCache.get();
  }
  return std::make_unique<JitBackend>(Sim, *Cache);
}
