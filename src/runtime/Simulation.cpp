//===- Simulation.cpp - Simulation lifecycle, host API and stepping --------===//
//
// The engines themselves live in SlowEngine.cpp (record + recovery) and
// FastEngine.cpp (replay); both execute the packed streams built here by
// buildExecPlan. This file owns construction, the host-facing API, key
// serialization and the per-step dispatch between the engines.
//
//===----------------------------------------------------------------------===//

#include "src/runtime/Simulation.h"

#include "src/isa/Isa.h"
#include "src/jit/JitCache.h"
#include "src/runtime/ExecBackend.h"
#include "src/snapshot/Serializer.h"
#include "src/telemetry/Profiler.h"
#include "src/telemetry/Trace.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

using namespace facile;
using namespace facile::rt;
using namespace facile::ir;

namespace {

[[noreturn]] void fatal(const char *Msg) {
  std::fprintf(stderr, "facile runtime: %s\n", Msg);
  std::abort();
}

} // namespace

//===----------------------------------------------------------------------===//
// Construction and host API
//===----------------------------------------------------------------------===//

Simulation::Simulation(const CompiledProgram &Prog,
                       const isa::TargetImage &Image, Options Opts)
    : Prog(Prog), Image(Image), Opts(Opts),
      OwnedPlan(std::make_unique<ExecPlan>(buildExecPlan(Prog))),
      Plan(OwnedPlan.get()), Cache(Opts.CacheBudgetBytes) {
  initState();
}

Simulation::Simulation(const SharedProgram &Shared, Options Opts)
    : Prog(Shared.program()), Image(Shared.image()), Opts(Opts),
      Plan(&Shared.plan()), Cache(Opts.CacheBudgetBytes) {
  SharedProg = &Shared; // before initState: the backend factory reads it
  initState();
}

Simulation::~Simulation() = default;

const char *Simulation::backendName() const { return Backend->name(); }

uint64_t Simulation::jitCompiledActions() const {
  return Backend->compiledActions();
}

uint64_t Simulation::chainedSteps() const { return Backend->chainedSteps(); }

ExecPlan &Simulation::mutablePlan() {
  if (!OwnedPlan) {
    // Copy-on-write privatization: the shared plan stays untouched for
    // sibling simulations; only this instance sees the mutation.
    OwnedPlan = std::make_unique<ExecPlan>(*Plan);
    Plan = OwnedPlan.get();
  }
  // Fires on the owned-plan path too: the caller may mutate the plan a
  // backend compiled code from, whichever constructor built it.
  if (Backend)
    Backend->onPlanPrivatized();
  return *OwnedPlan;
}

void Simulation::initState() {
  // The budget applies to the image load too: an image that cannot fit is
  // detected on the first step (the latched flag faults immediately).
  Mem.setPageBudget(Opts.MemPageBudget);
  Mem.loadImage(Image);
  // Fault diagnostics report the conventional program counter when the
  // program has one.
  for (const char *Name : {"PC", "pc"}) {
    auto It = Prog.GlobalIndex.find(Name);
    if (It != Prog.GlobalIndex.end() && !Prog.Globals[It->second].IsArray) {
      PcGlobal = It->second;
      break;
    }
  }
  DynSlots.assign(Prog.Step.NumSlots, 0);
  StatSlots.assign(Prog.Step.NumSlots, 0);
  DynGlobals.assign(Prog.Globals.size(), 0);
  StatGlobals.assign(Prog.Globals.size(), 0);
  DynArrays.resize(Prog.Globals.size());
  StatArrays.resize(Prog.Globals.size());
  for (size_t G = 0; G != Prog.Globals.size(); ++G) {
    const GlobalVar &V = Prog.Globals[G];
    if (V.IsArray) {
      DynArrays[G].assign(V.Size, V.InitValue);
      StatArrays[G].assign(V.Size, V.InitValue);
    } else {
      DynGlobals[G] = V.InitValue;
      StatGlobals[G] = V.InitValue;
    }
  }
  DynLocalArrays.resize(Prog.Step.LocalArrays.size());
  StatLocalArrays.resize(Prog.Step.LocalArrays.size());
  for (size_t L = 0; L != Prog.Step.LocalArrays.size(); ++L) {
    DynLocalArrays[L].assign(Prog.Step.LocalArrays[L].Size, 0);
    StatLocalArrays[L].assign(Prog.Step.LocalArrays[L].Size, 0);
  }
  Externs.resize(Prog.Externs.size());
  for (uint32_t G : Prog.InitGlobals) {
    uint32_t Words = Prog.Globals[G].IsArray ? Prog.Globals[G].Size : 1;
    if (Prog.KeyStatic[G]) {
      KeyStaticFields.push_back({G, Words, 0});
      KeyMinLen += 1 + Words;
      KeyMaxLen += 1 + 8 * Words;
    } else {
      ChainFields.push_back({G, Words, KeyHeadLen});
      KeyHeadLen += 8 * Words;
    }
  }
  KeyMinLen += KeyHeadLen;
  KeyMaxLen += KeyHeadLen;
  KeyBuf.resize(KeyMaxLen);
  // Last: the backend factory snapshots state pointers built above.
  Backend = makeExecBackend(*this, Opts.Backend);
}

bool Simulation::registerExtern(const std::string &Name,
                                ExternHandler Handler) {
  auto It = Prog.ExternIndex.find(Name);
  if (It == Prog.ExternIndex.end())
    return false;
  Externs[It->second] = std::move(Handler);
  return true;
}

bool Simulation::tryGetGlobal(const std::string &Name, int64_t &Out) const {
  auto It = Prog.GlobalIndex.find(Name);
  if (It == Prog.GlobalIndex.end() || Prog.Globals[It->second].IsArray)
    return false;
  materialize();
  Out = DynGlobals[It->second];
  return true;
}

bool Simulation::trySetGlobal(const std::string &Name, int64_t Value) {
  auto It = Prog.GlobalIndex.find(Name);
  if (It == Prog.GlobalIndex.end() || Prog.Globals[It->second].IsArray)
    return false;
  materialize();
  DynGlobals[It->second] = Value;
  StatGlobals[It->second] = Value;
  // The chain compares only dynamic key words; a host write may change a
  // key-static one.
  PendingEndNode = ActionNode::NoNode;
  return true;
}

int64_t Simulation::getGlobal(const std::string &Name) const {
  int64_t V = 0;
  if (!tryGetGlobal(Name, V))
    fatal("getGlobal: unknown scalar global");
  return V;
}

void Simulation::setGlobal(const std::string &Name, int64_t Value) {
  if (!trySetGlobal(Name, Value))
    fatal("setGlobal: unknown scalar global");
}

int64_t Simulation::getGlobalElem(const std::string &Name,
                                  uint32_t Index) const {
  auto It = Prog.GlobalIndex.find(Name);
  if (It == Prog.GlobalIndex.end() || !Prog.Globals[It->second].IsArray)
    fatal("getGlobalElem: unknown array global");
  materialize();
  return DynArrays[It->second][Index % Prog.Globals[It->second].Size];
}

void Simulation::setGlobalElem(const std::string &Name, uint32_t Index,
                               int64_t Value) {
  auto It = Prog.GlobalIndex.find(Name);
  if (It == Prog.GlobalIndex.end() || !Prog.Globals[It->second].IsArray)
    fatal("setGlobalElem: unknown array global");
  uint32_t I = Index % Prog.Globals[It->second].Size;
  materialize();
  DynArrays[It->second][I] = Value;
  StatArrays[It->second][I] = Value;
  PendingEndNode = ActionNode::NoNode;
}

//===----------------------------------------------------------------------===//
// Keys
//===----------------------------------------------------------------------===//

namespace {

static_assert(std::endian::native == std::endian::little,
              "key fields are stored as little-endian host words");

template <typename T> char *putWords(char *P, const int64_t *W, uint32_t N) {
  for (uint32_t I = 0; I != N; ++I, P += sizeof(T)) {
    const T V = static_cast<T>(W[I]);
    std::memcpy(P, &V, sizeof(T)); // key pool bytes carry no alignment
  }
  return P;
}

/// Writes the \p N words at \p W to \p P as a width-tagged key field:
/// the narrowest signed width in bytes (1, 2, 4 or 8) that holds each of
/// them, then the words at that width. V ^ (V >> 63) is V for V >= 0 and
/// -V - 1 otherwise, and V fits b signed bits iff that is below 2^(b-1);
/// the OR over the field bounds the largest of them. Most fields fit a
/// byte, so the bytes are written in the same pass that finds the width,
/// and rewritten wider only when they do not fit (the key buffer has
/// room for every field at 8 bytes a word). Returns the end of the field.
char *putField(char *P, const int64_t *W, uint32_t N) {
  char *const Tag = P++;
  uint64_t M = 0;
  for (uint32_t I = 0; I != N; ++I) {
    M |= static_cast<uint64_t>(W[I] ^ (W[I] >> 63));
    P[I] = static_cast<char>(W[I]);
  }
  const unsigned Width =
      1 + (M > 0x7f) + 2 * (M > 0x7fff) + 4 * (M > 0x7fffffff);
  *Tag = static_cast<char>(Width);
  switch (Width) {
  case 1:
    return P + N;
  case 2:
    return putWords<int16_t>(P, W, N);
  case 4:
    return putWords<int32_t>(P, W, N);
  default:
    return putWords<int64_t>(P, W, N);
  }
}

template <typename T>
void getWords(const char *P, int64_t *W, uint32_t N) {
  for (uint32_t I = 0; I != N; ++I, P += sizeof(T)) {
    T V;
    std::memcpy(&V, P, sizeof(T));
    W[I] = V;
  }
}

} // namespace

int64_t *Simulation::storeWords(uint32_t G, bool Static) {
  if (Prog.Globals[G].IsArray)
    return (Static ? StatArrays : DynArrays)[G].data();
  return &(Static ? StatGlobals : DynGlobals)[G];
}

Simulation::SerializedKey Simulation::serializeKey() {
  // Runs at the end of recorded steps and on INDEX-chain misses. The
  // stripes of the hash run while their bytes are still in registers and
  // L1, instead of in a second pass over the finished key.
  char *const Begin = KeyBuf.data();
  char *P = Begin;
  KeyHasher H(Begin);
  for (const KeyField &F : ChainFields) {
    std::memcpy(P, storeWords(F.Global, false), F.Words * 8);
    P += F.Words * 8;
    H.feed(P);
  }
  for (const KeyField &F : KeyStaticFields) {
    P = putField(P, storeWords(F.Global, false), F.Words);
    H.feed(P);
  }
  return {static_cast<size_t>(P - Begin), H.finish(P)};
}

bool Simulation::decodeKeyFields(KeyId K, bool Static) {
  const char *const Data = Cache.keyData(K);
  const size_t Len = Cache.keyLen(K);
  size_t Pos = KeyHeadLen;
  for (const KeyField &F : KeyStaticFields) {
    if (Pos >= Len)
      return false;
    const unsigned Width = static_cast<uint8_t>(Data[Pos++]);
    const size_t Bytes = static_cast<size_t>(F.Words) * Width;
    if (Len - Pos < Bytes)
      return false;
    int64_t *W = storeWords(F.Global, Static);
    switch (Width) {
    case 1:
      getWords<int8_t>(Data + Pos, W, F.Words);
      break;
    case 2:
      getWords<int16_t>(Data + Pos, W, F.Words);
      break;
    case 4:
      getWords<int32_t>(Data + Pos, W, F.Words);
      break;
    case 8:
      getWords<int64_t>(Data + Pos, W, F.Words);
      break;
    default:
      return false;
    }
    Pos += Bytes;
  }
  return Pos == Len;
}

bool Simulation::seedStaticFromKey(KeyId Key) {
  // The field walk checks the whole length, so the head is in bounds
  // once it succeeds.
  if (!decodeKeyFields(Key, /*Static=*/true))
    return false;
  const char *Data = Cache.keyData(Key);
  for (const KeyField &F : ChainFields)
    std::memcpy(storeWords(F.Global, true), Data + F.Ofs, F.Words * 8);
  return true;
}

void Simulation::copyInitDynToStatic() {
  for (uint32_t G : Prog.InitGlobals) {
    if (Prog.Globals[G].IsArray)
      StatArrays[G] = DynArrays[G];
    else
      StatGlobals[G] = DynGlobals[G];
  }
}

void Simulation::materialize() const {
  if (StateKey == NoId)
    return;
  Simulation &Self = const_cast<Simulation &>(*this);
  const KeyId K = StateKey;
  Self.StateKey = NoId; // first: raiseFault materializes too
  if (!Self.decodeKeyFields(K, /*Static=*/false))
    Self.raiseFault(FaultKind::CacheCorrupt, "step key is malformed");
}

void Simulation::writeBackKeyStatic() {
  for (const KeyField &F : KeyStaticFields)
    std::memcpy(storeWords(F.Global, false), storeWords(F.Global, true),
                F.Words * 8);
  StateKey = NoId;
}

bool Simulation::chainMatches(KeyId Next) const {
  if (!keyUsable(Next))
    return false;
  const char *Data = Cache.keyData(Next);
  // A word loop rather than memcmp: the compared fields are a word or two
  // (typically just PC), far below what a libc call per step pays off for.
  for (const KeyField &F : ChainFields) {
    const int64_t *Src = Prog.Globals[F.Global].IsArray
                             ? DynArrays[F.Global].data()
                             : &DynGlobals[F.Global];
    const char *Word = Data + F.Ofs;
    for (uint32_t W = 0; W != F.Words; ++W, Word += 8) {
      int64_t V;
      std::memcpy(&V, Word, 8); // key pool bytes carry no word alignment
      if (V != Src[W])
        return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Faults
//===----------------------------------------------------------------------===//

const char *facile::rt::faultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::None:
    return "none";
  case FaultKind::DecodeError:
    return "decode-error";
  case FaultKind::MemoryBudgetExceeded:
    return "memory-budget-exceeded";
  case FaultKind::StepLimit:
    return "step-limit";
  case FaultKind::ExternFailure:
    return "extern-failure";
  case FaultKind::CacheCorrupt:
    return "cache-corrupt";
  case FaultKind::DeadlineExceeded:
    return "deadline-exceeded";
  case FaultKind::PlanCorrupt:
    return "plan-corrupt";
  }
  return "unknown";
}

void Simulation::raiseFault(FaultKind Kind, const char *Detail) {
  if (Fault) // the first fault of a step wins; later ones are cascade
    return;
  materialize(); // the host reads a current store after any fault
  if (Fault) // the state key was malformed: that fault stands
    return;
  Fault.Kind = Kind;
  Fault.Step = S.Steps;
  Fault.Pc = PcGlobal == NoId ? 0 : static_cast<uint64_t>(DynGlobals[PcGlobal]);
  Fault.Detail = Detail;
  ++S.Faults;
  // The INDEX chain may point at a node recorded by the aborted step.
  PendingEndNode = ActionNode::NoNode;
  if (Tracer) {
    flushTraceSpan();
    Tracer->instant("fault", faultKindName(Kind), "step", S.Steps);
  }
}

void Simulation::clearFault() {
  Fault = SimFault();
  Mem.clearBudgetExceeded();
}

//===----------------------------------------------------------------------===//
// Externs
//===----------------------------------------------------------------------===//

bool Simulation::externCall(const XInst &I, const int64_t *Args,
                            int64_t &Out) {
  const ExternHandler &H = Externs[I.Id];
  if (!H) {
    raiseFault(FaultKind::ExternFailure,
               "call to unregistered extern function");
    return false;
  }
  if (ExternFaultHook && ExternFaultHook(I.Id)) {
    raiseFault(FaultKind::ExternFailure, "extern failure injected");
    return false;
  }
  std::optional<int64_t> R = H(Args, I.ArgCount);
  if (!R) {
    raiseFault(FaultKind::ExternFailure, "extern handler reported failure");
    return false;
  }
  Out = *R;
  return true;
}

//===----------------------------------------------------------------------===//
// Snapshot hooks
//===----------------------------------------------------------------------===//

namespace {

/// Field-wise XInst hashing (never the raw struct: padding bytes are
/// unspecified and must not leak into compatibility keys).
uint64_t hashXInst(uint64_t H, const XInst &I) {
  H = hashCombine(H, static_cast<uint64_t>(I.Opcode) |
                         (static_cast<uint64_t>(I.Kind) << 8) |
                         (static_cast<uint64_t>(I.ArgCount) << 16) |
                         (static_cast<uint64_t>(I.Dynamic) << 24) |
                         (static_cast<uint64_t>(I.StaticOperands) << 32));
  H = hashCombine(H, static_cast<uint64_t>(I.Dst) |
                         (static_cast<uint64_t>(I.A) << 32));
  H = hashCombine(H, static_cast<uint64_t>(I.B) |
                         (static_cast<uint64_t>(I.Id) << 32));
  H = hashCombine(H, static_cast<uint64_t>(I.ArgOfs) |
                         (static_cast<uint64_t>(I.Target) << 32));
  H = hashCombine(H, I.Target2);
  H = hashCombine(H, static_cast<uint64_t>(I.Imm));
  return H;
}

uint64_t hashU32Vec(uint64_t H, const std::vector<uint32_t> &V) {
  H = hashCombine(H, V.size());
  return V.empty() ? H : hashBytes(V.data(), V.size() * 4, H);
}

} // namespace

uint64_t Simulation::compatKey() const {
  uint64_t H = FNVOffset;
  H = hashCombine(H, isa::IsaRevision);

  // Options: a cache persisted under one budget is not replayable
  // bookkeeping-identically under another. The trailing 0 is the
  // clear-on-full policy's term, kept so existing store files and cache
  // snapshots still match.
  H = hashCombine(H, Opts.Memoize ? 1 : 0);
  H = hashCombine(H, Opts.CacheBudgetBytes);
  H = hashCombine(H, 0);

  // The compiled program, via its packed execution form: action ids,
  // placeholder layout and key layout are all derived from it.
  for (const XInst &I : Plan->Code)
    H = hashXInst(H, I);
  for (const XInst &I : Plan->Fast)
    H = hashXInst(H, I);
  H = hashU32Vec(H, Plan->BlockOfs);
  H = hashU32Vec(H, Plan->ActionOfs);
  H = hashU32Vec(H, Plan->ArgPool);

  // Storage layout: slots, globals (names and shapes), local arrays, the
  // init-global key order and the extern table.
  H = hashCombine(H, Prog.Step.NumSlots);
  H = hashCombine(H, Prog.Globals.size());
  for (const GlobalVar &G : Prog.Globals) {
    H = hashBytes(G.Name.data(), G.Name.size(), H);
    H = hashCombine(H, (G.IsArray ? 1u : 0u) | (G.IsInit ? 2u : 0u));
    H = hashCombine(H, G.Size);
    H = hashCombine(H, static_cast<uint64_t>(G.InitValue));
  }
  H = hashCombine(H, Prog.Step.LocalArrays.size());
  for (const auto &L : Prog.Step.LocalArrays)
    H = hashCombine(H, L.Size);
  H = hashU32Vec(H, Prog.InitGlobals);
  H = hashCombine(H, Prog.Externs.size());
  for (const ExternFn &E : Prog.Externs) {
    H = hashBytes(E.Name.data(), E.Name.size(), H);
    H = hashCombine(H, E.Arity | (E.HasResult ? 0x100u : 0u));
  }

  // The target image: same program over different images must never share
  // snapshots.
  H = hashCombine(H, Image.TextBase);
  H = hashCombine(H, Image.DataBase);
  H = hashCombine(H, Image.Entry);
  H = hashCombine(H, Image.Text.size());
  if (!Image.Text.empty())
    H = hashBytes(Image.Text.data(), Image.Text.size() * 4, H);
  H = hashCombine(H, Image.Data.size());
  if (!Image.Data.empty())
    H = hashBytes(Image.Data.data(), Image.Data.size(), H);
  return H;
}

namespace {

void writeArrays(snapshot::Writer &W,
                 const std::vector<std::vector<int64_t>> &Arrays) {
  W.u64(Arrays.size());
  for (const std::vector<int64_t> &A : Arrays)
    W.i64Vec(A);
}

/// Reads a vector-of-arrays whose shape must match \p Expect exactly (the
/// shape is fixed by the compiled program, so a mismatch is a stale or
/// corrupt payload, not a resize request).
bool readArrays(snapshot::Reader &R,
                const std::vector<std::vector<int64_t>> &Expect,
                std::vector<std::vector<int64_t>> &Out) {
  uint64_t N = R.u64();
  if (!R.ok() || N != Expect.size())
    return false;
  Out.resize(Expect.size());
  for (size_t I = 0; I != Out.size(); ++I)
    if (!R.i64Vec(Out[I]) || Out[I].size() != Expect[I].size())
      return false;
  return true;
}

} // namespace

void Simulation::serializeState(snapshot::Writer &W) const {
  materialize();
  W.u64(S.Steps);
  W.u64(S.FastSteps);
  W.u64(S.Misses);
  W.u64(S.RetiredTotal);
  W.u64(S.RetiredFast);
  W.u64(S.Cycles);
  W.u64(S.PlaceholderWords);
  W.u64(S.Faults);
  W.u64(S.CorruptDropped);
  W.u64(S.BypassActivations);
  W.u64(S.BypassedSteps);
  W.u8(HaltFlag ? 1 : 0);
  W.i64Vec(DynSlots);
  W.i64Vec(DynGlobals);
  writeArrays(W, DynArrays);
  writeArrays(W, DynLocalArrays);
  // The rt-static store persists across steps for non-init static globals,
  // so bit-identical resume must carry it too.
  W.i64Vec(StatSlots);
  W.i64Vec(StatGlobals);
  writeArrays(W, StatArrays);
  writeArrays(W, StatLocalArrays);
}

bool Simulation::deserializeState(snapshot::Reader &R) {
  Stats NewS;
  NewS.Steps = R.u64();
  NewS.FastSteps = R.u64();
  NewS.Misses = R.u64();
  NewS.RetiredTotal = R.u64();
  NewS.RetiredFast = R.u64();
  NewS.Cycles = R.u64();
  NewS.PlaceholderWords = R.u64();
  NewS.Faults = R.u64();
  NewS.CorruptDropped = R.u64();
  NewS.BypassActivations = R.u64();
  NewS.BypassedSteps = R.u64();
  uint8_t Halt = R.u8();
  if (!R.ok() || Halt > 1)
    return false;

  std::vector<int64_t> NewDynSlots, NewDynGlobals, NewStatSlots,
      NewStatGlobals;
  std::vector<std::vector<int64_t>> NewDynArrays, NewDynLocalArrays,
      NewStatArrays, NewStatLocalArrays;
  if (!R.i64Vec(NewDynSlots) || NewDynSlots.size() != DynSlots.size())
    return false;
  if (!R.i64Vec(NewDynGlobals) || NewDynGlobals.size() != DynGlobals.size())
    return false;
  if (!readArrays(R, DynArrays, NewDynArrays) ||
      !readArrays(R, DynLocalArrays, NewDynLocalArrays))
    return false;
  if (!R.i64Vec(NewStatSlots) || NewStatSlots.size() != StatSlots.size())
    return false;
  if (!R.i64Vec(NewStatGlobals) ||
      NewStatGlobals.size() != StatGlobals.size())
    return false;
  if (!readArrays(R, StatArrays, NewStatArrays) ||
      !readArrays(R, StatLocalArrays, NewStatLocalArrays))
    return false;
  if (!R.ok())
    return false;

  S = NewS;
  HaltFlag = Halt != 0;
  DynSlots = std::move(NewDynSlots);
  DynGlobals = std::move(NewDynGlobals);
  DynArrays = std::move(NewDynArrays);
  DynLocalArrays = std::move(NewDynLocalArrays);
  StatSlots = std::move(NewStatSlots);
  StatGlobals = std::move(NewStatGlobals);
  StatArrays = std::move(NewStatArrays);
  StatLocalArrays = std::move(NewStatLocalArrays);
  StateKey = NoId; // the loaded dynamic store is current
  // The INDEX chain points into the action cache of the *previous* run;
  // re-intern from scratch on the next step.
  PendingEndNode = ActionNode::NoNode;
  // Admission, like the first-touch filter, is not persisted: a resumed
  // session starts admitting on first touch with fresh windows.
  SecondTouch = false;
  AdmSettled = false;
  AdmEpoch = 0;
  // The move-assignments above relocated every dynamic-state vector; a
  // backend holding raw data pointers must re-snapshot them.
  Backend->onStateReplaced();
  return true;
}

void Simulation::adoptCacheImage(ActionCache::FlatImage Img) {
  materialize(); // before the key pool is replaced
  Cache.adoptImage(std::move(Img));
  CacheBaseKeepalive.reset();
  PendingEndNode = ActionNode::NoNode;
  Backend->onCacheRebuilt();
}

//===----------------------------------------------------------------------===//
// Shared cache store
//===----------------------------------------------------------------------===//

bool Simulation::attachCacheBase(const ActionCache::BaseArenas &B,
                                 std::shared_ptr<const void> Keepalive,
                                 std::string *Err) {
  if (!Opts.Memoize) {
    if (Err)
      *Err = "cannot attach a cache base with memoization disabled";
    return false;
  }
  materialize();
  if (!Cache.attachBase(B)) {
    if (Err)
      *Err = "cache is not empty; attach before the first step";
    return false;
  }
  CacheBaseKeepalive = std::move(Keepalive);
  PendingEndNode = ActionNode::NoNode;
  Backend->onCacheRebuilt();
  return true;
}

void Simulation::detachCacheBase() {
  if (!Cache.hasBase())
    return;
  materialize();
  Cache.detachBase();
  CacheBaseKeepalive.reset();
  PendingEndNode = ActionNode::NoNode;
  Backend->onCacheRebuilt();
}

void Simulation::evictCacheNow() {
  if (Cache.overlayBytes() == 0)
    return; // nothing recorded since the last reset: keep the warm base
  if (Tracer) {
    flushTraceSpan();
    Tracer->instant("cache", "evict", "bytes", Cache.bytes());
  }
  materialize();
  Cache.clear();
  PendingEndNode = ActionNode::NoNode;
  Backend->onCacheRebuilt();
}

//===----------------------------------------------------------------------===//
// Stepping
//===----------------------------------------------------------------------===//

StepEngine Simulation::step() {
  if (Fault)
    return StepEngine::Faulted; // frozen until clearFault()
  if (!Plan->shapeOk()) {
    raiseFault(FaultKind::PlanCorrupt,
               "execution plan streams are truncated or misframed");
    return StepEngine::Faulted;
  }
  if (Opts.StepLimit && S.Steps >= Opts.StepLimit) {
    raiseFault(FaultKind::StepLimit, "step watchdog limit reached");
    return StepEngine::Faulted;
  }
  // Cooperative deadline, sharing the step watchdog's check point: consult
  // the hook on installation and every DeadlineCheckPeriod steps so the
  // clock read stays off the per-step hot path. The fault fires before the
  // step executes — state is exactly what the previous step left.
  if (DeadlineHook &&
      (DeadlineArmCheck || S.Steps % DeadlineCheckPeriod == 0)) {
    DeadlineArmCheck = false;
    if (DeadlineHook()) {
      raiseFault(FaultKind::DeadlineExceeded, "cooperative deadline expired");
      return StepEngine::Faulted;
    }
  }
  ++S.Steps;
  if (!Opts.Memoize) {
    Backend->record(NoId);
    return finishStep(StepEngine::Slow);
  }

  ProfArmed = Profiler && Profiler->armStep();

  // INDEX chain (paper Figure 9, INDEX_ACTION): the previous step's End
  // node names this step's key. Only its non-key-static words are checked
  // against the dynamic store; on a match the key is neither serialized
  // nor interned. A miss serializes the materialized store and looks the
  // key up without interning it: a key that is not admitted (below) never
  // enters the key pool.
  KeyId Key = NoId;
  uint32_t ChainFrom = ActionNode::NoNode;
  if (PendingEndNode != ActionNode::NoNode) {
    // Const access: the chained End node may live in a read-only store base.
    KeyId Next = std::as_const(Cache).node(PendingEndNode).NextKey;
    const bool Hit = chainMatches(Next);
    Cache.noteIndexChain(Hit);
    if (Hit) {
      Key = Next;
      ChainFrom = PendingEndNode;
    }
    PendingEndNode = ActionNode::NoNode;
  }
  size_t KeyLen = 0;
  uint64_t KeyHash = 0;
  if (Key == NoId) {
    materialize();
    if (Fault)
      return StepEngine::Faulted;
    const SerializedKey Serialized = serializeKey();
    KeyLen = Serialized.Len;
    KeyHash = Serialized.Hash;
    Key = Cache.findKey(KeyBuf.data(), KeyLen, KeyHash);
  }
  EntryId Entry = NoId;
  if (Key != NoId)
    Entry = Cache.lookup(Key);
  else
    Cache.noteLookupMiss();

  StepEngine Engine = StepEngine::Faulted;
  if (Entry == NoId) {
    // An interned key's hash is stored with it: a chained key is never
    // serialized again.
    if (admitKey(Key == NoId ? KeyHash : Cache.keyHash(Key))) {
      if (Key == NoId)
        Key = Cache.internAbsent(KeyBuf.data(), KeyLen, KeyHash);
      Entry = Cache.create(Key);
      noteEntryCreated();
    }
    Backend->record(Entry); // NoId: a first touch runs unrecorded
    Engine = StepEngine::Slow;
  } else {
    switch (Backend->replay(Entry, Key, ChainFrom)) {
    case ReplayResult::Replayed: {
      ++S.FastSteps;
      Engine = StepEngine::Fast;
      // Replay never flushes key-static globals: their values are the End
      // node's next key (its seal covers NextKey).
      KeyId Next = std::as_const(Cache).node(PendingEndNode).NextKey;
      if (keyUsable(Next))
        StateKey = Next;
      else
        raiseFault(FaultKind::CacheCorrupt, "end node names no valid key");
      break;
    }
    case ReplayResult::Recovered:
      Engine = StepEngine::FastThenSlow;
      break;
    case ReplayResult::CorruptCold:
      // Corruption detected before the replay touched dynamic state:
      // absorb it. Detach the poisoned entry and record this step cold,
      // exactly like a first-touch miss of the key.
      ++S.CorruptDropped;
      Cache.detachEntry(Entry);
      Entry = Cache.create(Key);
      noteEntryCreated();
      Backend->record(Entry);
      Engine = StepEngine::Slow;
      break;
    case ReplayResult::Faulted:
      Engine = StepEngine::Faulted;
      break;
    }
  }
  if (Fault)
    return StepEngine::Faulted;
  if (Cache.overBudget())
    evictCacheNow();
  return finishStep(Engine);
}

/// Post-step guard common to every engine path: the memory budget latch
/// becomes a fault at step granularity (the offending store was dropped,
/// so target memory is still consistent).
StepEngine Simulation::finishStep(StepEngine Engine) {
  if (!Fault && Mem.budgetExceeded())
    raiseFault(FaultKind::MemoryBudgetExceeded,
               "target memory resident-page budget exceeded");
  Engine = Fault ? StepEngine::Faulted : Engine;
  if (Tracer)
    noteStepForTrace(Engine);
  return Engine;
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

namespace {

const char *engineSpanName(StepEngine E) {
  switch (E) {
  case StepEngine::Slow:
    return "slow-record";
  case StepEngine::Fast:
    return "fast-replay";
  case StepEngine::FastThenSlow:
    return "miss-recover";
  case StepEngine::Faulted:
    return "faulted";
  }
  return "step";
}

} // namespace

void Simulation::setTracer(telemetry::EventTracer *T) {
  if (Tracer && !T)
    flushTraceSpan();
  Tracer = T;
  OpenKind = NoOpenSpan;
  OpenSteps = 0;
}

void Simulation::noteStepForTrace(StepEngine Engine) {
  uint8_t K = static_cast<uint8_t>(Engine);
  if (K == OpenKind) { // steady state: no clock read, no event
    ++OpenSteps;
    return;
  }
  uint64_t Now = Tracer->nowUs();
  if (OpenKind != NoOpenSpan)
    Tracer->span("engine", engineSpanName(static_cast<StepEngine>(OpenKind)),
                 OpenStartUs, Now, OpenSteps);
  OpenKind = K;
  OpenStartUs = Now;
  OpenSteps = 1;
}

void Simulation::flushTraceSpan() {
  if (!Tracer || OpenKind == NoOpenSpan)
    return;
  Tracer->span("engine", engineSpanName(static_cast<StepEngine>(OpenKind)),
               OpenStartUs, Tracer->nowUs(), OpenSteps);
  OpenKind = NoOpenSpan;
  OpenSteps = 0;
}

void Simulation::syncAdmissionWindow() {
  if (AdmEpoch == Cache.mutationEpoch())
    return;
  AdmEpoch = Cache.mutationEpoch();
  AdmWinFirst = static_cast<EntryId>(Cache.entryCount());
  AdmMisses = AdmAdmits = 0;
}

bool Simulation::admitKey(uint64_t Hash) {
  if (!SecondTouch)
    return true;
  syncAdmissionWindow();
  const bool Admit = Cache.touchKey(Hash);
  ++(Admit ? S.SecondTouchAdmits : S.UnadmittedSteps);
  AdmAdmits += Admit;
  if (++AdmMisses < AdmissionWindow)
    return Admit;
  if (AdmAdmits * 100 >= AdmissionWindow * FirstTouchReturnPct) {
    SecondTouch = false;
    AdmSettled = true;
    ++S.AdmissionSwitches;
  }
  AdmMisses = AdmAdmits = 0;
  return Admit;
}

void Simulation::noteEntryCreated() {
  if (SecondTouch || AdmSettled)
    return;
  syncAdmissionWindow();
  // The window [AdmWinFirst, +AdmissionWindow) is judged once the
  // horizon's entries were created after it: each of its entries had at
  // least that long to recur.
  if (Cache.entryCount() - AdmWinFirst < AdmissionWindow + AdmissionHorizon)
    return;
  uint32_t Hit = 0;
  for (EntryId E = AdmWinFirst; E != AdmWinFirst + AdmissionWindow; ++E)
    Hit += Cache.entryHit(E);
  AdmWinFirst += AdmissionWindow;
  if (Hit * 100 < AdmissionWindow * SecondTouchEnterPct) {
    SecondTouch = true;
    ++S.AdmissionSwitches;
    AdmMisses = AdmAdmits = 0;
  }
}

int64_t Simulation::chainBudget() const {
  // Each bound keeps a chained step off a check step() makes before or
  // after it; the step that reaches one returns to C++ and makes it.
  uint64_t B = ChainLeft;
  if (DeadlineHook) // consulted when a step starts at a multiple
    B = std::min(B, (DeadlineCheckPeriod - S.Steps % DeadlineCheckPeriod) %
                        DeadlineCheckPeriod);
  if (Opts.StepLimit)
    B = std::min(B, Opts.StepLimit - std::min(Opts.StepLimit, S.Steps));
  // An over-budget cache evicts after this step; no step may run first.
  if (B != 0 && Cache.overBudget())
    B = 0;
  return static_cast<int64_t>(
      std::min<uint64_t>(B, std::numeric_limits<int64_t>::max()));
}

RunResult Simulation::run(uint64_t MaxSteps) {
  RunResult R;
  // Only run() lets a replayed step chain natively into the next: it
  // bounds the chain by the steps it may still take, and counts the
  // chained ones as completed steps.
  const bool MayChain = !Tracer && !Profiler;
  while (!HaltFlag && !Fault && R.Steps < MaxSteps) {
    ChainLeft = MayChain ? MaxSteps - R.Steps - 1 : 0;
    StepChained = 0;
    const StepEngine E = step();
    R.Steps += StepChained;
    if (E == StepEngine::Faulted)
      break;
    ++R.Steps;
  }
  ChainLeft = 0;
  R.Status = Fault  ? RunStatus::Faulted
             : HaltFlag ? RunStatus::Halted
                        : RunStatus::Limit;
  R.Fault = Fault;
  return R;
}
