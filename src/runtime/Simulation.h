//===- Simulation.h - Fast-forwarding simulation runtime --------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution runtime for compiled Facile simulators: the paper's
/// coupled slow/complete and fast/residual simulators (Figure 1) sharing a
/// specialized action cache.
///
/// Storage is split by binding time, exactly as in the paper's generated C
/// code: *dynamic* state (slots, globals, arrays, target memory, the cycle
/// counter) is shared between the two simulators, while *run-time static*
/// state exists only on the slow side. The slow simulator executes the full
/// step function, recording action numbers, placeholder data and
/// dynamic-result values; the fast simulator replays only dynamic basic
/// blocks. An action-cache miss rolls the slow simulator forward in
/// recovery mode — re-executing rt-static code only, taking recorded
/// dynamic results from the replayed prefix — until it reaches the miss
/// point and resumes normal recording (paper §4.3).
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_RUNTIME_SIMULATION_H
#define FACILE_RUNTIME_SIMULATION_H

#include "src/facile/Compiler.h"
#include "src/isa/TargetImage.h"
#include "src/loader/TargetMemory.h"
#include "src/runtime/ActionCache.h"
#include "src/runtime/ExecPlan.h"
#include "src/runtime/SharedProgram.h"
#include "src/runtime/SimFault.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace facile {

namespace telemetry {
class ActionProfiler;
class EventTracer;
class MetricSink;
class MetricsRegistry;
} // namespace telemetry

namespace jit {
class JitCache;
struct JitSession;
} // namespace jit

namespace rt {

class ExecBackend;

/// Which execution backend a Simulation uses (ExecBackend.h). This is an
/// execution strategy, not a semantic choice: both backends step
/// bit-identically and it never enters compatKey().
enum class BackendKind : uint8_t {
  Auto,      ///< Jit where the template JIT is available, else Interpret
  Interpret, ///< the template-specialized interpreter loops only
  Jit,       ///< native slow steps and traces of hot entries; interpreter
             ///< for the rest
};

const char *backendKindName(BackendKind K);
/// Parses a backend spelling: "auto", "interpret", "jit" (plus the flag
/// aliases "on" -> Jit and "off" -> Interpret). False on anything else.
bool parseBackendKind(const std::string &Name, BackendKind &Out);

/// Host-provided implementation of an `extern` function. Returning
/// std::nullopt reports a host-side failure, which the runtime surfaces as
/// an ExternFailure fault (plain int64_t returns convert implicitly).
using ExternHandler =
    std::function<std::optional<int64_t>(const int64_t *Args, size_t N)>;

/// Which engine produced a step.
enum class StepEngine : uint8_t {
  Slow,         ///< recorded by the slow simulator (cold key)
  Fast,         ///< fully replayed from the action cache
  FastThenSlow, ///< replay missed; recovered and re-recorded
  Faulted,      ///< the step raised (or the sim already had) a SimFault
};

/// A running simulation of one compiled Facile program over one target
/// image.
class Simulation {
public:
  struct Options {
    bool Memoize = true; ///< false: slow simulator only, no cache (baseline)
    /// Over budget the cache is cleared wholesale (paper §6.1).
    size_t CacheBudgetBytes = 256u << 20; ///< paper §6.2's 256 MB default

    // Resource limits (neither affects compatKey(): they bound a run, not
    // what it records).

    /// Step watchdog: fault with StepLimit once lifetime Steps reaches
    /// this. 0 = unlimited. Resumable: clearFault() + a higher limit.
    uint64_t StepLimit = 0;
    /// TargetMemory resident-page cap (MemoryBudgetExceeded). 0 = none.
    size_t MemPageBudget = 0;

    /// Execution backend (ExecBackend.h). Auto resolves to Jit on hosts
    /// where the template JIT runs (x86-64 with mmap; the FACILE_JIT
    /// environment variable overrides Auto), else Interpret. An explicit
    /// Jit request degrades to Interpret when unsupported — never an
    /// error. Does not affect compatKey().
    BackendKind Backend = BackendKind::Auto;
    /// Replays of a cache entry until the Jit backend binds it to a trace
    /// shape (the threshold-th replay runs native), and slow steps before
    /// the plan's slow-step function compiles. 2 was the fastest of a
    /// {2, 4, 8} sweep once binds reused replay's verification and shapes
    /// were shared per program. When left at the default, the
    /// FACILE_JIT_THRESHOLD environment variable overrides it
    /// (harness-wide experiments).
    static constexpr uint32_t DefaultJitThreshold = 2;
    uint32_t JitThreshold = DefaultJitThreshold;
  };

  struct Stats {
    uint64_t Steps = 0;
    uint64_t FastSteps = 0;
    uint64_t Misses = 0;          ///< action-cache misses (recoveries)
    uint64_t RetiredTotal = 0;    ///< via the retire() builtin
    uint64_t RetiredFast = 0;     ///< retired during fast replay
    uint64_t Cycles = 0;          ///< via the cycles() builtin
    uint64_t PlaceholderWords = 0;
    uint64_t Faults = 0;         ///< structured faults raised
    uint64_t CorruptDropped = 0; ///< corrupt entries detached, step ran cold
    // Checkpoint words kept for the format: no step bypasses memoization,
    // so both read 0.
    uint64_t BypassActivations = 0;
    uint64_t BypassedSteps = 0;
    // Admission (Simulation::step): session-local, not in checkpoints.
    uint64_t UnadmittedSteps = 0;  ///< first touches run unrecorded
    uint64_t SecondTouchAdmits = 0; ///< keys recorded on their second touch
    uint64_t AdmissionSwitches = 0; ///< first-touch <-> second-touch moves

    /// Table 1's metric: fraction of instructions simulated by the fast
    /// simulator.
    double fastForwardedPct() const {
      return RetiredTotal == 0
                 ? 0.0
                 : 100.0 * static_cast<double>(RetiredFast) /
                       static_cast<double>(RetiredTotal);
    }

    /// Pushes the step counters (steps, fast_steps, ... ,
    /// fast_forwarded_pct) into \p Sink — the canonical export of this
    /// struct (RuntimeMetrics.cpp).
    void exportMetrics(telemetry::MetricSink &Sink) const;
  };

  /// \p Prog and \p Image must outlive the simulation. This constructor
  /// builds (and owns) a private ExecPlan from \p Prog.
  Simulation(const CompiledProgram &Prog, const isa::TargetImage &Image,
             Options Opts);
  Simulation(const CompiledProgram &Prog, const isa::TargetImage &Image)
      : Simulation(Prog, Image, Options()) {}

  /// Constructs over process-shared immutable state: the program, image
  /// and pre-built ExecPlan are referenced from \p Shared, which must
  /// outlive the simulation. Any number of simulations — across threads —
  /// may share one SharedProgram; all mutable state stays private here.
  Simulation(const SharedProgram &Shared, Options Opts);

  /// Out-of-line: members hold unique_ptrs to types forward-declared here
  /// (ExecBackend, jit::JitCache).
  ~Simulation();

  /// The resolved backend's name — "interpret" or "jit" (Auto never
  /// survives resolution). Servers echo this so clients learn what a
  /// "backend":"auto" request actually got.
  const char *backendName() const;

  /// Actions the backend has compiled to native code (always 0 on the
  /// interpreter): the programmatic "did the JIT engage" probe used by
  /// benches and CI smoke checks.
  uint64_t jitCompiledActions() const;

  /// Replayed steps entered by a native chain jump (jit.chained_steps):
  /// run() lets a traced step jump straight into the next step's trace
  /// when the INDEX chain holds. Always 0 on the interpreter.
  uint64_t chainedSteps() const;

  /// Installs the handler for extern \p Name. Returns false (installing
  /// nothing) when the name was not declared extern in the program — the
  /// diagnosable path for names arriving from driver flags or config.
  /// Wiring code with compiled-in names may assert the result.
  bool registerExtern(const std::string &Name, ExternHandler Handler);

  /// Reads / writes a scalar global in the dynamic store (e.g. to seed the
  /// initial pc). Aborts on unknown names or arrays.
  int64_t getGlobal(const std::string &Name) const;
  void setGlobal(const std::string &Name, int64_t Value);
  /// Non-aborting variants for name-lookup paths fed by user input
  /// (driver flags): false means no such scalar global.
  bool tryGetGlobal(const std::string &Name, int64_t &Out) const;
  bool trySetGlobal(const std::string &Name, int64_t Value);
  /// Array-global element access for harnesses and tests.
  int64_t getGlobalElem(const std::string &Name, uint32_t Index) const;
  void setGlobalElem(const std::string &Name, uint32_t Index, int64_t Value);

  /// Executes one call of the step function. Returns which engine ran it.
  /// Once a fault is pending, stepping is a no-op returning Faulted until
  /// clearFault().
  StepEngine step();

  /// Runs until sim_halt(), a fault, or \p MaxSteps steps.
  RunResult run(uint64_t MaxSteps);

  bool halted() const { return HaltFlag; }

  //===-- Guarded execution --------------------------------------------------

  bool faulted() const { return static_cast<bool>(Fault); }
  const SimFault &fault() const { return Fault; }
  const Options &options() const { return Opts; }
  /// Acknowledges the pending fault so stepping can resume. The
  /// simulation state is whatever the fault left consistent: for
  /// CacheCorrupt/PlanCorrupt the faulting step may have executed
  /// partially, so resuming is at the host's own judgement; StepLimit,
  /// MemoryBudgetExceeded and ExternFailure are cleanly resumable.
  void clearFault();
  /// Raises a fault from outside the engines (e.g. a harness that decodes
  /// target state and finds it undecodable).
  void raiseFault(FaultKind Kind, const char *Detail);
  void setStepLimit(uint64_t Limit) { Opts.StepLimit = Limit; }

  //===-- Admission ------------------------------------------------------------
  //
  // A step whose key has no entry records one — unless the session admits
  // on second touch: then a key seen for the first time runs the slow
  // simulator unrecorded and is only marked in the cache's first-touch
  // filter, and its next miss records it. A session starts admitting on
  // first touch. It moves to second touch when fewer than
  // SecondTouchEnterPct % of a window of AdmissionWindow created entries
  // were hit before AdmissionHorizon further entries were created. It
  // moves back when at least FirstTouchReturnPct % of AdmissionWindow
  // miss steps were admits (second touches), and then admits on first
  // touch for the rest of the session: its keys recur, only further
  // apart than the horizon. Both windows count created entries or miss
  // steps, never steps, so chained (hit) steps cannot reach one. The
  // constants were fixed from measured traffic (docs/INTERNALS.md,
  // "Admission"); no option sets them.

  static constexpr uint32_t AdmissionWindow = 1024;
  /// Created entries a window's entries get to be hit in before it is
  /// judged: long enough that a short loop body (compress) recurs inside
  /// it, short enough that a run of non-recurring keys moves within the
  /// first ~5 K of them.
  static constexpr uint32_t AdmissionHorizon = 4 * AdmissionWindow;
  /// A never-hit recording costs more than an unrecorded slow step; 35 %
  /// hits within the horizon leaves margin for keys that recur later.
  static constexpr uint32_t SecondTouchEnterPct = 35;
  /// Each recurring key misses twice under second touch, so 40 % admits
  /// means about two thirds of the new keys recur.
  static constexpr uint32_t FirstTouchReturnPct = 40;
  bool secondTouchAdmission() const { return SecondTouch; }

  /// Fault-injection hook: consulted before every extern dispatch with the
  /// extern id; returning true fails the call (ExternFailure fault).
  void setExternFaultHook(std::function<bool(uint32_t)> Hook) {
    ExternFaultHook = std::move(Hook);
  }

  /// Cooperative deadline: \p Hook is consulted at the step-watchdog check
  /// point every DeadlineCheckPeriod steps (plus on the first step after
  /// installation); returning true raises a DeadlineExceeded fault before
  /// the step executes, so the simulation state is exactly what the
  /// previous step left — cleanly resumable with clearFault(). Null
  /// detaches (the common idle state: one pointer test per step). Hosts
  /// typically install a wall-clock comparison for the duration of one
  /// request and detach afterwards.
  void setDeadlineHook(std::function<bool()> Hook) {
    DeadlineHook = std::move(Hook);
    DeadlineArmCheck = true;
  }
  /// Steps between two consultations of the deadline hook — cheap enough
  /// for a clock read, frequent enough that a deadline is honored within
  /// microseconds of work.
  static constexpr uint64_t DeadlineCheckPeriod = 64;

  /// Out-of-band cache eviction preserving the engine invariants: flushes
  /// the open trace span, clears the cache (resetting a store-backed
  /// cache to its read-only base) and resets the INDEX chain.
  /// For host-side resource control (e.g. a daemon bounding aggregate
  /// overlay growth); a no-op on an empty cache.
  void evictCacheNow();

  const Stats &stats() const { return S; }
  const ActionCache &cache() const { return Cache; }

  //===-- Telemetry ----------------------------------------------------------

  /// Attaches \p T (null detaches, flushing the open span). Cost while
  /// null: one pointer test per step. Enabled tracing reads the clock only
  /// at engine transitions — consecutive same-engine steps merge into one
  /// span — plus one read per instant (eviction, fault).
  void setTracer(telemetry::EventTracer *T);
  telemetry::EventTracer *tracer() const { return Tracer; }
  /// Closes the currently open merged step span, if any. Hosts call this
  /// before serializing the trace (and before emitting their own instants)
  /// so every buffered step is covered and timestamps stay monotonic.
  void flushTraceSpan();

  /// Attaches \p P (null detaches). Sampled steps replay through a
  /// separate loop instantiation; unsampled steps and detached runs
  /// execute the original loop unchanged.
  void setProfiler(telemetry::ActionProfiler *P) {
    Profiler = P;
    ProfArmed = false;
  }
  telemetry::ActionProfiler *profiler() const { return Profiler; }

  /// Registers this simulation's canonical metric groups, in statsJson()
  /// schema order: the top-level step counters (empty group), then
  /// "fault", "guard", "bypass", "admission", "jit" and "cache". The
  /// registry must not outlive this simulation (RuntimeMetrics.cpp).
  void registerMetrics(telemetry::MetricsRegistry &R) const;
  /// The "admission" group: the current mode, unadmitted_steps,
  /// second_touch_admits, mode_switches and entries_never_hit (live
  /// entries never hit since they were created or loaded).
  void exportAdmissionMetrics(telemetry::MetricSink &Sink) const;
  /// Mutable internals for the fault injector (inject::FaultInjector) and
  /// white-box tests; production code never writes through these. Counts
  /// as an out-of-band mutation: the cache's epoch is bumped so every
  /// derived view (verification marks, trace bindings) re-verifies
  /// against whatever the caller changed. Key-static values are
  /// materialized first and the INDEX chain is dropped, so a NextKey the
  /// caller rewrites is caught by the End node's seal when replay next
  /// walks it, never followed unverified.
  ActionCache &mutableCache() {
    materialize();
    PendingEndNode = ActionNode::NoNode;
    Cache.noteExternalMutation();
    return Cache;
  }
  /// When the plan is shared (SharedProgram constructor), the first call
  /// privatizes it with a copy-on-write clone, so mutations — a fault
  /// injector truncating streams — never reach sibling simulations.
  ExecPlan &mutablePlan();
  /// True while this simulation still reads the SharedProgram's plan (no
  /// mutablePlan() privatization happened).
  bool planShared() const { return !OwnedPlan; }
  const isa::TargetImage &image() const { return Image; }
  /// Number of actions in the compiled program — sizes an ActionProfiler.
  uint32_t actionCount() const {
    return static_cast<uint32_t>(Plan->ActionOfs.size() - 1);
  }
  TargetMemory &memory() { return Mem; }
  const TargetMemory &memory() const { return Mem; }

  //===-- Snapshot hooks -----------------------------------------------------

  /// Compatibility key for snapshot payloads produced by this simulation:
  /// an FNV hash of the packed ExecPlan (the compiled program's
  /// fingerprint), the global/extern layout, the ISA revision, Options and
  /// the target image contents. Two simulations with equal keys interpret
  /// checkpoint and action-cache payloads identically.
  uint64_t compatKey() const;

  /// Writes the complete dynamic simulation state — both stores (dynamic
  /// and rt-static), halt flag and statistics counters — but not target
  /// memory (TargetMemory::serialize) or the action cache.
  void serializeState(snapshot::Writer &W) const;

  /// Restores state written by serializeState. Validates every container
  /// size against the compiled program; on failure returns false and the
  /// simulation is untouched.
  bool deserializeState(snapshot::Reader &R);

  /// Replaces the action cache with \p Img, a validated image (see
  /// store::parseImage) whose action ids fit this program. Resets the
  /// INDEX chain (the next step re-interns its key). Privatizes: any
  /// attached store base is dropped and the image is owned outright.
  void adoptCacheImage(ActionCache::FlatImage Img);

  //===-- Shared cache store -------------------------------------------------

  /// Attaches read-only base arenas (typically a mapped store file — see
  /// src/store/) under this simulation's cache. Requires memoization on
  /// and an empty cache (attach before the first step, or after a clear);
  /// otherwise returns false with a diagnostic in \p Err. \p Keepalive
  /// pins whatever owns the arena memory (e.g. a store mapping) for as
  /// long as the base is attached; the arenas themselves must stay valid
  /// and unmodified for that lifetime, and must have passed
  /// store::parseImage for this program (StoreMap::open runs it). New
  /// recordings land in a private copy-on-write overlay; the base is
  /// never written.
  bool attachCacheBase(const ActionCache::BaseArenas &B,
                       std::shared_ptr<const void> Keepalive,
                       std::string *Err = nullptr);
  /// Drops the attached base (and the whole overlay): the cache is empty
  /// and fully owned afterwards. No-op without an attached base.
  void detachCacheBase();
  bool cacheBaseAttached() const { return Cache.hasBase(); }

private:
  // The backends are the engines' dispatch strategy (ExecBackend.h) and
  // share this class's private state outright.
  friend class ExecBackend;
  friend class InterpretBackend;
  friend class JitBackend;
  friend std::unique_ptr<ExecBackend> makeExecBackend(Simulation &Sim,
                                                      BackendKind Kind);

  /// Recovery input: the replayed prefix of a cache entry up to (and
  /// including) the missing dynamic-result test. Built by the fast engine
  /// (FastEngine.cpp), consumed by the slow engine (SlowEngine.cpp).
  struct ReplayedStep {
    EntryId Entry = NoId;
    KeyId Key = NoId;
    struct Item {
      uint32_t Node;
      int64_t Value; ///< taken result for Test nodes along the prefix
    };
    std::vector<Item> Path; ///< head .. miss node
    int64_t MissValue = 0;  ///< the new result computed at the miss
  };

  /// How a replay attempt ended (FastEngine.cpp).
  enum class ReplayResult : uint8_t {
    Replayed,    ///< clean end-of-step replay
    Recovered,   ///< miss: prefix handed to the slow engine, step completed
    CorruptCold, ///< corruption detected before any dynamic instruction
                 ///< executed; caller detaches the entry and records cold
    Faulted,     ///< a fault was raised (corruption mid-step, extern, ...)
  };

  /// The slow / complete simulator: record and recovery (SlowEngine.cpp).
  void runSlow(EntryId Rec, const ReplayedStep *Recovery);
  /// The fast / residual simulator: replay (FastEngine.cpp). Profiled is
  /// this step's sampling decision, lifted to a compile-time branch so
  /// the unprofiled replay loop stays tight.
  template <bool Profiled>
  ReplayResult runFastImpl(EntryId Entry, KeyId Key);
  ReplayResult runFast(EntryId Entry, KeyId Key);
  /// Chain jumps the next trace call may take: ChainLeft, cut short so no
  /// chained step reaches a deadline consultation or the step limit, and
  /// 0 while the cache is over budget.
  int64_t chainBudget() const;
  /// Accounts \p N steps that ran to completion after native chain jumps
  /// (their Steps and StateKey are kept by the chain stub itself).
  void noteChainedSteps(uint64_t N);
  /// A key serializeKey() left in KeyBuf: its length and hashKey value.
  struct SerializedKey {
    size_t Len = 0;
    uint64_t Hash = 0;
  };
  /// Encodes the dynamic store's init globals into KeyBuf (layout at
  /// KeyField), hashing each finished stripe as it goes.
  SerializedKey serializeKey();
  /// Decodes every init global of interned key \p Key into the rt-static
  /// store. False when the key is malformed (decodeKeyFields).
  bool seedStaticFromKey(KeyId Key);
  /// The words of global \p G in the dynamic or rt-static store.
  int64_t *storeWords(uint32_t G, bool Static);
  /// Decodes the width-tagged fields of interned key \p K into the
  /// key-static globals of the dynamic store (\p Static false) or the
  /// rt-static store. Every width byte and length is checked against the
  /// key's length, so a malformed key reads nothing out of bounds: false
  /// on an illegal width, a truncated field or a trailing byte (fields
  /// before the bad one are already written then).
  bool decodeKeyFields(KeyId K, bool Static);
  void copyInitDynToStatic();
  /// Copies the key-static words of StateKey into the dynamic store and
  /// clears StateKey; a no-op when the store is already current. Logically
  /// const — the store takes on values the key already defines — so const
  /// readers (host getters, serializeState) call it too. A malformed
  /// StateKey raises CacheCorrupt.
  void materialize() const;
  /// runSlow at Ret: the slow simulator's static cells of key-static
  /// globals become the dynamic store (unrecorded), which is current then.
  void writeBackKeyStatic();
  /// \p K is an interned key whose length fits this program's key layout:
  /// enough for chainMatches to read the head. The fields are checked
  /// only when decoded.
  bool keyUsable(KeyId K) const {
    if (K >= Cache.keyCount())
      return false;
    const uint32_t Len = Cache.keyLen(K);
    return Len >= KeyMinLen && Len <= KeyMaxLen;
  }
  /// INDEX-chain check: the non-key-static words of interned key \p Next
  /// equal the dynamic store's.
  bool chainMatches(KeyId Next) const;
  /// Dispatches an extern call. False means an ExternFailure fault was
  /// raised (unregistered handler, injected failure, or the handler
  /// returned nullopt); \p Out is untouched then.
  bool externCall(const XInst &I, const int64_t *Args, int64_t &Out);
  /// Admission of a miss step's key with hash \p Hash (no entry yet):
  /// true records it. Accounts the second-touch window.
  bool admitKey(uint64_t Hash);
  /// Accounts one created entry in the first-touch window.
  void noteEntryCreated();
  /// Restarts both admission windows when the cache was rebuilt (entry
  /// ids moved) since they were opened.
  void syncAdmissionWindow();
  /// Merges this step into the open trace span (Tracer is non-null).
  void noteStepForTrace(StepEngine Engine);
  /// Post-step resource-guard check; may turn \p Engine into Faulted.
  StepEngine finishStep(StepEngine Engine);

  /// Shared per-simulation state initialisation for both constructors.
  void initState();

  const CompiledProgram &Prog;
  const isa::TargetImage &Image;
  Options Opts;
  /// The packed instruction streams both engines execute. OwnedPlan is
  /// non-null when this simulation owns its plan (legacy constructor, or
  /// after a mutablePlan() copy-on-write); Plan always points at what the
  /// engines read — the owned copy or a SharedProgram's immutable plan.
  std::unique_ptr<ExecPlan> OwnedPlan;
  const ExecPlan *Plan;
  TargetMemory Mem;

  /// How memoized steps execute (ExecBackend.h). Built by initState()
  /// from Opts.Backend; never null afterwards.
  std::unique_ptr<ExecBackend> Backend;
  /// Non-null for the SharedProgram constructor: where a Jit backend
  /// finds the process-shared code cache for the shared plan.
  const SharedProgram *SharedProg = nullptr;
  /// Armed by the Jit backend, consulted per node by the replay loop;
  /// null means replay never looks at the JIT (the Interpret backend's
  /// only cost is this one pointer test per node).
  jit::JitSession *JitCtx = nullptr;
  /// The private code cache of owned-plan (or privatized) simulations.
  std::unique_ptr<jit::JitCache> OwnedJitCache;

  // Dynamic state: shared between the two simulators (and with the host).
  std::vector<int64_t> DynSlots;
  std::vector<int64_t> DynGlobals;
  std::vector<std::vector<int64_t>> DynArrays; ///< per global id (arrays)
  std::vector<std::vector<int64_t>> DynLocalArrays;

  // Run-time static state: the slow simulator's private view.
  std::vector<int64_t> StatSlots;
  std::vector<int64_t> StatGlobals;
  std::vector<std::vector<int64_t>> StatArrays;
  std::vector<std::vector<int64_t>> StatLocalArrays;

  std::vector<ExternHandler> Externs;
  std::function<bool(uint32_t)> ExternFaultHook;
  std::function<bool()> DeadlineHook;
  bool DeadlineArmCheck = false; ///< force a hook consult on the next step
  ActionCache Cache;
  /// Pins the memory behind an attached cache base (store mapping).
  std::shared_ptr<const void> CacheBaseKeepalive;
  bool HaltFlag = false;
  Stats S;
  SimFault Fault;
  uint32_t PcGlobal = NoId; ///< "PC"/"pc" scalar global, for SimFault::Pc

  // Telemetry: both pointers are null until a host attaches them, and
  // every hot-path hook hides behind that one test. Consecutive steps run
  // by the same engine merge into one open span (clock reads only at
  // transitions); instants flush the open span first so timestamps stay
  // monotonic in arrival order.
  telemetry::EventTracer *Tracer = nullptr;
  telemetry::ActionProfiler *Profiler = nullptr;
  bool ProfArmed = false; ///< this step's replay is sampled
  static constexpr uint8_t NoOpenSpan = 0xff;
  uint8_t OpenKind = NoOpenSpan; ///< StepEngine of the open span
  uint64_t OpenStartUs = 0;
  uint64_t OpenSteps = 0;

  // Admission state machine (see secondTouchAdmission()).
  bool SecondTouch = false;
  uint64_t AdmEpoch = 0;      ///< cache mutation epoch the windows belong to
  EntryId AdmWinFirst = 0;    ///< first entry of the first-touch window
  uint32_t AdmMisses = 0;     ///< second-touch window: miss steps
  uint32_t AdmAdmits = 0;     ///< of those, admitted
  bool AdmSettled = false;    ///< moved back once: first touch for good

  /// INDEX chaining (paper Figure 9): the End node reached by the previous
  /// step. When its recorded NextKey's non-key-static words match the
  /// dynamic store, the step's key is NextKey: neither serialization nor
  /// hash-and-probe interning runs. Key-static words need no compare —
  /// the recorded path that reached the End node fixed them.
  uint32_t PendingEndNode = ActionNode::NoNode;
  /// Where key-static init globals (CompiledProgram::KeyStatic) live after
  /// a replayed step: the key it ended on. Replay never flushes them, so
  /// their dynamic-store words are stale until materialize() copies them
  /// back; NoId means the dynamic store is current.
  KeyId StateKey = NoId;
  /// One init global's words in the serialized key. A key is a head of
  /// the compared (non-key-static) globals, 8 raw bytes a word at fixed
  /// offsets, then each key-static global in Prog.InitGlobals order as a
  /// width byte w in {1, 2, 4, 8} and Words x w little-endian bytes, w the
  /// narrowest signed width holding every word of the field. One state
  /// has one encoding, so it interns to one key.
  struct KeyField {
    uint32_t Global;
    uint32_t Words;
    uint32_t Ofs; ///< byte offset in the head (ChainFields only)
  };
  std::vector<KeyField> KeyStaticFields; ///< restored by materialize()
  std::vector<KeyField> ChainFields;     ///< compared by chainMatches()
  std::string KeyBuf; ///< reused per-step key buffer, KeyMaxLen bytes
  /// Reused replay-prefix buffer: runFastImpl clears it at step start and
  /// keeps its capacity, so a replayed step allocates nothing; only a miss
  /// reads it (as runSlow's recovery input).
  ReplayedStep ReplayPrefix;
  /// Native chaining (FastEngine.cpp): steps run() may still take after
  /// the current one, 0 outside run() and while a tracer or profiler is
  /// attached (those observe every step); and the steps the current step()
  /// completed by chain jumps, which run() adds to its count.
  uint64_t ChainLeft = 0;
  uint64_t StepChained = 0;
  uint32_t KeyHeadLen = 0; ///< bytes of the raw head
  uint32_t KeyMinLen = 0;  ///< every field at width 1
  uint32_t KeyMaxLen = 0;  ///< every field at width 8
};

} // namespace rt
} // namespace facile

#endif // FACILE_RUNTIME_SIMULATION_H
