//===- Server.cpp - Multi-session simulation server ------------------------===//
//
// Structure: an accept loop hands each connection to a reader thread that
// only frames newline-delimited requests (and enforces the line-size and
// per-connection request budgets); framed lines go into one bounded work
// queue drained by the fixed worker pool, which parses, validates against
// the verb table, dispatches and responds. Sessions serialize on a
// per-session mutex; everything read-only (program, image, plan) lives in
// pooled SharedPrograms.
//
// All loops are poll-with-timeout against one atomic stop flag, so
// shutdown never depends on waking a blocked syscall.
//
//===----------------------------------------------------------------------===//

#include "src/server/Server.h"

#include "src/inject/FaultInjector.h"
#include "src/jit/JitCache.h"
#include "src/server/Protocol.h"
#include "src/sims/SimHarness.h"
#include "src/store/CacheStore.h"
#include "src/support/StringUtils.h"
#include "src/telemetry/Metrics.h"
#include "src/workload/Workloads.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace facile;
using namespace facile::server;
using facile::sims::FacileSim;
using facile::sims::SimKind;

namespace {

/// Sends all of \p Data on \p Fd (MSG_NOSIGNAL: a closed peer is a lost
/// response, not a SIGPIPE). Returns false on any send error.
bool sendAll(int Fd, const char *Data, size_t N) {
  while (N != 0) {
    ssize_t W = ::send(Fd, Data, N, MSG_NOSIGNAL);
    if (W <= 0)
      return false;
    Data += W;
    N -= static_cast<size_t>(W);
  }
  return true;
}

bool parseSimKind(std::string_view Name, SimKind &Out) {
  if (Name == "functional")
    Out = SimKind::Functional;
  else if (Name == "inorder")
    Out = SimKind::InOrder;
  else if (Name == "ooo")
    Out = SimKind::OutOfOrder;
  else
    return false;
  return true;
}

const char *simKindName(SimKind K) {
  switch (K) {
  case SimKind::Functional:
    return "functional";
  case SimKind::InOrder:
    return "inorder";
  case SimKind::OutOfOrder:
    return "ooo";
  }
  return "?";
}

void writeFault(json::Writer &W, const rt::SimFault &F) {
  W.objectField("fault")
      .field("kind", std::string_view(rt::faultKindName(F.Kind)))
      .field("step", F.Step)
      .field("pc", F.Pc)
      .field("detail", std::string_view(F.Detail))
      .endObject();
}

/// Monotonic wall time, for deadlines, idle timers and TTLs.
uint64_t nowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t nowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Canonical dedup key of a request id: type-tagged so the int 7 and the
/// string "7" stay distinct. Empty = no id, never deduped.
std::string requestIdKey(const json::Value *Id) {
  if (!Id)
    return std::string();
  if (Id->isInt())
    return strFormat("i%lld", static_cast<long long>(Id->intOr(0)));
  if (Id->isStr())
    return "s" + Id->str();
  return std::string();
}

/// Parses \p Line just far enough to echo its request id on a rejection
/// path (framing otherwise never parses JSON). \p Req owns the storage.
const json::Value *lineRequestId(const std::string &Line, json::Value &Req) {
  std::string PErr;
  if (json::parse(Line, Req, PErr, MaxRequestDepth) && Req.isObject())
    return Req.get("id");
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Request schema: field declarations and the one validator
//===----------------------------------------------------------------------===//

using enum FieldType;

/// Bounds of create's footprint and budget fields: 4096 K words is 16 MB
/// of target data, 8x the largest suite workload's; 1024 kernels are 8x
/// gcc's 120 (generation splits the data among the kernels, so neither may
/// be 0); a budget of 2^20 MB shifts into a byte count without wrap; the
/// outer count is loaded into a 32-bit register.
constexpr FieldSpec CreateFields[] = {
    // A resume restores a spilled session; nothing else is read.
    {.Name = "resume_token", .Type = Str, .Alone = true},
    {.Name = "sim", .Type = Str, .Choices = "functional|inorder|ooo",
     .DefStr = "functional"},
    {.Name = "workload", .Type = Str, .DefStr = "compress"},
    {.Name = "outer_iters", .Type = Int, .Lo = 1, .Hi = 0x7fffffff, .Def = 2},
    {.Name = "data_kwords", .Type = Int, .Lo = 1, .Hi = 4096},
    {.Name = "num_kernels", .Type = Int, .Lo = 1, .Hi = 1024},
    {.Name = "options", .Type = Object},
    {.Name = "options.memoize", .Type = Bool},
    // Test knob: an artificial per-chunk sleep, so deadline and overload
    // behavior can be exercised deterministically without huge workloads.
    {.Name = "options.step_delay_us", .Type = Int, .Hi = 1 << 20},
    {.Name = "options.cache_budget_mb", .Type = Int, .Hi = int64_t(1) << 20},
    {.Name = "options.mem_budget_mb", .Type = Int, .Hi = int64_t(1) << 20},
    {.Name = "options.max_steps", .Type = Int, .Hi = INT64_MAX}, // 0: none
    // Its own code: a client probing for JIT support can tell "this daemon
    // predates backends" (unknown fields are ignored) from a bad spelling.
    {.Name = "backend", .Type = Str, .Choices = "auto|interpret|jit|on|off",
     .Code = ErrCode::BadBackend},
    {.Name = "fault_inject", .Type = Str},
};
constexpr FieldSpec SessionField = {
    .Name = "session", .Type = Int, .Hi = INT64_MAX, .Required = true};
constexpr FieldSpec DeadlineField = {
    .Name = "deadline_ms", .Type = Int, .Hi = INT64_MAX};
constexpr FieldSpec StepFields[] = {
    SessionField,
    {.Name = "count", .Type = Int, .Lo = 1, .Hi = INT64_MAX, .Def = 1,
     .Cap = FieldCap::StepsPerRequest},
    DeadlineField,
};
constexpr FieldSpec RunFields[] = {
    SessionField,
    {.Name = "steps", .Type = Int, .Lo = 1, .Hi = INT64_MAX, .Def = INT64_MAX,
     .Cap = FieldCap::StepsPerRequest},
    // Absolute retired-instruction target; 0: none.
    {.Name = "instrs", .Type = Int, .Lo = 1, .Hi = INT64_MAX},
    DeadlineField,
};
constexpr FieldSpec InspectFields[] = {
    SessionField,
    {.Name = "what", .Type = Str,
     .Choices = "stats|digest|global|registers|memory", .DefStr = "stats"},
    {.Name = "name", .Type = Str},                   // what=global
    {.Name = "addr", .Type = Int, .Hi = 0xffffffff}, // what=memory
    {.Name = "words", .Type = Int, .Lo = 1, .Hi = INT64_MAX, .Def = 1,
     .Cap = FieldCap::InspectWords},
};
// A step-limit fault would re-fire at once unless the watchdog is raised,
// so clear-fault takes the new limit in the same round trip.
constexpr FieldSpec ClearFaultFields[] = {
    SessionField, {.Name = "max_steps", .Type = Int, .Hi = INT64_MAX}};
constexpr FieldSpec SnapshotKindField = {
    .Name = "kind", .Type = Str, .Choices = "checkpoint|cache",
    .DefStr = "checkpoint"};
constexpr FieldSpec SnapshotSaveFields[] = {SessionField, SnapshotKindField};
constexpr FieldSpec SnapshotLoadFields[] = {
    SessionField, SnapshotKindField,
    {.Name = "bytes_b64", .Type = Str, .Required = true}};
constexpr FieldSpec SessionOnly[] = {SessionField};
constexpr FieldSpec BatchFields[] = {
    {.Name = "requests", .Type = Array, .Required = true}};

bool isChoice(std::string_view Choices, std::string_view S) {
  for (size_t Pos = 0;;) {
    size_t Bar = Choices.find('|', Pos);
    if (Choices.substr(Pos, Bar - Pos) == S)
      return true;
    if (Bar == std::string_view::npos)
      return false;
    Pos = Bar + 1;
  }
}

/// The message for a member that fails its declaration.
std::string describe(const FieldSpec &F) {
  static const char *const Want[] = {"", "a string", "true or false",
                                     "an object", "an array"};
  if (F.Type == Int)
    return strFormat("'%s' must be an integer in [%lld, %lld]", F.Name,
                     static_cast<long long>(F.Lo),
                     static_cast<long long>(F.Hi));
  return strFormat("'%s' must be %s", F.Name,
                   F.Choices ? F.Choices : Want[static_cast<int>(F.Type)]);
}

/// A request's declared members after validation: each one either present
/// and well-typed, or absent and at its default. Verb bodies read requests
/// only through this.
class Args {
public:
  /// The one request validator: checks \p Req against \p Decl, in
  /// declaration order. On the first member that is present with the wrong
  /// type or out of range (or required and absent) returns false with the
  /// member's error code in \p Code and the message in \p Msg.
  bool read(std::span<const FieldSpec> Decl, const json::Value &Req,
            const ServerOptions &Opts, const char *&Code, std::string &Msg) {
    Fields = Decl;
    Slots.clear();
    for (const FieldSpec &F : Decl)
      Slots.push_back(Slot{nullptr, F.Def, F.DefStr});
    for (size_t I = 0; I != Decl.size(); ++I) {
      const FieldSpec &F = Decl[I];
      std::string_view Name = F.Name;
      const json::Value *In = &Req;
      if (size_t Dot = Name.find('.'); Dot != std::string_view::npos) {
        In = Req.get(Name.substr(0, Dot)); // type-checked as declared first
        Name.remove_prefix(Dot + 1);
      }
      const json::Value *V = In ? In->get(Name) : nullptr;
      const bool Ok =
          !V                 ? !F.Required
          : F.Type == Int    ? V->isInt() && V->intOr(0) >= F.Lo &&
                                V->intOr(0) <= F.Hi
          : F.Type == Str    ? V->isStr() && (!F.Choices ||
                                              isChoice(F.Choices, V->str()))
          : F.Type == Bool   ? V->isBool()
          : F.Type == Object ? V->isObject()
                             : V->isArray();
      if (!Ok) {
        Code = F.Code;
        Msg = V ? describe(F) : strFormat("missing '%s'", F.Name);
        return false;
      }
      Slot &S = Slots[I];
      if (V)
        S = Slot{V, V->isBool() ? V->boolOr(false) : V->intOr(0), V->str()};
      if (F.Cap != FieldCap::None)
        S.I = static_cast<int64_t>(std::min<uint64_t>(
            static_cast<uint64_t>(S.I), F.Cap == FieldCap::StepsPerRequest
                                            ? Opts.MaxStepsPerRequest
                                            : Opts.MaxInspectWords));
      if (V && F.Alone)
        break;
    }
    return true;
  }

  bool has(std::string_view Name) const { return slot(Name).V != nullptr; }
  int64_t num(std::string_view Name) const { return slot(Name).I; }
  bool flag(std::string_view Name) const { return slot(Name).I != 0; }
  std::string_view str(std::string_view Name) const { return slot(Name).S; }
  /// The raw value of a present member (arrays).
  const json::Value &value(std::string_view Name) const {
    return *slot(Name).V;
  }

private:
  struct Slot {
    const json::Value *V = nullptr; ///< null when absent
    int64_t I = 0;                  ///< Int (clamped) and Bool
    std::string_view S;             ///< Str
  };
  const Slot &slot(std::string_view Name) const {
    for (size_t I = 0; I != Fields.size(); ++I)
      if (Name == Fields[I].Name)
        return Slots[I];
    assert(false && "verb reads a member it does not declare");
    static const Slot Absent;
    return Absent;
  }
  std::span<const FieldSpec> Fields;
  std::vector<Slot> Slots;
};

} // namespace

//===----------------------------------------------------------------------===//
// Impl data structures
//===----------------------------------------------------------------------===//

namespace {

/// One accepted connection. The fd is owned here and closed by the
/// destructor — never earlier — so a worker finishing a queued request
/// after the reader is gone writes into a dead-but-valid socket instead of
/// a recycled descriptor.
struct Conn {
  explicit Conn(int Fd) : Fd(Fd) {}
  ~Conn() { ::close(Fd); }
  const int Fd;
  std::mutex WriteMu;
  uint64_t Requests = 0; ///< reader-thread only
  /// Idle-timeout bookkeeping: last byte received or response written, and
  /// how many of this connection's requests are queued or executing (an
  /// idle timer never fires under an in-flight request).
  std::atomic<uint64_t> LastActiveMs{0};
  std::atomic<int64_t> InFlight{0};
};

/// What a session is built from: resolved from a create request, and kept
/// so a reaped session can be rebuilt from its spill.
struct SessionParams {
  SimKind Kind = SimKind::Functional;
  workload::WorkloadSpec Spec;
  uint64_t OuterIters = 2;
  rt::Simulation::Options SimOpts;
  uint64_t StepDelayUs = 0; ///< test knob: sleep per executed chunk

  /// One pooled SharedProgram per (sim, workload shape, length).
  std::string poolKey() const {
    return strFormat("%s|%s|%llu|%u|%u", simKindName(Kind), Spec.Name.c_str(),
                     static_cast<unsigned long long>(OuterIters),
                     Spec.DataKWords, Spec.NumKernels);
  }
};

/// One live session: a private simulation plus a reference keeping its
/// pooled SharedProgram alive.
struct Session {
  uint64_t Id = 0;
  SessionParams P;
  std::shared_ptr<const rt::SharedProgram> Shared;
  std::unique_ptr<FacileSim> Sim;
  std::unique_ptr<inject::FaultInjector> Injector; ///< after Sim: refs it
  std::mutex Mu;       ///< per-session serialization: one verb at a time
  uint64_t Verbs = 0;  ///< verbs serviced (under Mu)
  std::string ResumeToken; ///< create + this token restores a reaped session

  std::atomic<uint64_t> LastVerbMs{0}; ///< TTL / LRU recency
  /// Under Mu: removed from the table by destroy or the reaper.
  bool Detached = false;

  /// Request-id dedup of the last completed mutating verb: an identical
  /// retry replays the stored response instead of re-executing.
  std::string LastCompletedId; ///< under Mu; requestIdKey form
  std::string LastResponse;    ///< under Mu

  /// The session's stats group as of its last finished verb, so the stats
  /// verb never waits behind a verb in flight: rendered by publishStats()
  /// under Mu (or before the session is published), read under StatsMu.
  std::mutex StatsMu;
  telemetry::MetricRecording Stats; ///< under StatsMu
  bool StatsFaulted = false;        ///< under StatsMu

  void publishStats() {
    telemetry::MetricRecording R;
    const rt::Simulation &Sim = this->Sim->sim();
    R.text("sim", simKindName(P.Kind));
    R.text("workload", P.Spec.Name);
    R.counter("verbs", Verbs);
    R.counter("steps", Sim.stats().Steps);
    R.counter("fast_steps", Sim.stats().FastSteps);
    R.counter("chained_steps", Sim.chainedSteps());
    R.counter("retired", Sim.stats().RetiredTotal);
    R.counter("cycles", Sim.stats().Cycles);
    R.counter("faults", Sim.stats().Faults);
    R.beginGroup("admission");
    Sim.exportAdmissionMetrics(R);
    R.endGroup();
    R.flag("store_attached", static_cast<bool>(this->Sim->storeMapping()));
    if (this->Sim->storeMapping()) {
      R.counter("store_generation", this->Sim->storeMapping()->generation());
      R.counter("base_bytes", static_cast<uint64_t>(Sim.cache().baseBytes()));
    }
    R.counter("overlay_bytes",
              static_cast<uint64_t>(Sim.cache().overlayBytes()));
    R.flag("halted", Sim.halted());
    R.flag("faulted", Sim.faulted());
    if (Sim.faulted())
      R.text("fault_kind", rt::faultKindName(Sim.fault().Kind));
    if (Injector)
      R.counter("injected_faults", Injector->counters().total());
    std::lock_guard<std::mutex> Lock(StatsMu);
    std::swap(Stats, R);
    StatsFaulted = Sim.faulted();
  }
};

struct Work {
  std::shared_ptr<Conn> C;
  std::string Line;
};

/// A reaped session's warm state, restorable by create + resume_token.
struct Spilled {
  SessionParams P;
  std::vector<uint8_t> Checkpoint; ///< checkpoint container
  std::vector<uint8_t> CacheBytes; ///< cache image container (memoizing)
  uint64_t Seq = 0;                ///< spill order, oldest dropped first

  size_t bytes() const { return Checkpoint.size() + CacheBytes.size(); }
};

/// One validated request on its way into a verb body.
struct Call {
  const json::Value *Id = nullptr;
  Args A;
  Session *S = nullptr; ///< session verbs: the target, locked
};

} // namespace

struct FacileServer::Impl {
  explicit Impl(ServerOptions O) : Opts(std::move(O)) {
    if (!Opts.CacheStorePath.empty())
      StoreDir = std::make_unique<store::CacheStoreDir>(Opts.CacheStorePath);
  }
  ~Impl() {
    for (int Fd : WakeFds)
      if (Fd >= 0)
        ::close(Fd);
  }

  const ServerOptions Opts;

  /// Shared action-cache store (null unless CacheStorePath is set). The
  /// CacheStoreDir dedupes mappings process-wide, so 64 sessions over one
  /// compatible cache share a single read-only mapping.
  std::unique_ptr<store::CacheStoreDir> StoreDir;

  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::atomic<bool> Started{false};
  std::atomic<bool> Stop{false};
  /// Self-pipe: requestShutdown writes one byte so the acceptor's poll
  /// returns at once rather than at its timeout. Closed by ~Impl, after
  /// every thread that could call requestShutdown is gone.
  int WakeFds[2] = {-1, -1};
  bool AddressInUse = false; ///< set by a failed unix-socket start()

  // Drain state machine (see reaperLoop): requestDrain() only sets the
  // flag — async-signal-safe — and the housekeeping thread advances
  // Requested -> Draining -> promoted -> Stop.
  std::atomic<bool> DrainRequested{false};
  std::atomic<bool> Draining{false};
  uint64_t DrainStartMs = 0; ///< reaper thread only
  std::atomic<uint64_t> DrainDurationMs{0};
  std::atomic<uint64_t> DrainPromoted{0};
  std::atomic<uint64_t> DrainSkipped{0};

  std::thread AcceptThread;
  std::thread ReaperThread;
  std::vector<std::thread> Workers;
  // Reader threads: live ones by key; an exiting reader moves its own
  // thread to ExitedReaders, which the acceptor joins, so a finished
  // connection's stack is released while the daemon runs.
  std::mutex ConnThreadsMu;
  std::map<uint64_t, std::thread> ConnThreads;
  std::vector<std::thread> ExitedReaders;
  uint64_t LastReaderKey = 0; ///< acceptor only
  std::mutex JoinMu;
  bool Joined = false;

  std::mutex StopMu;
  std::condition_variable StopCv;

  // Work queue (readers produce, the fixed pool consumes). Bounded by
  // Opts.MaxQueueDepth at admission; QueueDepthHist records the depth seen
  // by every accepted request (guarded by QueueMu like the deque).
  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<Work> Queue;
  telemetry::Histogram QueueDepthHist;
  std::atomic<uint64_t> InFlight{0}; ///< requests being executed right now

  // Spilled (reaped) sessions, by resume token.
  std::mutex SpillMu;
  std::map<std::string, Spilled> Spills;
  size_t SpillBytes = 0; ///< under SpillMu
  uint64_t SpillSeq = 0; ///< under SpillMu

  // Request service-time distribution (worker-side, microseconds).
  std::mutex HistMu;
  telemetry::Histogram ServiceUsHist;

  // Session table and SharedProgram pool.
  mutable std::mutex SessionsMu;
  std::map<uint64_t, std::shared_ptr<Session>> Sessions;
  uint64_t LastSessionId = 0;                ///< under SessionsMu
  std::atomic<uint64_t> PeakSessions{0};     ///< written under SessionsMu
  std::mutex PoolMu;
  std::map<std::string, std::shared_ptr<const rt::SharedProgram>> Pool;

  // Daemon counters.
  std::atomic<uint64_t> ConnectionsTotal{0};
  std::atomic<uint64_t> ActiveConnections{0};
  std::atomic<uint64_t> RequestsTotal{0};
  std::atomic<uint64_t> ResponsesTotal{0};
  std::atomic<uint64_t> ProtocolErrors{0};
  std::atomic<uint64_t> SessionsCreated{0};
  std::atomic<uint64_t> SessionsDestroyed{0};

  // Resilience counters.
  std::atomic<uint64_t> AdmissionRejects{0};
  std::atomic<uint64_t> DeadlineFaults{0};
  std::atomic<uint64_t> DedupedRequests{0};
  std::atomic<uint64_t> IdleClosedConns{0};
  std::atomic<uint64_t> ReapedSessions{0};
  std::atomic<uint64_t> ResumedSessions{0};
  std::atomic<uint64_t> SpillsDropped{0};
  std::atomic<uint64_t> OverlaysEvicted{0};
  std::atomic<uint64_t> StoreGcUnlinked{0};

  bool start(std::string *Err);
  void acceptLoop();
  void readerLoop(std::shared_ptr<Conn> C);
  void retireReader(uint64_t Key);
  void joinReaders(bool All);
  void workerLoop();
  void reaperLoop();
  void reapIdleSessions(uint64_t Now);
  void boundOverlayBytes();
  void promoteDirtyOverlays();
  void dropSpillOverBudget(); ///< call with SpillMu held
  void requestShutdown();
  void joinAll();

  void respond(Conn &C, std::string Line);
  void processLine(Conn &C, const std::string &Line);

  std::shared_ptr<Session> findSession(uint64_t Id);
  std::vector<std::shared_ptr<Session>> liveSessions();
  std::shared_ptr<Session> buildSession(const SessionParams &P,
                                        bool *PoolHit);
  bool publish(const std::shared_ptr<Session> &S);
  template <typename BodyT> void withDeadline(const Call &C, BodyT Body);

  // Every verb body builds and returns one complete response line (no
  // trailing newline) instead of writing to the connection itself; that is
  // what lets the batch verb collect sub-replies into one envelope.
  std::string errorLine(const json::Value *Id, const char *Code,
                        std::string_view Msg, uint64_t RetryAfterMs = 0);
  std::string sessionLimitLine(const json::Value *Id);
  std::string dispatch(const json::Value &Req, bool InBatch);
  std::string verbPing(const Call &C);
  std::string verbStats(const Call &C);
  std::string verbShutdown(const Call &C);
  std::string verbBatch(const Call &C);
  std::string verbCreate(const Call &C);
  std::string resumeSession(const std::string &Token, const json::Value *Id);
  std::string verbStep(const Call &C);
  std::string verbRun(const Call &C);
  std::string verbInspect(const Call &C);
  std::string verbClearFault(const Call &C);
  std::string verbSnapshotSave(const Call &C);
  std::string verbSnapshotLoad(const Call &C);
  std::string verbDestroy(const Call &C);

  /// One verb: its wire declaration and its body.
  struct VerbSpec : VerbSchema {
    std::string (Impl::*Run)(const Call &);
  };
  static const VerbSpec Verbs[];

  std::string statsJson();
};

/// The verb table: every verb, declared once. The validator checks a
/// request against its entry's fields before the body runs.
const FacileServer::Impl::VerbSpec FacileServer::Impl::Verbs[] = {
    // {{name, session-scoped, mutating, read-only, fields}, body}
    {{"ping", false, false, true, {}}, &Impl::verbPing},
    {{"create", false, false, false, CreateFields}, &Impl::verbCreate},
    {{"stats", false, false, true, {}}, &Impl::verbStats},
    {{"shutdown", false, false, false, {}}, &Impl::verbShutdown},
    {{"batch", false, false, false, BatchFields}, &Impl::verbBatch},
    {{"step", true, true, false, StepFields}, &Impl::verbStep},
    {{"run", true, true, false, RunFields}, &Impl::verbRun},
    {{"inspect", true, false, true, InspectFields}, &Impl::verbInspect},
    {{"clear-fault", true, true, false, ClearFaultFields},
     &Impl::verbClearFault},
    {{"snapshot-save", true, false, true, SnapshotSaveFields},
     &Impl::verbSnapshotSave},
    {{"snapshot-load", true, true, false, SnapshotLoadFields},
     &Impl::verbSnapshotLoad},
    {{"destroy", true, false, false, SessionOnly}, &Impl::verbDestroy},
};

//===----------------------------------------------------------------------===//
// Lifecycle: sockets and threads
//===----------------------------------------------------------------------===//

bool FacileServer::Impl::start(std::string *Err) {
  auto fail = [&](const char *What) {
    if (Err)
      *Err = std::string(What) + ": " + std::strerror(errno);
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    return false;
  };

  if (!Opts.UnixPath.empty()) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Opts.UnixPath.size() >= sizeof(Addr.sun_path)) {
      if (Err)
        *Err = "unix socket path too long";
      return false;
    }
    std::strncpy(Addr.sun_path, Opts.UnixPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return fail("socket");
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0) {
      if (errno != EADDRINUSE)
        return fail("bind");
      // The path exists. Probe-connect to tell a live daemon apart from a
      // socket file left behind by a crashed one: only a listener accepts
      // the connection (EAGAIN on a full backlog still means listener).
      int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      int ProbeRc = -1;
      if (Probe >= 0) {
        ProbeRc = ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr),
                            sizeof(Addr));
        if (ProbeRc < 0 && errno == EAGAIN)
          ProbeRc = 0;
        ::close(Probe);
      }
      if (ProbeRc == 0) {
        AddressInUse = true;
        if (Err)
          *Err = "socket path '" + Opts.UnixPath +
                 "' is in use by a live daemon";
        ::close(ListenFd);
        ListenFd = -1;
        return false;
      }
      // Nobody listening: unlink the stale socket and rebind once.
      ::unlink(Opts.UnixPath.c_str());
      if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
                 sizeof(Addr)) < 0)
        return fail("bind");
    }
  } else {
    ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return fail("socket");
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Opts.TcpPort);
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0)
      return fail("bind");
    sockaddr_in Bound{};
    socklen_t Len = sizeof(Bound);
    if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Bound), &Len) <
        0)
      return fail("getsockname");
    BoundPort = ntohs(Bound.sin_port);
  }
  if (::listen(ListenFd, 128) < 0)
    return fail("listen");

  // Without the pipe the acceptor still stops, at its poll timeout.
  if (::pipe(WakeFds) != 0)
    WakeFds[0] = WakeFds[1] = -1;
  Started = true;
  AcceptThread = std::thread([this] { acceptLoop(); });
  ReaperThread = std::thread([this] { reaperLoop(); });
  unsigned W = Opts.Workers == 0 ? 1 : Opts.Workers;
  for (unsigned I = 0; I != W; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  return true;
}


void FacileServer::Impl::acceptLoop() {
  while (!Stop.load(std::memory_order_acquire)) {
    joinReaders(/*All=*/false);
    pollfd P[2] = {{ListenFd, POLLIN, 0}, {WakeFds[0], POLLIN, 0}};
    int R = ::poll(P, 2, 200);
    if (R <= 0 || !(P[0].revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    if (Draining.load(std::memory_order_acquire)) {
      ::close(Fd); // draining: existing work finishes, new peers bounce
      continue;
    }
    ++ConnectionsTotal;
    ++ActiveConnections;
    auto C = std::make_shared<Conn>(Fd);
    // The reader retires itself under this lock, so it cannot look for its
    // key before the map holds it.
    std::lock_guard<std::mutex> Lock(ConnThreadsMu);
    uint64_t Key = ++LastReaderKey;
    ConnThreads.emplace(Key, std::thread([this, C, Key] {
                          readerLoop(C);
                          retireReader(Key);
                        }));
  }
}

void FacileServer::Impl::retireReader(uint64_t Key) {
  std::lock_guard<std::mutex> Lock(ConnThreadsMu);
  auto It = ConnThreads.find(Key);
  if (It == ConnThreads.end())
    return; // joinAll already holds this thread
  ExitedReaders.push_back(std::move(It->second));
  ConnThreads.erase(It);
}

/// Joins the readers that have exited (each is at most returning), or with
/// \p All every reader, once the acceptor is gone and none can be added.
void FacileServer::Impl::joinReaders(bool All) {
  std::vector<std::thread> Join;
  {
    std::lock_guard<std::mutex> Lock(ConnThreadsMu);
    Join.swap(ExitedReaders);
    if (All) {
      for (auto &E : ConnThreads)
        Join.push_back(std::move(E.second));
      ConnThreads.clear();
    }
  }
  for (std::thread &T : Join)
    T.join();
}

void FacileServer::Impl::readerLoop(std::shared_ptr<Conn> C) {
  std::string Buf;
  char Tmp[1 << 16];
  bool Close = false;
  C->LastActiveMs.store(nowMs(), std::memory_order_relaxed);
  while (!Close && !Stop.load(std::memory_order_acquire)) {
    pollfd P{C->Fd, POLLIN, 0};
    int R = ::poll(&P, 1, 200);
    if (R <= 0) {
      // Slowloris guard: a connection with no received bytes and nothing
      // queued or executing for the idle window is told why and closed. A
      // long-running request keeps InFlight high, so it never trips this.
      if (Opts.ConnIdleTimeoutMs != 0 &&
          C->InFlight.load(std::memory_order_acquire) == 0 &&
          nowMs() - C->LastActiveMs.load(std::memory_order_relaxed) >
              Opts.ConnIdleTimeoutMs) {
        ++IdleClosedConns;
        respond(*C, errorResponse(nullptr, ErrCode::IdleTimeout,
                                  "connection idle timeout"));
        break;
      }
      continue;
    }
    if (!(P.revents & (POLLIN | POLLHUP)))
      continue;
    ssize_t N = ::recv(C->Fd, Tmp, sizeof(Tmp), 0);
    if (N <= 0)
      break; // EOF (a truncated in-flight request is silently discarded)
    C->LastActiveMs.store(nowMs(), std::memory_order_relaxed);
    Buf.append(Tmp, static_cast<size_t>(N));
    size_t Pos;
    while (!Close && (Pos = Buf.find('\n')) != std::string::npos) {
      std::string Line = Buf.substr(0, Pos);
      Buf.erase(0, Pos + 1);
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (Line.empty())
        continue;
      if (Line.size() > Opts.MaxLineBytes) {
        respond(*C, errorLine(nullptr, ErrCode::Oversized,
                              "request exceeds line-size limit"));
        Close = true;
        break;
      }
      if (++C->Requests > Opts.MaxRequestsPerConn) {
        respond(*C, errorLine(nullptr, ErrCode::RequestLimit,
                              "per-connection request limit reached"));
        Close = true;
        break;
      }
      ++RequestsTotal;
      if (Draining.load(std::memory_order_acquire)) {
        json::Value IdOwner;
        respond(*C, errorLine(lineRequestId(Line, IdOwner),
                              ErrCode::ShuttingDown, "server is draining"));
        continue;
      }
      // Admission control: a full queue rejects instead of buffering
      // unboundedly. InFlight rises before the push so the idle timer
      // can never fire under a queued request.
      C->InFlight.fetch_add(1, std::memory_order_acq_rel);
      bool Enqueued = false;
      {
        std::lock_guard<std::mutex> Lock(QueueMu);
        if (Queue.size() < Opts.MaxQueueDepth) {
          Queue.push_back(Work{C, std::move(Line)});
          QueueDepthHist.record(Queue.size());
          Enqueued = true;
        }
      }
      if (Enqueued) {
        QueueCv.notify_one();
        continue;
      }
      C->InFlight.fetch_sub(1, std::memory_order_acq_rel);
      ++AdmissionRejects;
      // The hint grows with how much backlog each worker would have to
      // clear first, capped at 2 s.
      uint64_t Hint = std::min<uint64_t>(
          2000, static_cast<uint64_t>(Opts.RetryAfterMs) *
                    std::max<uint64_t>(1, Opts.MaxQueueDepth /
                                             std::max(1u, Opts.Workers) /
                                             8));
      json::Value IdOwner;
      respond(*C, errorLine(lineRequestId(Line, IdOwner), ErrCode::Overloaded,
                            "worker queue is full", Hint));
    }
    // An unterminated line larger than the limit is rejected without
    // waiting for its newline — the peer may never send one.
    if (!Close && Buf.size() > Opts.MaxLineBytes) {
      respond(*C, errorLine(nullptr, ErrCode::Oversized,
                            "request exceeds line-size limit"));
      Close = true;
    }
  }
  // Stop reading; queued requests may still write responses through the
  // still-open fd (closed by the last Conn reference).
  ::shutdown(C->Fd, SHUT_RD);
  --ActiveConnections;
}

void FacileServer::Impl::workerLoop() {
  for (;;) {
    Work W;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock, [this] {
        return !Queue.empty() || Stop.load(std::memory_order_acquire);
      });
      if (Queue.empty())
        return; // Stop set and nothing left to drain
      W = std::move(Queue.front());
      Queue.pop_front();
      // Under QueueMu, so "queue empty and nothing in flight" is an
      // atomic observation for the drain state machine.
      InFlight.fetch_add(1, std::memory_order_acq_rel);
    }
    uint64_t T0 = nowUs();
    processLine(*W.C, W.Line);
    uint64_t Elapsed = nowUs() - T0;
    {
      std::lock_guard<std::mutex> Lock(HistMu);
      ServiceUsHist.record(Elapsed);
    }
    W.C->InFlight.fetch_sub(1, std::memory_order_acq_rel);
    InFlight.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void FacileServer::Impl::requestShutdown() {
  bool Expected = false;
  if (!Stop.compare_exchange_strong(Expected, true))
    return;
  // Stop is set outside both mutexes. A waiter that tested its predicate
  // under its mutex just before the store has not yet blocked, and would
  // miss a bare notify and sleep forever; taking each mutex once orders
  // the notify after every such waiter is really waiting.
  {
    std::lock_guard<std::mutex> Lock(StopMu);
  }
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
  }
  StopCv.notify_all();
  QueueCv.notify_all();
  if (WakeFds[1] >= 0) {
    char Byte = 0;
    ssize_t Written = ::write(WakeFds[1], &Byte, 1);
    (void)Written; // a full pipe is already readable
  }
}


void FacileServer::Impl::joinAll() {
  std::lock_guard<std::mutex> Lock(JoinMu);
  if (Joined)
    return;
  Joined = true;
  if (AcceptThread.joinable())
    AcceptThread.join();
  if (ReaperThread.joinable())
    ReaperThread.join();
  for (std::thread &T : Workers)
    if (T.joinable())
      T.join();
  joinReaders(/*All=*/true);
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  if (!Opts.UnixPath.empty())
    ::unlink(Opts.UnixPath.c_str());
}

//===----------------------------------------------------------------------===//
// Request dispatch
//===----------------------------------------------------------------------===//

void FacileServer::Impl::respond(Conn &C, std::string Line) {
  Line.push_back('\n');
  std::lock_guard<std::mutex> Lock(C.WriteMu);
  sendAll(C.Fd, Line.data(), Line.size());
  ++ResponsesTotal;
}

std::string FacileServer::Impl::errorLine(const json::Value *Id,
                                          const char *Code,
                                          std::string_view Msg,
                                          uint64_t RetryAfterMs) {
  ++ProtocolErrors;
  return errorResponse(Id, Code, Msg, RetryAfterMs);
}

std::string FacileServer::Impl::sessionLimitLine(const json::Value *Id) {
  return errorLine(Id, ErrCode::SessionLimit,
                   strFormat("session limit (%u) reached", Opts.MaxSessions));
}

std::shared_ptr<Session> FacileServer::Impl::findSession(uint64_t Id) {
  std::lock_guard<std::mutex> Lock(SessionsMu);
  auto It = Sessions.find(Id);
  return It == Sessions.end() ? nullptr : It->second;
}

/// The live session table, copied under SessionsMu: callers lock single
/// sessions afterwards, never while holding the table lock.
std::vector<std::shared_ptr<Session>> FacileServer::Impl::liveSessions() {
  std::lock_guard<std::mutex> Lock(SessionsMu);
  std::vector<std::shared_ptr<Session>> Live;
  Live.reserve(Sessions.size());
  for (const auto &E : Sessions)
    Live.push_back(E.second);
  return Live;
}

void FacileServer::Impl::processLine(Conn &C, const std::string &Line) {
  json::Value Req;
  std::string PErr;
  respond(C, json::parse(Line, Req, PErr, MaxRequestDepth)
                 ? dispatch(Req, /*InBatch=*/false)
                 : errorLine(nullptr, ErrCode::ParseError, PErr));
}

std::string FacileServer::Impl::dispatch(const json::Value &Req,
                                         bool InBatch) {
  if (!Req.isObject())
    return errorLine(nullptr, ErrCode::BadRequest,
                     InBatch ? "batch element must be a request object"
                             : "request must be a JSON object");
  const json::Value *Id = Req.get("id");
  const json::Value *VerbV = Req.get("verb");
  if (!VerbV || !VerbV->isStr())
    return errorLine(Id, ErrCode::BadRequest, "missing 'verb' string");
  const VerbSpec *V = nullptr;
  for (const VerbSpec &E : Verbs)
    if (VerbV->str() == E.Name)
      V = &E;
  if (!V)
    return errorLine(Id, ErrCode::UnknownVerb,
                     strFormat("unknown verb '%s'", VerbV->str().c_str()));
  if (InBatch && !V->SessionScoped)
    return errorLine(Id, ErrCode::BadRequest,
                     strFormat("verb '%s' is not allowed in a batch", V->Name));
  Call C;
  C.Id = Id;
  const char *Code = nullptr;
  std::string Msg;
  if (!C.A.read(V->Fields, Req, Opts, Code, Msg))
    return errorLine(Id, Code, Msg);
  if (!V->SessionScoped)
    return (this->*V->Run)(C);

  std::shared_ptr<Session> S =
      findSession(static_cast<uint64_t>(C.A.num("session")));
  // Per-session serialization: no two verbs on one session concurrently.
  std::unique_lock<std::mutex> Lock;
  if (S)
    Lock = std::unique_lock<std::mutex>(S->Mu);
  // Unknown, destroyed and reaped ids are indistinguishable on purpose: ids
  // are never reused, so a stale handle can only ever fail (a reaped
  // session's resume token is the way back in).
  if (!S || S->Detached)
    return errorLine(Id, ErrCode::UnknownSession,
                     strFormat("no session %lld",
                               static_cast<long long>(C.A.num("session"))));
  S->LastVerbMs.store(nowMs(), std::memory_order_relaxed);
  ++S->Verbs;
  // Whatever the verb did is visible to stats once it returns (this runs
  // before Lock releases Mu).
  struct PublishAtEnd {
    Session &S;
    ~PublishAtEnd() { S.publishStats(); }
  } Publish{*S};
  // Request-id dedup: retrying the last completed mutating verb replays
  // its stored response instead of executing twice — the client retry
  // policy's at-most-once guarantee for step/run rides on this.
  const std::string IdKey = V->Mutating ? requestIdKey(Id) : std::string();
  if (!IdKey.empty() && IdKey == S->LastCompletedId) {
    ++DedupedRequests;
    return S->LastResponse;
  }
  C.S = S.get();
  std::string Reply = (this->*V->Run)(C);
  // The substring probe is sound: '"' never appears unescaped inside a
  // JSON string, so "ok":true can only be the envelope's own member.
  if (!IdKey.empty() && Reply.find("\"ok\":true") != std::string::npos) {
    S->LastCompletedId = IdKey;
    S->LastResponse = Reply;
  }
  return Reply;
}

//===----------------------------------------------------------------------===//
// Verbs
//===----------------------------------------------------------------------===//

std::string FacileServer::Impl::verbPing(const Call &C) {
  json::Writer W;
  beginOkResponse(W, C.Id);
  W.field("server", "facilesimd");
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::verbStats(const Call &C) {
  json::Writer W;
  beginOkResponse(W, C.Id);
  W.rawField("stats", statsJson());
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::verbShutdown(const Call &C) {
  // The worker still writes this reply: shutdown only stops the loops,
  // and the connection's fd lives until its last reference drops.
  requestShutdown();
  json::Writer W;
  beginOkResponse(W, C.Id);
  W.field("shutting_down", true);
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::verbBatch(const Call &C) {
  const std::vector<json::Value> &Reqs = C.A.value("requests").array();
  if (Reqs.size() > MaxBatchRequests)
    return errorLine(
        C.Id, ErrCode::Oversized,
        strFormat("batch exceeds %llu sub-requests",
                  static_cast<unsigned long long>(MaxBatchRequests)));
  json::Writer W;
  beginOkResponse(W, C.Id);
  W.field("count", static_cast<uint64_t>(Reqs.size()));
  W.arrayField("replies");
  // Aggregate reply budget: 256 memory inspects at MaxInspectWords each
  // would otherwise balloon the one response line far past what framing
  // budgets assume. Elements past the budget are skipped *before*
  // executing (never execute-then-drop a mutation's reply); the element
  // whose reply crosses the line is kept, so the overrun is bounded by
  // one element's reply.
  size_t ReplyBytes = 0;
  bool Truncated = false;
  for (const json::Value &Sub : Reqs) {
    // Sub-requests fail independently: a bad element yields its own error
    // object in the replies array and the rest of the batch proceeds.
    std::string Reply =
        Truncated ? errorLine(Sub.get("id"), ErrCode::Oversized,
                              "batch reply budget exhausted")
                  : dispatch(Sub, /*InBatch=*/true);
    ReplyBytes += Reply.size();
    if (!Truncated && ReplyBytes > Opts.MaxBatchReplyBytes)
      Truncated = true;
    W.rawValue(Reply);
  }
  W.endArray();
  W.field("truncated", Truncated);
  W.endObject();
  return W.take();
}

/// A fresh, unpublished session over the pooled program for \p P, building
/// the pool entry on first use; \p PoolHit (optional) says it existed.
std::shared_ptr<Session>
FacileServer::Impl::buildSession(const SessionParams &P, bool *PoolHit) {
  auto S = std::make_shared<Session>();
  {
    // Pool entries are never pruned, so a resume is a hit whenever the
    // original create happened in this process.
    std::lock_guard<std::mutex> Lock(PoolMu);
    std::shared_ptr<const rt::SharedProgram> &Slot = Pool[P.poolKey()];
    if (PoolHit)
      *PoolHit = Slot != nullptr;
    if (!Slot)
      Slot = std::make_shared<const rt::SharedProgram>(
          sims::simulatorProgram(P.Kind),
          workload::generate(P.Spec, P.OuterIters));
    S->Shared = Slot;
  }
  S->P = P;
  S->Sim = std::make_unique<FacileSim>(P.Kind, *S->Shared, P.SimOpts);
  S->LastVerbMs.store(nowMs(), std::memory_order_relaxed);
  return S;
}

/// Enters \p S into the session table under a fresh id; false when the
/// table is full.
bool FacileServer::Impl::publish(const std::shared_ptr<Session> &S) {
  S->publishStats();
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    if (Sessions.size() >= Opts.MaxSessions)
      return false;
    S->Id = ++LastSessionId;
    // Tokens only need to be unguessed by accident, not by an adversary —
    // the daemon trusts its socket. Uniqueness comes from the session id.
    // Set before the session becomes visible: the reaper reads it.
    if (S->ResumeToken.empty())
      S->ResumeToken = strFormat("rt-%llu-%llx",
                                 static_cast<unsigned long long>(S->Id),
                                 static_cast<unsigned long long>(nowUs()));
    Sessions.emplace(S->Id, S);
    if (Sessions.size() > PeakSessions.load(std::memory_order_relaxed))
      PeakSessions.store(Sessions.size(), std::memory_order_relaxed);
  }
  ++SessionsCreated;
  return true;
}

std::string FacileServer::Impl::verbCreate(const Call &C) {
  const Args &A = C.A;
  if (Stop.load(std::memory_order_acquire))
    return errorLine(C.Id, ErrCode::ShuttingDown, "server is shutting down");
  if (A.has("resume_token"))
    return resumeSession(std::string(A.str("resume_token")), C.Id);
  {
    // Cheap early reject; re-checked at publish, but a full table should
    // not cost a workload build first.
    std::lock_guard<std::mutex> Lock(SessionsMu);
    if (Sessions.size() >= Opts.MaxSessions)
      return sessionLimitLine(C.Id);
  }
  SessionParams P;
  parseSimKind(A.str("sim"), P.Kind);
  const workload::WorkloadSpec *Found =
      workload::findSpec(std::string(A.str("workload")));
  if (!Found)
    return errorLine(C.Id, ErrCode::BadRequest,
                     "unknown workload '" + std::string(A.str("workload")) +
                         "'");
  P.Spec = *Found;
  if (A.has("data_kwords"))
    P.Spec.DataKWords = static_cast<unsigned>(A.num("data_kwords"));
  if (A.has("num_kernels"))
    P.Spec.NumKernels = static_cast<unsigned>(A.num("num_kernels"));
  P.OuterIters = static_cast<uint64_t>(A.num("outer_iters"));
  P.StepDelayUs = static_cast<uint64_t>(A.num("options.step_delay_us"));
  // Absent options keep the daemon's defaults.
  P.SimOpts = Opts.DefaultSimOptions;
  if (A.has("options.memoize"))
    P.SimOpts.Memoize = A.flag("options.memoize");
  if (A.has("options.cache_budget_mb"))
    P.SimOpts.CacheBudgetBytes =
        static_cast<size_t>(A.num("options.cache_budget_mb")) << 20;
  if (A.has("options.mem_budget_mb"))
    P.SimOpts.MemPageBudget =
        (static_cast<size_t>(A.num("options.mem_budget_mb")) << 20) >>
        TargetMemory::PageBits;
  if (A.has("options.max_steps"))
    P.SimOpts.StepLimit = static_cast<uint64_t>(A.num("options.max_steps"));
  if (A.has("backend"))
    rt::parseBackendKind(std::string(A.str("backend")), P.SimOpts.Backend);
  inject::InjectSpec InjSpec;
  std::string SpecErr;
  if (A.has("fault_inject") &&
      !inject::InjectSpec::parse(std::string(A.str("fault_inject")), InjSpec,
                                 SpecErr))
    return errorLine(C.Id, ErrCode::BadRequest,
                     "bad 'fault_inject' spec: " + SpecErr);

  bool PoolHit = false;
  std::shared_ptr<Session> S = buildSession(P, &PoolHit);
  // Attach the shared cache base before the first step. A miss keeps the
  // session cold; a rejected file is diagnosed in the harness's snapshot
  // stats but is likewise not a create error.
  const bool StoreAttached =
      StoreDir && P.SimOpts.Memoize && S->Sim->attachStore(*StoreDir);
  if (A.has("fault_inject")) {
    S->Injector =
        std::make_unique<inject::FaultInjector>(S->Sim->sim(), InjSpec);
    S->Injector->arm();
  }
  if (!publish(S))
    return sessionLimitLine(C.Id);

  json::Writer W;
  beginOkResponse(W, C.Id);
  W.field("session", S->Id);
  W.field("sim", std::string_view(simKindName(P.Kind)));
  W.field("workload", std::string_view(P.Spec.Name));
  // The *resolved* backend ("interpret" or "jit", never "auto"): what the
  // session actually runs after host-capability resolution.
  W.field("backend", std::string_view(S->Sim->sim().backendName()));
  W.field("resume_token", std::string_view(S->ResumeToken));
  W.field("compat_key",
          strFormat("%016llx", static_cast<unsigned long long>(
                                   S->Sim->sim().compatKey())));
  W.field("shared_program", PoolHit);
  W.field("store_attached", StoreAttached);
  if (StoreAttached)
    W.field("store_generation", S->Sim->storeMapping()->generation());
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::resumeSession(const std::string &Token,
                                              const json::Value *Id) {
  Spilled Sp;
  {
    std::lock_guard<std::mutex> Lock(SpillMu);
    auto It = Spills.find(Token);
    if (It == Spills.end())
      return errorLine(Id, ErrCode::UnknownToken,
                       "resume token names no spilled session");
    Sp = std::move(It->second);
    SpillBytes -= Sp.bytes();
    Spills.erase(It);
  }
  // Every refusal puts the spill back, so a later resume can still
  // succeed (a full session table is the common case).
  auto refuse = [&](std::string Line) {
    std::lock_guard<std::mutex> Lock(SpillMu);
    SpillBytes += Sp.bytes();
    Spills.emplace(Token, std::move(Sp));
    dropSpillOverBudget();
    return Line;
  };
  std::shared_ptr<Session> S = buildSession(Sp.P, nullptr);
  S->ResumeToken = Token;
  // The spilled cache supersedes the store's shared base: it holds the
  // base's entries plus whatever the session recorded before reaping, so
  // no attachStore here. Fault injectors are not restored — injection is
  // a test harness feature, re-arm by creating afresh.
  std::string LoadErr;
  if (!S->Sim->loadCheckpointBytes(Sp.Checkpoint, &LoadErr))
    return refuse(errorLine(Id, ErrCode::Internal,
                            "spilled checkpoint failed to restore: " +
                                LoadErr));
  if (!Sp.CacheBytes.empty() &&
      !S->Sim->loadCacheBytes(Sp.CacheBytes, &LoadErr))
    return refuse(errorLine(Id, ErrCode::Internal,
                            "spilled cache failed to restore: " + LoadErr));
  if (!publish(S))
    return refuse(sessionLimitLine(Id));
  ++ResumedSessions;

  json::Writer W;
  beginOkResponse(W, Id);
  W.field("session", S->Id);
  W.field("sim", std::string_view(simKindName(Sp.P.Kind)));
  W.field("workload", std::string_view(Sp.P.Spec.Name));
  W.field("resume_token", std::string_view(S->ResumeToken));
  W.field("resumed", true);
  W.field("steps_total", S->Sim->sim().stats().Steps);
  W.endObject();
  return W.take();
}

namespace {

/// Appends the common post-execution members: status, halt/fault state and
/// headline counters.
void writeRunState(json::Writer &W, const FacileSim &Sim) {
  const rt::Simulation &S = Sim.sim();
  const char *Status = S.faulted() ? "faulted" : S.halted() ? "halted"
                                                            : "limit";
  W.field("status", std::string_view(Status));
  W.field("halted", S.halted());
  W.field("faulted", S.faulted());
  W.field("steps_total", S.stats().Steps);
  W.field("retired_total", S.stats().RetiredTotal);
  W.field("cycles", S.stats().Cycles);
  if (S.faulted())
    writeFault(W, S.fault());
}

} // namespace

/// Runs \p Body(Sim) under the request's deadline ("deadline_ms", else the
/// daemon default; 0 disables) and counts a deadline fault it raises. The
/// hook is consulted inside step() every DeadlineCheckPeriod steps, so the
/// deadline binds within a chunk, not only between chunks.
template <typename BodyT>
void FacileServer::Impl::withDeadline(const Call &C, BodyT Body) {
  rt::Simulation &Sim = C.S->Sim->sim();
  const bool WasFaulted = Sim.faulted();
  const uint64_t Ms = C.A.has("deadline_ms")
                          ? static_cast<uint64_t>(C.A.num("deadline_ms"))
                          : Opts.DefaultDeadlineMs;
  const uint64_t DeadlineAt = Ms == 0 ? 0 : nowMs() + Ms;
  if (DeadlineAt)
    Sim.setDeadlineHook([DeadlineAt] { return nowMs() >= DeadlineAt; });
  Body(Sim);
  if (DeadlineAt)
    Sim.setDeadlineHook(nullptr);
  if (!WasFaulted && Sim.faulted() &&
      Sim.fault().Kind == rt::FaultKind::DeadlineExceeded)
    ++DeadlineFaults;
}

std::string FacileServer::Impl::verbStep(const Call &C) {
  const Session &S = *C.S;
  const uint64_t Count = static_cast<uint64_t>(C.A.num("count"));
  uint64_t Slow = 0, Fast = 0, Recovered = 0, Ran = 0;
  withDeadline(C, [&](rt::Simulation &Sim) {
    const uint64_t StepsBefore = Sim.stats().Steps;
    // A Faulted result ends the loop. The watchdog and the deadline fault
    // before the step runs, so only the step counter says what ran.
    for (uint64_t Tried = 1;
         Tried <= Count && !Sim.halted() && !Sim.faulted(); ++Tried) {
      switch (Sim.step()) {
      case rt::StepEngine::Slow:
        ++Slow;
        break;
      case rt::StepEngine::Fast:
        ++Fast;
        break;
      case rt::StepEngine::FastThenSlow:
        ++Recovered;
        break;
      case rt::StepEngine::Faulted:
        break;
      }
      if (S.P.StepDelayUs && (Tried & 63) == 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(S.P.StepDelayUs));
      if (S.Injector && (Tried & 255) == 0)
        S.Injector->inject();
    }
    Ran = Sim.stats().Steps - StepsBefore;
  });
  json::Writer W;
  beginOkResponse(W, C.Id);
  W.field("steps", Ran);
  W.objectField("engines")
      .field("slow", Slow)
      .field("fast", Fast)
      .field("recovered", Recovered)
      .endObject();
  writeRunState(W, *S.Sim);
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::verbRun(const Call &C) {
  const Session &S = *C.S;
  const uint64_t MaxSteps = static_cast<uint64_t>(C.A.num("steps"));
  const uint64_t InstrTarget = static_cast<uint64_t>(C.A.num("instrs"));
  uint64_t Ran = 0;
  withDeadline(C, [&](rt::Simulation &Sim) {
    while (Ran < MaxSteps && !Sim.halted() && !Sim.faulted() &&
           (InstrTarget == 0 || Sim.stats().RetiredTotal < InstrTarget)) {
      rt::RunResult R = Sim.run(std::min<uint64_t>(256, MaxSteps - Ran));
      Ran += R.Steps;
      if (R.Steps == 0)
        break; // already halted/faulted; avoid spinning
      if (S.P.StepDelayUs)
        std::this_thread::sleep_for(
            std::chrono::microseconds(S.P.StepDelayUs));
      if (S.Injector)
        S.Injector->inject();
    }
  });
  json::Writer W;
  beginOkResponse(W, C.Id);
  W.field("steps", Ran);
  writeRunState(W, *S.Sim);
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::verbInspect(const Call &C) {
  const Session &S = *C.S;
  const std::string_view What = C.A.str("what");
  json::Writer W;
  if (What == "stats") {
    beginOkResponse(W, C.Id);
    W.rawField("stats", S.Sim->statsJson());
  } else if (What == "digest") {
    beginOkResponse(W, C.Id);
    W.field("digest",
            strFormat("%016llx", static_cast<unsigned long long>(
                                     S.Sim->sim().memory().digest())));
  } else if (What == "global") {
    const std::string Name(C.A.str("name"));
    int64_t Value = 0;
    if (!C.A.has("name") || !S.Sim->sim().tryGetGlobal(Name, Value))
      return errorLine(C.Id, ErrCode::BadRequest,
                       "'name' must name a scalar global");
    beginOkResponse(W, C.Id);
    W.field("name", std::string_view(Name));
    W.field("value", Value);
  } else if (What == "registers") {
    const ir::GlobalVar *R = S.Shared->program().findGlobal("R");
    if (!R || !R->IsArray)
      return errorLine(C.Id, ErrCode::BadRequest,
                       "program has no register file array 'R'");
    beginOkResponse(W, C.Id);
    W.arrayField("registers");
    for (uint32_t I = 0; I != R->Size; ++I)
      W.value(S.Sim->sim().getGlobalElem("R", I));
    W.endArray();
  } else { // memory
    if (!C.A.has("addr"))
      return errorLine(C.Id, ErrCode::BadRequest,
                       "what=memory needs 'addr'");
    const uint32_t Addr = static_cast<uint32_t>(C.A.num("addr"));
    const uint64_t Words = static_cast<uint64_t>(C.A.num("words"));
    beginOkResponse(W, C.Id);
    W.field("addr", static_cast<uint64_t>(Addr));
    W.arrayField("values");
    for (uint64_t I = 0; I != Words; ++I)
      W.value(static_cast<uint64_t>(
          S.Sim->sim().memory().read32(Addr + static_cast<uint32_t>(I) * 4)));
    W.endArray();
  }
  writeRunState(W, *S.Sim);
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::verbClearFault(const Call &C) {
  // The validator refused a bad limit before anything changed: the fault
  // and the old limit both stay.
  rt::Simulation &Sim = C.S->Sim->sim();
  const bool Was = Sim.faulted();
  Sim.clearFault();
  if (C.A.has("max_steps"))
    Sim.setStepLimit(static_cast<uint64_t>(C.A.num("max_steps")));
  json::Writer W;
  beginOkResponse(W, C.Id);
  W.field("cleared", Was);
  W.field("faulted", Sim.faulted());
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::verbSnapshotSave(const Call &C) {
  const bool Checkpoint = C.A.str("kind") == "checkpoint";
  const std::vector<uint8_t> Bytes =
      Checkpoint ? C.S->Sim->checkpointBytes() : C.S->Sim->cacheBytes();
  json::Writer W;
  beginOkResponse(W, C.Id);
  W.field("kind", C.A.str("kind"));
  W.field("format", snapshot::Magic);
  W.field("size", static_cast<uint64_t>(Bytes.size()));
  W.field("bytes_b64", base64Encode(Bytes));
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::verbSnapshotLoad(const Call &C) {
  std::vector<uint8_t> Bytes;
  if (!base64Decode(C.A.str("bytes_b64"), Bytes))
    return errorLine(C.Id, ErrCode::BadRequest,
                     "'bytes_b64' must be valid base64");
  std::string LoadErr;
  const bool Ok = C.A.str("kind") == "checkpoint"
                      ? C.S->Sim->loadCheckpointBytes(Bytes, &LoadErr)
                      : C.S->Sim->loadCacheBytes(Bytes, &LoadErr);
  // Rejected payloads leave the session exactly as it was (the loaders
  // are all-or-nothing), so this is an error response, not a fault.
  if (!Ok)
    return errorLine(C.Id, ErrCode::BadSnapshot, LoadErr);
  json::Writer W;
  beginOkResponse(W, C.Id);
  W.field("kind", C.A.str("kind"));
  W.field("loaded", true);
  writeRunState(W, *C.S->Sim);
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::verbDestroy(const Call &C) {
  // Under the session lock, so a verb in flight finishes first; the object
  // dies when the dispatcher drops the last reference.
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    Sessions.erase(C.S->Id);
  }
  C.S->Detached = true;
  ++SessionsDestroyed;
  json::Writer W;
  beginOkResponse(W, C.Id);
  W.field("destroyed", C.S->Id);
  W.endObject();
  return W.take();
}

//===----------------------------------------------------------------------===//
// Housekeeping: drain state machine, TTL reap, overlay bound, store GC
//===----------------------------------------------------------------------===//

void FacileServer::Impl::reaperLoop() {
  uint64_t LastGcMs = nowMs();
  [[maybe_unused]] uint64_t TrimmedAt = 0; ///< sessions gone at the last trim
  while (!Stop.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> Lock(StopMu);
      StopCv.wait_for(Lock, std::chrono::milliseconds(Opts.ReaperPeriodMs),
                      [this] { return Stop.load(std::memory_order_acquire); });
    }
    if (Stop.load(std::memory_order_acquire))
      break;
    uint64_t Now = nowMs();

    // Drain: Requested -> Draining (readers and the acceptor start
    // refusing) -> queue and in-flight work finish (bounded by the drain
    // deadline) -> dirty overlays promoted -> Stop. requestDrain() itself
    // only set one atomic, so it is safe from a signal handler.
    if (DrainRequested.load(std::memory_order_acquire) &&
        !Draining.load(std::memory_order_acquire)) {
      DrainStartMs = Now;
      Draining.store(true, std::memory_order_release);
    }
    if (Draining.load(std::memory_order_acquire)) {
      bool Idle;
      {
        std::lock_guard<std::mutex> Lock(QueueMu);
        Idle = Queue.empty() && InFlight.load(std::memory_order_acquire) == 0;
      }
      if (Idle || Now - DrainStartMs >= Opts.DrainDeadlineMs) {
        promoteDirtyOverlays();
        DrainDurationMs.store(nowMs() - DrainStartMs,
                              std::memory_order_release);
        requestShutdown();
      }
      continue; // no TTL/GC churn while draining
    }

#ifdef __GLIBC__
    // A destroyed session's memory stays resident in the malloc arena of
    // whichever worker ran it, where another worker's sessions cannot
    // reuse it; give it back to the system once per period in which a
    // session was destroyed (serve-store peak RSS ~151 -> ~126 MB).
    if (const uint64_t D = SessionsDestroyed.load() + ReapedSessions.load();
        D != TrimmedAt) {
      TrimmedAt = D;
      malloc_trim(0);
    }
#endif
    if (Opts.SessionIdleTtlMs != 0)
      reapIdleSessions(Now);
    if (Opts.MaxOverlayBytes != 0)
      boundOverlayBytes();
    if (Opts.StoreGcKeep != 0 && StoreDir && Now - LastGcMs >= 5000) {
      LastGcMs = Now;
      StoreGcUnlinked += StoreDir->gc(static_cast<size_t>(Opts.StoreGcKeep));
    }
  }
}

void FacileServer::Impl::reapIdleSessions(uint64_t Now) {
  std::vector<std::shared_ptr<Session>> Live = liveSessions();
  for (const std::shared_ptr<Session> &S : Live) {
    if (Now - S->LastVerbMs.load(std::memory_order_relaxed) <
        Opts.SessionIdleTtlMs)
      continue;
    // try_lock: a session mid-verb is busy, not idle.
    std::unique_lock<std::mutex> SLock(S->Mu, std::try_to_lock);
    if (!SLock.owns_lock())
      continue;
    if (S->Detached || Now - S->LastVerbMs.load(std::memory_order_relaxed) <
                           Opts.SessionIdleTtlMs)
      continue; // a verb finished between the scan and the lock
    // Detach from the table first so no new lookup finds it; a worker
    // already holding a shared_ptr re-checks Detached under Mu.
    {
      std::lock_guard<std::mutex> TLock(SessionsMu);
      Sessions.erase(S->Id);
    }
    S->Detached = true;
    Spilled Sp;
    Sp.P = S->P;
    Sp.Checkpoint = S->Sim->checkpointBytes();
    if (S->P.SimOpts.Memoize)
      Sp.CacheBytes = S->Sim->cacheBytes();
    {
      std::lock_guard<std::mutex> Lock(SpillMu);
      Sp.Seq = ++SpillSeq;
      SpillBytes += Sp.bytes();
      Spills[S->ResumeToken] = std::move(Sp);
      dropSpillOverBudget();
    }
    ++ReapedSessions;
    ++SessionsDestroyed;
  }
}

void FacileServer::Impl::dropSpillOverBudget() {
  while (SpillBytes > Opts.MaxSpillBytes && !Spills.empty()) {
    auto Oldest = Spills.begin();
    for (auto It = std::next(Spills.begin()); It != Spills.end(); ++It)
      if (It->second.Seq < Oldest->second.Seq)
        Oldest = It;
    SpillBytes -= Oldest->second.bytes();
    Spills.erase(Oldest);
    ++SpillsDropped;
  }
}

void FacileServer::Impl::boundOverlayBytes() {
  std::vector<std::shared_ptr<Session>> Live = liveSessions();
  // Oldest-first by verb recency, so eviction is LRU over sessions.
  std::sort(Live.begin(), Live.end(),
            [](const std::shared_ptr<Session> &A,
               const std::shared_ptr<Session> &B) {
              return A->LastVerbMs.load(std::memory_order_relaxed) <
                     B->LastVerbMs.load(std::memory_order_relaxed);
            });
  size_t Total = 0;
  for (const std::shared_ptr<Session> &S : Live) {
    std::unique_lock<std::mutex> SLock(S->Mu, std::try_to_lock);
    if (!SLock.owns_lock())
      continue;
    Total += S->Sim->sim().cache().overlayBytes();
  }
  for (const std::shared_ptr<Session> &S : Live) {
    if (Total <= Opts.MaxOverlayBytes)
      return;
    std::unique_lock<std::mutex> SLock(S->Mu, std::try_to_lock);
    if (!SLock.owns_lock() || S->Detached)
      continue;
    size_t Overlay = S->Sim->sim().cache().overlayBytes();
    if (Overlay == 0)
      continue;
    // Resets to the shared read-only base (or empty when cold); recorded
    // work is lost, correctness is not — the cache is a memo, not state.
    S->Sim->sim().evictCacheNow();
    S->publishStats();
    Total -= std::min(Total, Overlay);
    ++OverlaysEvicted;
  }
}

void FacileServer::Impl::promoteDirtyOverlays() {
  if (!StoreDir)
    return;
  std::vector<std::shared_ptr<Session>> Live = liveSessions();
  for (const std::shared_ptr<Session> &S : Live) {
    // try_lock: past the drain deadline a wedged session forfeits its
    // promotion rather than hanging shutdown.
    std::unique_lock<std::mutex> SLock(S->Mu, std::try_to_lock);
    if (!SLock.owns_lock()) {
      ++DrainSkipped;
      continue;
    }
    if (!S->P.SimOpts.Memoize || S->Sim->sim().cache().overlayBytes() == 0)
      continue; // nothing recorded: nothing worth a new generation
    std::string PErr;
    if (S->Sim->promoteStore(*StoreDir, nullptr, &PErr))
      ++DrainPromoted;
    else
      ++DrainSkipped;
  }
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

std::string FacileServer::Impl::statsJson() {
  // The registry providers read each session's published stats under its
  // StatsMu — never its Mu, which a verb in flight holds — so they work
  // on a copy of the table.
  std::vector<std::shared_ptr<Session>> Live = liveSessions();
  size_t Queued;
  telemetry::Histogram QDHist;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Queued = Queue.size();
    QDHist = QueueDepthHist;
  }
  telemetry::Histogram SvcHist;
  {
    std::lock_guard<std::mutex> Lock(HistMu);
    SvcHist = ServiceUsHist;
  }
  size_t SpilledCount, SpilledBytes;
  {
    std::lock_guard<std::mutex> Lock(SpillMu);
    SpilledCount = Spills.size();
    SpilledBytes = SpillBytes;
  }
  std::vector<std::pair<std::string, std::shared_ptr<const rt::SharedProgram>>>
      Programs;
  {
    std::lock_guard<std::mutex> Lock(PoolMu);
    Programs.assign(Pool.begin(), Pool.end());
  }
  const size_t PoolSize = Programs.size();
  uint64_t FaultedSessions = 0;

  telemetry::MetricsRegistry R;
  R.add("sessions", [&](telemetry::MetricSink &Sink) {
    for (const std::shared_ptr<Session> &S : Live) {
      Sink.beginGroup(strFormat("s%llu",
                                static_cast<unsigned long long>(S->Id)));
      std::lock_guard<std::mutex> Lock(S->StatsMu);
      S->Stats.replay(Sink);
      FaultedSessions += S->StatsFaulted;
      Sink.endGroup();
    }
  });
  // Per pooled program: the code its sessions share. trace_shapes counts
  // shapes compiled by any session, so a session that only re-binds
  // shapes an earlier one compiled leaves it unchanged.
  R.add("programs", [&](telemetry::MetricSink &Sink) {
    for (const auto &[Key, Prog] : Programs) {
      const jit::JitCache *J = Prog->builtJitCache();
      Sink.beginGroup(Key);
      Sink.counter("trace_shapes", J ? J->shapeCount() : 0);
      Sink.counter("trace_code_bytes", J ? J->traceCodeBytes() : 0);
      Sink.counter("compiled_blocks", J ? J->compiledBlocks() : 0);
      Sink.counter("code_bytes", J ? J->codeBytes() : 0);
      Sink.endGroup();
    }
  });
  // The sessions provider runs first during export, so the faulted count
  // is final by the time the server group renders — registries walk in
  // registration order, but JSON member order is irrelevant to consumers;
  // keep "sessions" registered first regardless.
  R.add("server", [&](telemetry::MetricSink &Sink) {
    Sink.gauge("active_sessions", static_cast<int64_t>(Live.size()));
    Sink.gauge("peak_sessions", static_cast<int64_t>(PeakSessions.load()));
    Sink.counter("sessions_created", SessionsCreated.load());
    Sink.counter("sessions_destroyed", SessionsDestroyed.load());
    Sink.gauge("faulted_sessions", static_cast<int64_t>(FaultedSessions));
    Sink.gauge("queued_requests", static_cast<int64_t>(Queued));
    Sink.gauge("active_connections",
               static_cast<int64_t>(ActiveConnections.load()));
    Sink.counter("connections_total", ConnectionsTotal.load());
    Sink.counter("requests_total", RequestsTotal.load());
    Sink.counter("responses_total", ResponsesTotal.load());
    Sink.counter("protocol_errors", ProtocolErrors.load());
    Sink.gauge("shared_programs", static_cast<int64_t>(PoolSize));
    // How many distinct store files this process has mapped right now; N
    // warm sessions over one store report 1 here.
    Sink.gauge("store_mappings",
               static_cast<int64_t>(StoreDir ? StoreDir->mappedCount() : 0));
    Sink.gauge("workers", static_cast<int64_t>(Opts.Workers));
    Sink.flag("shutting_down", Stop.load());
    // Resilience layer (docs/INTERNALS.md "Resilience").
    Sink.counter("admission_rejects", AdmissionRejects.load());
    Sink.counter("deadline_faults", DeadlineFaults.load());
    Sink.counter("deduped_requests", DedupedRequests.load());
    Sink.counter("idle_closed_connections", IdleClosedConns.load());
    Sink.counter("reaped_sessions", ReapedSessions.load());
    Sink.counter("resumed_sessions", ResumedSessions.load());
    Sink.counter("spills_dropped", SpillsDropped.load());
    Sink.counter("overlays_evicted", OverlaysEvicted.load());
    Sink.counter("store_gc_unlinked", StoreGcUnlinked.load());
    Sink.counter("drain_promoted", DrainPromoted.load());
    Sink.counter("drain_skipped", DrainSkipped.load());
    Sink.gauge("spilled_sessions", static_cast<int64_t>(SpilledCount));
    Sink.gauge("spilled_bytes", static_cast<int64_t>(SpilledBytes));
    Sink.gauge("max_queue_depth", static_cast<int64_t>(Opts.MaxQueueDepth));
    Sink.gauge("drain_duration_ms",
               static_cast<int64_t>(DrainDurationMs.load()));
    Sink.flag("draining", Draining.load());
    Sink.histogram("queue_depth", QDHist);
    Sink.histogram("service_us", SvcHist);
  });
  telemetry::JsonMetricSink Sink;
  R.exportTo(Sink);
  return Sink.finish();
}

//===----------------------------------------------------------------------===//
// Public surface
//===----------------------------------------------------------------------===//

FacileServer::FacileServer(ServerOptions Opts)
    : I(std::make_unique<Impl>(std::move(Opts))) {}

FacileServer::~FacileServer() {
  I->requestShutdown();
  I->joinAll();
}

bool FacileServer::start(std::string *Err) { return I->start(Err); }

uint16_t FacileServer::port() const { return I->BoundPort; }

void FacileServer::requestShutdown() { I->requestShutdown(); }

// One relaxed-ordering-free atomic store: safe from a signal handler. The
// reaper thread notices within its period and runs the state machine.
void FacileServer::requestDrain() {
  I->DrainRequested.store(true, std::memory_order_release);
}

bool FacileServer::addressInUse() const { return I->AddressInUse; }

uint64_t FacileServer::drainDurationMs() const {
  return I->DrainDurationMs.load(std::memory_order_acquire);
}

void FacileServer::wait() {
  {
    std::unique_lock<std::mutex> Lock(I->StopMu);
    I->StopCv.wait(Lock, [this] { return I->Stop.load(); });
  }
  I->joinAll();
}

std::string FacileServer::statsJson() const { return I->statsJson(); }

std::vector<VerbSchema> FacileServer::schema() {
  return std::vector<VerbSchema>(std::begin(Impl::Verbs),
                                 std::end(Impl::Verbs));
}
