//===- Server.h - Multi-session simulation server ---------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// facilesimd: a daemon hosting many concurrent simulation sessions over
/// the newline-delimited JSON protocol (Protocol.h). The design splits a
/// running simulation along the paper's own compile/run boundary:
///
///  - **SharedProgram pool.** The expensive, read-only state — the
///    compiled Facile simulator, the generated workload image and the
///    packed ExecPlan — is built once per (sim, workload, outer-iters)
///    triple and shared immutably by every session created over it
///    (rt::SharedProgram). Creating session #64 costs one Simulation's
///    mutable state, not a recompilation.
///  - **Sessions.** Each session owns one FacileSim: registers, target
///    memory, action cache, uarch models, snapshot and telemetry state are
///    all private. The existing guards/mem-budget/max-steps options act as
///    per-session resource isolation; a faulted session reports its
///    SimFault over the wire and stays resumable (clear-fault verb)
///    without ever disturbing siblings or the daemon.
///  - **Fixed worker pool.** Connection readers only frame lines and
///    enqueue work; a fixed pool of workers parses, dispatches and
///    responds. A per-session mutex serializes verbs on one session; verbs
///    on different sessions run concurrently across workers.
///
/// Verbs: ping, create, step, run, inspect, clear-fault, snapshot-save,
/// snapshot-load, destroy, stats, shutdown, batch — see docs/INTERNALS.md
/// for the full wire tables. batch carries an array of session-scoped
/// sub-requests and returns their replies in order, one round trip for a
/// step+inspect pair that would otherwise cost two.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_SERVER_SERVER_H
#define FACILE_SERVER_SERVER_H

#include "src/runtime/Simulation.h"

#include <cstdint>
#include <memory>
#include <string>

namespace facile {
namespace server {

struct ServerOptions {
  /// When non-empty, listen on this Unix-domain socket path; otherwise on
  /// TCP 127.0.0.1:TcpPort (0 picks an ephemeral port, see port()).
  std::string UnixPath;
  uint16_t TcpPort = 0;

  unsigned Workers = 4;          ///< fixed verb-execution pool size
  unsigned MaxSessions = 256;    ///< concurrent session cap
  uint64_t MaxRequestsPerConn = 1u << 20; ///< per-connection request budget
  size_t MaxLineBytes = 8u << 20;         ///< request framing limit
  uint64_t MaxStepsPerRequest = 1u << 24; ///< run/step bound per request
  uint32_t MaxInspectWords = 4096;        ///< memory-inspect span cap

  // Resilience layer (see docs/INTERNALS.md "Resilience").

  /// Daemon-wide default for per-request deadlines on step/run. A request
  /// may override with its own "deadline_ms" (0 disables). An expired
  /// deadline raises a structured deadline-exceeded SimFault — the session
  /// stays resumable via clear-fault.
  uint64_t DefaultDeadlineMs = 0;
  /// Admission control: a framed request arriving while this many are
  /// already queued is rejected with "overloaded" + retry_after_ms instead
  /// of queued unboundedly.
  uint32_t MaxQueueDepth = 1024;
  /// Base of the retry_after_ms hint; scaled up with queue pressure.
  uint32_t RetryAfterMs = 50;
  /// Slowloris guard: close a connection with no received bytes and no
  /// in-flight request for this long ("idle-timeout" error first). 0 off.
  uint64_t ConnIdleTimeoutMs = 300000;
  /// Idle-session reap: a session with no verb for this long is spilled to
  /// an in-memory snapshot (checkpoint + cache image) and destroyed; a later
  /// create with its "resume_token" restores it warm. 0 disables.
  uint64_t SessionIdleTtlMs = 0;
  /// Byte budget for spilled sessions; the oldest spills are dropped first.
  size_t MaxSpillBytes = 256u << 20;
  /// Graceful drain (requestDrain / SIGTERM in facilesimd): stop admitting,
  /// wait up to this long for queued and in-flight requests, promote dirty
  /// overlays to the cache store, then stop.
  uint64_t DrainDeadlineMs = 5000;
  /// Periodic store GC: keep this many newest generations per compat key,
  /// unlink the rest (safe while mapped). 0 disables the sweep.
  uint64_t StoreGcKeep = 0;
  /// LRU bound on aggregate session overlay bytes: when exceeded, the
  /// least-recently-used sessions' overlays are evicted (reset to the
  /// shared base) until back under. 0 = unbounded.
  size_t MaxOverlayBytes = 0;
  /// Aggregate byte cap on one batch envelope's replies; elements past the
  /// budget are skipped with an "oversized" per-element error.
  size_t MaxBatchReplyBytes = 6u << 20;
  /// Housekeeping cadence (reaper, overlay bound, drain progress checks).
  uint64_t ReaperPeriodMs = 100;

  /// Session defaults; per-create "options" members override them. Guards
  /// stay on by default — every session input is untrusted.
  rt::Simulation::Options DefaultSimOptions;

  /// When non-empty, a content-addressed action-cache store directory
  /// (cache images, see src/store/CacheStore.h). Every session created
  /// with memoization enabled attaches the newest compatible generation as
  /// its shared read-only cache base — N sessions over one store map the
  /// file once and record only private overlays. A store miss is a cold
  /// session, not an error. The daemon only reads; promotion is the
  /// populating tool's job (facilesim --store-promote).
  std::string CacheStorePath;
};

/// The daemon. Construct, start(), then wait() until a shutdown verb or
/// requestShutdown() stops it. All public methods are thread-safe.
class FacileServer {
public:
  explicit FacileServer(ServerOptions Opts);
  ~FacileServer();

  /// Binds, listens and spawns the accept/worker threads. False (with a
  /// diagnostic in \p Err) on socket errors; the object may be destroyed
  /// but not restarted afterwards.
  bool start(std::string *Err = nullptr);

  /// The bound TCP port (meaningful after start() when listening on TCP;
  /// resolves ephemeral port 0 to the real one).
  uint16_t port() const;

  /// Initiates shutdown: stop accepting, unblock workers, close
  /// connections. Idempotent; returns immediately.
  void requestShutdown();

  /// Initiates a graceful drain: new requests are rejected with
  /// shutting-down, queued and in-flight requests finish (bounded by
  /// ServerOptions::DrainDeadlineMs), dirty session overlays are promoted
  /// to the cache store, then the server stops as if requestShutdown() had
  /// been called. Idempotent, async-signal-safe (sets one atomic flag;
  /// the housekeeping thread does the work), returns immediately.
  void requestDrain();

  /// After a failed start() on a Unix socket: true when the path is owned
  /// by a *live* daemon (probe-connect succeeded), as opposed to a socket
  /// error. Stale socket files are unlinked and rebound automatically.
  bool addressInUse() const;

  /// Milliseconds a completed drain took (0 until one finishes) — the
  /// "drain completed under its deadline" observability hook, also
  /// exported as server.drain_duration_ms.
  uint64_t drainDurationMs() const;

  /// Blocks until the server has fully stopped (all threads joined).
  void wait();

  /// Daemon-level metrics plus one summary per live session, rendered as
  /// one JSON object: {"server": {...}, "sessions": {"s3": {...}, ...}}.
  /// Also served over the wire by the stats verb.
  std::string statsJson() const;

  FacileServer(const FacileServer &) = delete;
  FacileServer &operator=(const FacileServer &) = delete;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace server
} // namespace facile

#endif // FACILE_SERVER_SERVER_H
