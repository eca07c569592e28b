//===- facilesimd.cpp - Multi-session simulation server daemon --------------===//
//
// Hosts many concurrent simulation sessions over newline-delimited JSON
// (src/server/). One process compiles each requested simulator once,
// shares the immutable program/image/plan bundle across every session
// created over it, and isolates per-session mutable state — so a fleet of
// experiment clients pays one compilation, not one per run.
//
//   facilesimd --port=7411             # TCP on 127.0.0.1:7411
//   facilesimd --unix=/tmp/facile.sock # Unix-domain socket
//   facilesimd --selftest              # in-process protocol round-trip
//
// The daemon stops on the shutdown verb or SIGINT; SIGTERM triggers a
// graceful drain (finish in-flight work up to --drain-ms, promote dirty
// memoization overlays to the cache store, exit 0). --selftest starts an
// ephemeral in-process server, drives the full protocol conversation
// against it (create, run, inspect, snapshot round-trip with digest match,
// fault + clear-fault, destroy, shutdown) and exits 0 only if every check
// passed — the CI smoke entry point.
//
// exit status: 0 ok, 1 selftest failure, 2 bad usage or socket path owned
// by a live daemon, 3 socket error.
//
//===----------------------------------------------------------------------===//

#include "src/server/Client.h"
#include "src/server/Server.h"
#include "src/support/ArgParse.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace facile;
using namespace facile::server;

namespace {

FacileServer *SignalServer = nullptr;

void onSignal(int Sig) {
  // Both paths are async-signal-safe: each only stores an atomic flag.
  if (!SignalServer)
    return;
  if (Sig == SIGTERM)
    SignalServer->requestDrain(); // graceful: finish, promote, exit 0
  else
    SignalServer->requestShutdown();
}

int runSelftest() {
  ServerOptions Opts;
  Opts.Workers = 2;
  FacileServer Server(std::move(Opts));
  std::string Err;
  if (!Server.start(&Err)) {
    std::fprintf(stderr, "facilesimd: selftest start failed: %s\n",
                 Err.c_str());
    return 3;
  }
  Client C;
  if (!C.connectTcp(Server.port(), &Err)) {
    std::fprintf(stderr, "facilesimd: selftest connect failed: %s\n",
                 Err.c_str());
    return 3;
  }
  bool Ok = runProtocolSelftest(C, Err, /*SendShutdown=*/true);
  C.close();
  Server.wait();
  if (!Ok) {
    std::fprintf(stderr, "facilesimd: selftest FAILED: %s\n", Err.c_str());
    return 1;
  }
  std::printf("facilesimd: selftest ok\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  ServerOptions Opts;
  bool Selftest = false;

  uint64_t Port = 0, Workers = 4, MaxSessions = 256;
  uint64_t MaxSteps = Opts.MaxStepsPerRequest, MaxQueue = 1024;
  uint64_t MaxOverlayMb = 0;

  support::ArgParse P("facilesimd");
  P.u64("port", Port, "<n>",
        "listen on TCP 127.0.0.1:<n> (0 = ephemeral;\nthe bound port is "
        "printed on stdout)",
        /*Min=*/0, /*Max=*/65535);
  P.str("unix", Opts.UnixPath, "<path>",
        "listen on a Unix-domain socket instead");
  P.u64("workers", Workers, "<n>",
        "verb-execution worker threads (default 4)", /*Min=*/1, /*Max=*/256);
  P.u64("max-sessions", MaxSessions, "<n>",
        "concurrent session cap (default 256)", /*Min=*/1);
  P.u64("max-steps-per-request", MaxSteps, "<n>",
        "run/step bound per request", /*Min=*/1);
  P.str("cache-store", Opts.CacheStorePath, "<dir>",
        "shared action-cache store: memoizing sessions\nattach the newest "
        "compatible generation as a\nread-only base (one mapping per store "
        "file,\nshared by every session)");
  P.custom("jit", "on|off|auto",
           "default execution backend for sessions\n(per-create 'backend' "
           "overrides; default auto)",
           [&Opts](const std::string &V, std::string &Err) {
             rt::BackendKind K;
             if (!rt::parseBackendKind(V, K)) {
               Err = "--jit takes on, off or auto, not '" + V + "'";
               return false;
             }
             Opts.DefaultSimOptions.Backend = K;
             return true;
           });
  P.custom("jit-threshold", "<n>",
           "replays before an action or entry\ntrace compiles, and slow steps before\nthe slow-path function compiles\n(default 32)",
           [&Opts](const std::string &V, std::string &Err) {
             char *End = nullptr;
             uint64_t N = std::strtoull(V.c_str(), &End, 10);
             if (V.empty() || End != V.c_str() + V.size() || N == 0 ||
                 N > UINT32_MAX) {
               Err = "--jit-threshold takes a positive count, not '" + V +
                     "'";
               return false;
             }
             Opts.DefaultSimOptions.JitThreshold = static_cast<uint32_t>(N);
             return true;
           });
  P.u64("default-deadline-ms", Opts.DefaultDeadlineMs, "<n>",
        "default per-request deadline on step/run\n(0 = none; requests may "
        "override)");
  P.u64("max-queue", MaxQueue, "<n>",
        "admission control: queued-request cap before\nrejecting with "
        "overloaded (default 1024)",
        /*Min=*/1);
  P.u64("conn-idle-ms", Opts.ConnIdleTimeoutMs, "<n>",
        "close connections idle this long (0 = never;\ndefault 300000)");
  P.u64("session-ttl-ms", Opts.SessionIdleTtlMs, "<n>",
        "spill sessions idle this long to a snapshot,\nrestorable via "
        "create+resume_token (0 = never)");
  P.u64("drain-ms", Opts.DrainDeadlineMs, "<n>",
        "SIGTERM drain deadline (default 5000)");
  P.u64("store-gc-keep", Opts.StoreGcKeep, "<n>",
        "periodically unlink all but the newest <n>\nstore generations per "
        "compat key (0 = off)");
  P.u64("max-overlay-mb", MaxOverlayMb, "<n>",
        "LRU bound on aggregate session overlay bytes\n(0 = unbounded)");
  P.flag("selftest", Selftest,
         "run the protocol self-test in-process, exit");
  P.epilog("\nexit status: 0 ok, 1 selftest failure, 2 bad usage or socket "
           "owned\nby a live daemon, 3 socket error\n");

  if (int Rc = P.parse(argc, argv); Rc != support::ArgParse::KeepGoing)
    return Rc;
  Opts.TcpPort = static_cast<uint16_t>(Port);
  Opts.Workers = static_cast<unsigned>(Workers);
  Opts.MaxSessions = static_cast<unsigned>(MaxSessions);
  Opts.MaxStepsPerRequest = MaxSteps;
  Opts.MaxQueueDepth = static_cast<uint32_t>(MaxQueue);
  Opts.MaxOverlayBytes = static_cast<size_t>(MaxOverlayMb) << 20;

  if (Selftest)
    return runSelftest();
  if (!P.seen("port") && Opts.UnixPath.empty()) {
    std::fprintf(stderr,
                 "facilesimd: need --port=<n>, --unix=<path> or --selftest\n");
    P.printUsage(stderr);
    return 2;
  }

  FacileServer Server(std::move(Opts));
  std::string Err;
  if (!Server.start(&Err)) {
    std::fprintf(stderr, "facilesimd: %s\n", Err.c_str());
    // A socket path held by a live daemon is an operator mistake (running
    // twice), not a socket error; stale sockets are rebound silently.
    return Server.addressInUse() ? 2 : 3;
  }
  SignalServer = &Server;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGPIPE, SIG_IGN);

  // The bound port on stdout lets wrappers use --port=0 ephemeral binds.
  std::printf("facilesimd: listening on %s\n",
              Server.port() != 0
                  ? ("127.0.0.1:" + std::to_string(Server.port())).c_str()
                  : "unix socket");
  std::fflush(stdout);
  Server.wait();
  return 0;
}
