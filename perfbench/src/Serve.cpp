//===- Serve.cpp - serve-store workload -----------------------------------===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process FacileServer on a Unix socket with a populated FACSTOR1
/// cache store, driven by a closed loop of three client connections (three
/// workers). One session is create -> run to halt -> digest -> destroy,
/// timed at the client, and divided by the time the hand-coded FastSim
/// then takes on the same program, run on the client's thread while the
/// other clients' sessions go on. One session in four is a resumed session:
/// it runs half way, saves a checkpoint, is destroyed, and a fresh session
/// loads the checkpoint with snapshot-load and runs to halt. Sessions come in
/// blocks that hold every (program, plain or resumed) combination in its
/// fixed proportion, in an order the seed picks, and a run holds a fixed
/// number of whole blocks.
///
/// Set-up, repeated in-process with the median reported: start the
/// server; record each program to halt and promote its cache to the store;
/// create one idle session per store file (a cold attach that maps and
/// validates it). The idle sessions stay open for the whole run, so every
/// later create attaches warm, as on a busy daemon.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "src/runtime/SharedProgram.h"
#include "src/server/Client.h"
#include "src/server/Server.h"
#include "src/sims/SimHarness.h"
#include "src/store/CacheStore.h"
#include "src/workload/Workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>
#include <unistd.h>

using namespace facile;

namespace perfbench {
namespace {

constexpr unsigned Clients = 3;
constexpr unsigned ResumeEvery = 4;
/// Sessions per second the closed loop completes on the 4-vCPU x86-64 host
/// the benchmark was tuned on. A run holds the fewest whole blocks that
/// last --seconds there.
constexpr double NominalSessionsPerSecond = 8.0;
/// Instructions of the LCG fill every generated program starts with.
constexpr uint64_t PrologueInstrs = 32768 * 6;
/// The served programs (shape, outer_iters). Fixed, so the promoted store
/// and with it set-up time and RSS are the same for every seed. Each runs
/// about 690 K instructions, so a warm session (which replays everything)
/// spends over two thirds of its time past the prologue, and the two take
/// about as long, so their sessions pool into one latency sample. Their
/// stores stop growing after a few dozen iterations, at tens of MB.
const std::pair<const char *, uint64_t> Served[] = {{"compress", 125},
                                                    {"m88ksim", 28}};

struct Program {
  std::string Shape;
  uint64_t OuterIters;
  isa::TargetImage Image;
  Reference Ref;
};

/// One verb's round-trip samples plus the protocol failures seen.
struct ClientStats {
  std::map<std::string, std::vector<double>> RttMs;
  double RttSumMs = 0;
  uint64_t Requests = 0, Rejected = 0;
  std::vector<double> SaveKb;
  /// Per session: program, wall ms, FastSim's wall ms on the program
  /// right after it, resumed, ok.
  struct Session {
    size_t Prog;
    double Ms, RefMs;
    bool Resumed, Ok;
  };
  std::vector<Session> Sessions;

  void merge(const ClientStats &O) {
    for (const auto &[Verb, V] : O.RttMs)
      RttMs[Verb].insert(RttMs[Verb].end(), V.begin(), V.end());
    RttSumMs += O.RttSumMs;
    Requests += O.Requests;
    Rejected += O.Rejected;
    SaveKb.insert(SaveKb.end(), O.SaveKb.begin(), O.SaveKb.end());
    Sessions.insert(Sessions.end(), O.Sessions.begin(), O.Sessions.end());
  }
};

/// A client connection issuing timed requests, with spans when traced.
class Conn {
public:
  Conn(ClientStats &St, SpanLog &Spans) : St(St), Spans(Spans) {}

  bool connect(const std::string &Path) {
    std::string Err;
    if (C.connectUnix(Path, &Err))
      return true;
    std::fprintf(stderr, "perfbench: connect: %s\n", Err.c_str());
    return false;
  }

  /// One round trip. False on transport errors and on ok:false replies.
  bool call(const std::string &Verb, const std::string &Req,
            json::Value &Resp, int64_t Parent, uint64_t Sid, bool Traced) {
    std::string Err;
    uint64_t T0 = nowNs();
    bool Sent = C.rpc(Req, Resp, &Err);
    uint64_t T1 = nowNs();
    double Ms = nsToMs(T1 - T0);
    St.RttMs[Verb].push_back(Ms);
    St.RttSumMs += Ms;
    ++St.Requests;
    if (Traced)
      Spans.add("verb." + Verb, T0, T1, Parent, Sid);
    if (!Sent) {
      std::fprintf(stderr, "perfbench: %s: transport error: %s\n",
                   Verb.c_str(), Err.c_str());
      C.reconnect();
      return false;
    }
    const json::Value *Ok = Resp.get("ok");
    if (Ok && Ok->boolOr(false))
      return true;
    const json::Value *E = Resp.get("error");
    const json::Value *Code = E ? E->get("code") : nullptr;
    if (Code && Code->strOr("") == "overloaded")
      ++St.Rejected;
    std::fprintf(stderr, "perfbench: %s: error reply: %s\n", Verb.c_str(),
                 C.lastResponseLine().substr(0, 200).c_str());
    return false;
  }

  server::Client C;
  ClientStats &St;
  SpanLog &Spans;
};

std::string createReq(const Program &P) {
  return "{\"verb\":\"create\",\"sim\":\"ooo\",\"workload\":\"" + P.Shape +
         "\",\"outer_iters\":" + std::to_string(P.OuterIters) + "}";
}

std::string sessionReq(const char *Verb, int64_t Sid,
                       const std::string &Extra = "") {
  return std::string("{\"verb\":\"") + Verb +
         "\",\"session\":" + std::to_string(Sid) + Extra + "}";
}

int64_t sessionId(const json::Value &Resp) {
  const json::Value *S = Resp.get("session");
  return S ? S->intOr(-1) : -1;
}

uint64_t intField(const json::Value &Resp, const char *Key) {
  const json::Value *V = Resp.get(Key);
  return V ? static_cast<uint64_t>(V->intOr(0)) : 0;
}

/// Runs one session; returns whether every verb succeeded and the run
/// reproduced the FastSim reference.
bool runSession(Conn &C, const Program &P, bool Resumed, uint64_t Sid,
                bool Traced) {
  int64_t Span = Traced ? C.Spans.open(Resumed ? "session.resumed" : "session",
                                       -1, Sid)
                        : -1;
  json::Value Resp;
  bool Ok = true;
  int64_t Id = -1;
  auto Destroy = [&] {
    if (Id >= 0 && !C.call("destroy", sessionReq("destroy", Id), Resp, Span,
                           Sid, Traced))
      Ok = false;
    Id = -1;
  };
  std::string Checkpoint;
  if (Resumed) {
    // First half: run to half the reference's instructions, checkpoint.
    Ok = C.call("create", createReq(P), Resp, Span, Sid, Traced);
    Id = Ok ? sessionId(Resp) : -1;
    Ok = Ok && C.call("run",
                      sessionReq("run", Id,
                                 ",\"instrs\":" +
                                     std::to_string(P.Ref.Retired / 2)),
                      Resp, Span, Sid, Traced);
    Ok = Ok && C.call("snapshot-save",
                      sessionReq("snapshot-save", Id,
                                 ",\"kind\":\"checkpoint\""),
                      Resp, Span, Sid, Traced);
    if (Ok) {
      const json::Value *B = Resp.get("bytes_b64");
      Checkpoint = B ? B->str() : "";
      C.St.SaveKb.push_back(static_cast<double>(intField(Resp, "size")) /
                            1024.0);
    }
    Destroy();
  }
  if (Ok) {
    Ok = C.call("create", createReq(P), Resp, Span, Sid, Traced);
    Id = Ok ? sessionId(Resp) : -1;
    const json::Value *Att = Ok ? Resp.get("store_attached") : nullptr;
    if (Ok && !(Att && Att->boolOr(false))) {
      std::fprintf(stderr, "perfbench: session did not attach the store\n");
      Ok = false;
    }
  }
  if (Ok && Resumed)
    Ok = C.call("snapshot-load",
                sessionReq("snapshot-load", Id,
                           ",\"kind\":\"checkpoint\",\"bytes_b64\":\"" +
                               Checkpoint + "\""),
                Resp, Span, Sid, Traced);
  Outcome O;
  if (Ok && C.call("run", sessionReq("run", Id), Resp, Span, Sid, Traced)) {
    O.Halted = Resp.get("halted") && Resp.get("halted")->boolOr(false);
    O.Faulted = Resp.get("faulted") && Resp.get("faulted")->boolOr(true);
    O.Retired = intField(Resp, "retired_total");
    O.Cycles = intField(Resp, "cycles");
  } else {
    Ok = false;
  }
  if (Ok && C.call("inspect", sessionReq("inspect", Id, ",\"what\":\"digest\""),
                   Resp, Span, Sid, Traced)) {
    const json::Value *D = Resp.get("digest");
    O.Digest = D ? std::strtoull(D->strOr("").c_str(), nullptr, 16) : 0;
  } else {
    Ok = false;
  }
  Destroy();
  if (Traced)
    C.Spans.close(Span);
  if (Ok && !O.matches(P.Ref)) {
    std::fprintf(stderr,
                 "perfbench: session %llu (%s%s) mismatch: retired %llu/%llu "
                 "cycles %llu/%llu digest %016llx/%016llx\n",
                 static_cast<unsigned long long>(Sid), P.Shape.c_str(),
                 Resumed ? ", resumed" : "",
                 static_cast<unsigned long long>(O.Retired),
                 static_cast<unsigned long long>(P.Ref.Retired),
                 static_cast<unsigned long long>(O.Cycles),
                 static_cast<unsigned long long>(P.Ref.Cycles),
                 static_cast<unsigned long long>(O.Digest),
                 static_cast<unsigned long long>(P.Ref.Digest));
    Ok = false;
  }
  return Ok;
}

/// The server's service_us histogram from a stats reply.
struct ServiceHist {
  uint64_t Count = 0, Sum = 0;
  std::map<uint64_t, uint64_t> Buckets; ///< bucket low bound -> count
};

bool readServiceHist(Conn &C, ServiceHist &Out) {
  json::Value Resp;
  if (!C.call("stats", "{\"verb\":\"stats\"}", Resp, -1, 0, false))
    return false;
  const json::Value *S = Resp.get("stats");
  S = S ? S->get("server") : nullptr;
  S = S ? S->get("service_us") : nullptr;
  if (!S)
    return false;
  Out.Count = intField(*S, "count");
  Out.Sum = intField(*S, "sum");
  if (const json::Value *B = S->get("buckets"))
    for (const auto &[Lo, N] : B->members())
      Out.Buckets[std::strtoull(Lo.c_str(), nullptr, 10)] =
          static_cast<uint64_t>(N.intOr(0));
  return true;
}

/// Median of the window's service times (after minus before), linearly
/// interpolated inside the log2 bucket that holds it, in ms.
double serviceP50Ms(const ServiceHist &Before, const ServiceHist &After) {
  uint64_t Total = After.Count - Before.Count;
  if (Total == 0)
    return 0.0;
  double Half = static_cast<double>(Total) / 2.0, Seen = 0.0;
  for (const auto &[Lo, N] : After.Buckets) {
    auto It = Before.Buckets.find(Lo);
    double Here = static_cast<double>(N - (It == Before.Buckets.end()
                                               ? 0
                                               : It->second));
    if (Seen + Here >= Half && Here > 0) {
      double L = static_cast<double>(Lo);
      double Width = Lo == 0 ? 1.0 : L;
      return (L + Width * (Half - Seen) / Here) / 1e3;
    }
    Seen += Here;
  }
  return 0.0;
}

/// One set-up: a started server with a populated store and one pinned
/// session per store file. Stops the server and removes its directory on
/// destruction; the pinned connection holds the address of PinStats, so an
/// Instance never moves.
struct Instance {
  std::string Dir, Store, Socket;
  std::unique_ptr<server::FacileServer> Server;
  ClientStats PinStats;
  std::unique_ptr<Conn> Pin;
  double SetupS = 0, PromoteMs = 0, AttachColdMs = 0, PlanMs = 0;

  Instance() = default;
  Instance(const Instance &) = delete;
  Instance &operator=(const Instance &) = delete;
  ~Instance() {
    Pin.reset();
    if (Server) {
      Server->requestShutdown();
      Server->wait();
      Server.reset();
    }
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }
};

} // namespace

void runServe(const Args &A, Report &R, SpanLog &Spans) {
  unsigned SetupRepeats = A.Tiny ? 2 : 5;
  Rand Rng(A.Seed);

  // Load generation: the serve mix's programs and their references.
  std::vector<Program> Progs;
  uint64_t GenNs = 0;
  for (const auto &[Shape, Iters] : Served) {
    Program P;
    P.Shape = Shape;
    P.OuterIters = A.Tiny ? 1 : Iters;
    uint64_t T0 = nowNs();
    P.Image = workload::generate(*workload::findSpec(Shape), P.OuterIters);
    GenNs += nowNs() - T0;
    P.Ref = fastSimReference(P.Image);
    std::fprintf(stderr,
                 "perfbench: %s retires %llu instructions, %.1fx the "
                 "prologue\n",
                 Shape, static_cast<unsigned long long>(P.Ref.Retired),
                 static_cast<double>(P.Ref.Retired) / PrologueInstrs);
    Progs.push_back(std::move(P));
  }
  if (A.CorruptRef)
    Progs[0].Ref.Digest ^= 1;
  R.layer("workload.generate_ms", nsToMs(GenNs));
  const uint64_t MixSeed = Rng.next();

  // The server compiles ooo.fac once per process (simulatorProgram); that
  // happens here, before the set-ups, as on a daemon that is already up.
  const CompiledProgram &Compiled =
      sims::simulatorProgram(sims::SimKind::OutOfOrder);
  if (A.Trace)
    timeCompilePhases(sims::simulatorSource(sims::SimKind::OutOfOrder),
                      SetupRepeats, R, Spans);

  std::string RunDir =
      ".bench_build/perfbench/serve-" + std::to_string(::getpid());
  auto SetUp = [&](unsigned Rep, Instance &I) -> bool {
    I.Dir = RunDir + "/r" + std::to_string(Rep);
    I.Store = I.Dir + "/store";
    I.Socket = I.Dir + "/s.sock";
    std::filesystem::create_directories(I.Dir);
    int64_t Span = A.Trace ? Spans.open("setup", -1, Rep) : -1;
    uint64_t T0 = nowNs();
    server::ServerOptions SO;
    SO.UnixPath = I.Socket;
    SO.Workers = Clients;
    SO.CacheStorePath = I.Store;
    I.Server = std::make_unique<server::FacileServer>(SO);
    std::string Err;
    if (!I.Server->start(&Err)) {
      R.fail("server start: " + Err);
      return false;
    }
    uint64_t T1 = nowNs();
    // Populate: record each program to halt, promote its cache.
    store::CacheStoreDir Store(I.Store);
    for (const Program &P : Progs) {
      uint64_t P0 = nowNs();
      rt::SharedProgram Shared(Compiled, P.Image);
      uint64_t P1 = nowNs();
      sims::FacileSim Sim(sims::SimKind::OutOfOrder, Shared);
      Sim.run(~0ull);
      Outcome O{Sim.sim().stats().RetiredTotal, Sim.sim().stats().Cycles,
                Sim.sim().memory().digest(), Sim.sim().halted(),
                Sim.sim().faulted()};
      R.op(O.matches(P.Ref));
      uint64_t P2 = nowNs();
      if (!Sim.promoteStore(Store, nullptr, &Err)) {
        R.fail("promoteStore: " + Err);
        return false;
      }
      uint64_t P3 = nowNs();
      I.PlanMs += nsToMs(P1 - P0);
      I.PromoteMs += nsToMs(P3 - P2);
      if (A.Trace) {
        Spans.add("setup.record." + P.Shape, P0, P2, Span, Rep);
        Spans.add("setup.promoteStore", P2, P3, Span, Rep);
      }
    }
    uint64_t T2 = nowNs();
    // Cold attach: one pinned idle session per store file.
    I.Pin = std::make_unique<Conn>(I.PinStats, Spans);
    if (!I.Pin->connect(I.Socket)) {
      R.fail("cannot connect to the server");
      return false;
    }
    for (const Program &P : Progs) {
      json::Value Resp;
      uint64_t C0 = nowNs();
      bool Ok = I.Pin->call("create", createReq(P), Resp, Span, Rep, A.Trace);
      I.AttachColdMs += nsToMs(nowNs() - C0);
      const json::Value *Att = Ok ? Resp.get("store_attached") : nullptr;
      Ok = Ok && Att && Att->boolOr(false);
      R.op(Ok);
      if (!Ok)
        std::fprintf(stderr, "perfbench: pinned session for %s failed\n",
                     P.Shape.c_str());
    }
    uint64_t T3 = nowNs();
    I.SetupS = static_cast<double>(T3 - T0) / 1e9;
    if (A.Trace) {
      Spans.add("setup.start", T0, T1, Span, Rep);
      Spans.add("setup.cold_attach", T2, T3, Span, Rep);
      Spans.close(Span);
    }
    return true;
  };

  std::vector<double> SetupS, PromoteMs, AttachColdMs, PlanMs;
  std::unique_ptr<Instance> Live;
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    Live.reset();
    Live = std::make_unique<Instance>();
    if (!SetUp(Rep, *Live))
      return;
    SetupS.push_back(Live->SetupS);
    PromoteMs.push_back(Live->PromoteMs);
    AttachColdMs.push_back(Live->AttachColdMs);
    PlanMs.push_back(Live->PlanMs);
  }
  R.layer("store.promote_ms", median(PromoteMs));
  R.layer("store.attach_cold_ms", median(AttachColdMs));
  R.layer("runtime.plan_ms", median(PlanMs));

  // The closed loop: Clients connections, each starting its next session
  // when the previous one finishes, until the run's sessions are done. A
  // block holds each program ResumeEvery times, once resumed.
  ServiceHist Before, After;
  if (!readServiceHist(*Live->Pin, Before))
    R.fail("stats verb before the window");
  const uint64_t BlockLen = ResumeEvery * Progs.size();
  const uint64_t Blocks =
      A.Tiny ? 1
             : std::max<uint64_t>(
                   1, static_cast<uint64_t>(std::ceil(
                          A.Seconds * NominalSessionsPerSecond /
                          static_cast<double>(BlockLen))));
  const uint64_t Total = Blocks * BlockLen;
  std::atomic<uint64_t> NextSid{0};
  std::vector<ClientStats> PerClient(Clients);
  std::vector<std::thread> Threads;
  // A client that cannot connect, or whose loop throws, is one failed
  // operation.
  std::atomic<uint64_t> ClientErrors{0};
  for (unsigned K = 0; K != Clients; ++K)
    Threads.emplace_back([&, K] {
      try {
        Conn C(PerClient[K], Spans);
        if (!C.connect(Live->Socket)) {
          ++ClientErrors;
          return;
        }
        for (uint64_t Sid; (Sid = NextSid.fetch_add(1)) < Total;) {
          // The seeded mix: the block's order of its combinations.
          std::vector<uint64_t> Order(BlockLen);
          for (uint64_t J = 0; J != BlockLen; ++J)
            Order[J] = J;
          Rand Shuffle(MixSeed + Sid / BlockLen);
          for (uint64_t J = BlockLen - 1; J != 0; --J)
            std::swap(Order[J], Order[Shuffle.below(J + 1)]);
          uint64_t Slot = Order[Sid % BlockLen];
          size_t PI = Slot % Progs.size();
          bool Resumed = Slot < Progs.size();
          uint64_t T0 = nowNs();
          bool Ok = runSession(C, Progs[PI], Resumed, Sid, A.Trace);
          double Ms = nsToMs(nowNs() - T0);
          // The yardstick, on this client's thread while the other
          // clients' sessions go on, so it sees the load the session saw.
          double RefMs = fastSimMs(Progs[PI].Image, nowNs);
          C.St.Sessions.push_back({PI, Ms, RefMs, Resumed, Ok});
        }
      } catch (const std::exception &E) {
        std::fprintf(stderr, "perfbench: client %u: %s\n", K, E.what());
        ++ClientErrors;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  if (!readServiceHist(*Live->Pin, After))
    R.fail("stats verb after the window");

  ClientStats All;
  for (const ClientStats &S : PerClient)
    All.merge(S);
  for (const ClientStats::Session &S : All.Sessions)
    R.op(S.Ok);
  for (uint64_t E = ClientErrors.load(); E; --E)
    R.op(false);

  // One pooled sample: the programs are about equally long, and pooled,
  // 120 sessions (--seconds 15) put 12 beyond the p90.
  ShapeSamples Sessions(1);
  std::vector<double> PlainMs, ResumedMs;
  for (const ClientStats::Session &S : All.Sessions)
    if (S.Ok) {
      Sessions.add(0, S.Ms, Progs[S.Prog].Ref.Retired, S.RefMs);
      (S.Resumed ? ResumedMs : PlainMs).push_back(S.Ms);
    }
  std::fprintf(stderr,
               "perfbench: session ms, plain p50 %.1f p90 %.1f, resumed p10 "
               "%.1f p50 %.1f\n",
               quantile(PlainMs, 0.5), quantile(PlainMs, 0.9),
               quantile(ResumedMs, 0.1), quantile(ResumedMs, 0.5));
  reportEndToEnd(R, Sessions, median(SetupS));

  if (A.Trace) {
    for (const char *Verb : {"create", "run", "inspect", "destroy"})
      R.layer(std::string("server.") + Verb + "_ms", median(All.RttMs[Verb]));
    R.layer("snapshot.save_ms", median(All.RttMs["snapshot-save"]));
    R.layer("snapshot.load_ms", median(All.RttMs["snapshot-load"]));
    R.layer("snapshot.kb", median(All.SaveKb));
    double ServiceMeanMs =
        After.Count == Before.Count
            ? 0.0
            : static_cast<double>(After.Sum - Before.Sum) / 1e3 /
                  static_cast<double>(After.Count - Before.Count);
    R.layer("server.service_ms.p50", serviceP50Ms(Before, After));
    R.layer("server.wait_ms",
            All.Requests ? All.RttSumMs / static_cast<double>(All.Requests) -
                               ServiceMeanMs
                         : 0.0);
    R.layer("server.rejected", static_cast<double>(All.Rejected));

    // Shadow sessions: what a warm server session does, run in-process so
    // each step() can be timed. A first attach through this process's own
    // store handle maps the file; every later attach is warm. Each program
    // runs ShadowReps times untimed and timed, interleaved with the order
    // alternating, and trace_overhead_pct compares the two: it is the cost
    // of the per-step timing behind the runtime.* figures.
    constexpr unsigned ShadowReps = 3;
    store::CacheStoreDir Store(Live->Store);
    JobCounts Pass;
    EngineTimes PassSteps, AllSteps;
    std::vector<double> AttachMs;
    double MappedMb = 0, OverlayKb = 0;
    ShapeSamples ShadowPlain(Progs.size()), ShadowTimed(Progs.size());
    for (size_t PI = 0; PI != Progs.size(); ++PI) {
      const Program &P = Progs[PI];
      rt::SharedProgram PinShared(Compiled, P.Image);
      sims::FacileSim Pin(sims::SimKind::OutOfOrder, PinShared);
      bool Pinned = Pin.attachStore(Store);
      if (Pin.storeMapping())
        MappedMb += static_cast<double>(Pin.storeMapping()->mappedBytes()) /
                    (1u << 20);
      JobCounts First;
      const double RefMs = fastSimMs(P.Image, nowNs);
      for (unsigned K = 0; K != 2 * ShadowReps; ++K) {
        bool Timed = (K + K / 2) % 2 == 1;
        // A fresh plan and JIT code cache, as for a batch job, so every
        // shadow session compiles the same code.
        rt::SharedProgram Shared(Compiled, P.Image);
        sims::FacileSim Sim(sims::SimKind::OutOfOrder, Shared);
        uint64_t T0 = nowNs();
        bool Ok = Sim.attachStore(Store) && Pinned;
        uint64_t T1 = nowNs();
        EngineTimes T;
        if (Timed)
          runTimedSteps(Sim.sim(), T);
        else
          Sim.run(~0ull);
        uint64_t T2 = nowNs();
        AttachMs.push_back(nsToMs(T1 - T0));
        (Timed ? ShadowTimed : ShadowPlain)
            .add(PI, nsToMs(T2 - T1), P.Ref.Retired, RefMs);
        JobCounts C = JobCounts::of(Sim.sim(), Sim.statsJson());
        Outcome O{C.RetiredTotal, Sim.sim().stats().Cycles,
                  Sim.sim().memory().digest(), Sim.sim().halted(),
                  Sim.sim().faulted()};
        R.op(Ok && O.matches(P.Ref));
        if (K == 0) {
          First = C;
          Pass.add(C);
          OverlayKb += static_cast<double>(C.OverlayBytes) / 1024.0;
        } else if (!(C == First)) {
          R.fail("deterministic counts differ between two shadow sessions "
                 "on " + P.Shape);
        }
        if (K == 1) // the program's first timed run
          PassSteps.merge(T);
        AllSteps.merge(T);
      }
    }
    R.layer("trace_overhead_pct", overheadPct(ShadowPlain, ShadowTimed));
    R.layer("store.attach_ms", median(AttachMs));
    R.layer("store.mapped_mb", MappedMb);
    R.layer("store.overlay_kb_per_session",
            OverlayKb / static_cast<double>(Progs.size()));
    reportEngineLayers(R, Pass, PassSteps, AllSteps);
  }
  Live.reset();
  std::error_code EC;
  std::filesystem::remove_all(RunDir, EC);
}

} // namespace perfbench
