//===- test_server.cpp - facilesimd protocol and concurrency suite -----------===//
//
// Conformance and stress tests for the multi-session simulation server.
// Every test starts a real in-process FacileServer on an ephemeral
// loopback port and talks to it over the actual wire path — sockets,
// framing, worker pool — not through internal calls, so what passes here
// is what a remote client experiences.
//
// Three layers:
//  - protocol conformance: happy-path round trips for every verb, and a
//    battery of malformed, oversized, truncated and hostile inputs that
//    must each produce a structured error response (never a crash, hang
//    or silent close mid-request);
//  - differential: sessions hosted by the daemon must finish bit-identical
//    to a standalone FacileSim over the same workload and options, even
//    with 64 sessions sharing one SharedProgram across client threads;
//  - isolation: a fault-injected session faults alone; its siblings on the
//    same shared plan stay byte-exact (the mutablePlan copy-on-write).
//
//===----------------------------------------------------------------------===//

#include "src/jit/JitEmitter.h"
#include "src/server/Client.h"
#include "src/server/Protocol.h"
#include "src/server/Server.h"
#include "src/sims/SimHarness.h"
#include "src/snapshot/Serializer.h"
#include "src/store/CacheStore.h"
#include "src/support/StringUtils.h"
#include "src/workload/Workloads.h"
#include "tests/TestJson.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace facile;
using namespace facile::server;

namespace {

/// Starts the server in SetUp and fully stops it in TearDown, so a test
/// that fails cannot leak threads into the next one.
class ServerTest : public ::testing::Test {
protected:
  void SetUp() override { startServer(ServerOptions()); }

  /// Callers that don't care get the 4-worker default; resilience tests
  /// preset Workers/queue bounds and are respected.
  void startServer(ServerOptions Opts) {
    Server = std::make_unique<FacileServer>(std::move(Opts));
    std::string Err;
    ASSERT_TRUE(Server->start(&Err)) << Err;
    ASSERT_NE(Server->port(), 0);
  }

  void TearDown() override {
    Server->requestShutdown();
    Server->wait();
  }

  Client connect() {
    Client C;
    std::string Err;
    EXPECT_TRUE(C.connectTcp(Server->port(), &Err)) << Err;
    return C;
  }

  /// One round trip that must transport-succeed; protocol-level failure is
  /// left to the caller to inspect.
  json::Value rpc(Client &C, const std::string &Req) {
    json::Value R;
    std::string Err;
    EXPECT_TRUE(C.rpc(Req, R, &Err)) << Req << ": " << Err;
    return R;
  }

  /// Expects ok=false with error.code == \p Code.
  void expectError(const json::Value &R, const char *Code) {
    const json::Value *Ok = R.get("ok");
    ASSERT_TRUE(Ok && Ok->isBool());
    EXPECT_FALSE(Ok->boolOr(true));
    const json::Value *E = R.get("error");
    ASSERT_TRUE(E && E->isObject());
    ASSERT_TRUE(E->get("code") && E->get("code")->isStr());
    EXPECT_EQ(E->get("code")->str(), Code);
    EXPECT_TRUE(E->get("message") && E->get("message")->isStr());
  }

  bool isOk(const json::Value &R) {
    const json::Value *Ok = R.get("ok");
    return Ok && Ok->boolOr(false);
  }

  /// Creates a shrunk-compress functional session, returns its id.
  int64_t createSession(Client &C, const std::string &Extra = "") {
    json::Value R = rpc(
        C, R"({"id":1,"verb":"create","sim":"functional",)"
           R"("workload":"compress","data_kwords":2)" + Extra + "}");
    EXPECT_TRUE(isOk(R));
    EXPECT_TRUE(R.get("session") && R.get("session")->isInt());
    return R.get("session") ? R.get("session")->intOr(-1) : -1;
  }

  std::unique_ptr<FacileServer> Server;
};

/// The shrunk-compress spec every differential check runs against.
workload::WorkloadSpec stressSpec() {
  workload::WorkloadSpec Spec = *workload::findSpec("compress");
  Spec.DataKWords = 2;
  return Spec;
}

/// What a finished session must agree on with its standalone twin.
struct Outcome {
  bool Halted = false;
  uint64_t Retired = 0;
  uint64_t Cycles = 0;
  std::string Digest;
};

/// The ground truth: a standalone FacileSim over the same image/options.
Outcome standaloneOutcome() {
  isa::TargetImage Image = workload::generate(stressSpec(), 2);
  sims::FacileSim Sim(sims::SimKind::Functional, Image);
  Sim.run(1u << 26);
  Outcome O;
  O.Halted = Sim.sim().halted();
  O.Retired = Sim.sim().stats().RetiredTotal;
  O.Cycles = Sim.sim().stats().Cycles;
  O.Digest = strFormat("%016llx", static_cast<unsigned long long>(
                                      Sim.sim().memory().digest()));
  return O;
}

//===----------------------------------------------------------------------===//
// Protocol conformance
//===----------------------------------------------------------------------===//

TEST_F(ServerTest, PingEchoesIds) {
  Client C = connect();
  json::Value R = rpc(C, R"({"id":42,"verb":"ping"})");
  EXPECT_TRUE(isOk(R));
  ASSERT_TRUE(R.get("id"));
  EXPECT_EQ(R.get("id")->intOr(-1), 42);

  R = rpc(C, R"({"id":"req-a","verb":"ping"})");
  EXPECT_TRUE(isOk(R));
  ASSERT_TRUE(R.get("id"));
  EXPECT_EQ(R.get("id")->str(), "req-a");

  // No id: echoed as null, still a full response.
  R = rpc(C, R"({"verb":"ping"})");
  EXPECT_TRUE(isOk(R));
  ASSERT_TRUE(R.get("id"));
  EXPECT_TRUE(R.get("id")->isNull());
}

TEST_F(ServerTest, MalformedRequestsGetStructuredErrors) {
  Client C = connect();
  // Each hostile line must produce exactly one well-formed error response
  // on the same connection; the connection stays usable afterwards.
  struct Case {
    const char *Line;
    const char *Code;
  };
  const Case Cases[] = {
      {"{not json", ErrCode::ParseError},
      {"}{", ErrCode::ParseError},
      {R"("just a string")", ErrCode::BadRequest},
      {"[1,2,3]", ErrCode::BadRequest},
      {"42", ErrCode::BadRequest},
      {R"({"id":1})", ErrCode::BadRequest},              // no verb
      {R"({"id":1,"verb":7})", ErrCode::BadRequest},     // non-string verb
      {R"({"id":1,"verb":"frobnicate"})", ErrCode::UnknownVerb},
      {R"({"id":1,"verb":"step"})", ErrCode::BadRequest}, // no session
      {R"({"id":1,"verb":"step","session":"three"})", ErrCode::BadRequest},
      {R"({"id":1,"verb":"step","session":999})", ErrCode::UnknownSession},
      {R"({"id":1,"verb":"run","session":999})", ErrCode::UnknownSession},
      {R"({"id":1,"verb":"destroy","session":999})", ErrCode::UnknownSession},
  };
  for (const Case &K : Cases) {
    SCOPED_TRACE(K.Line);
    json::Value R = rpc(C, K.Line);
    expectError(R, K.Code);
  }
  // Hostile nesting: a depth bomb must come back as a parse error, not a
  // stack overflow.
  std::string Bomb(4096, '[');
  json::Value R = rpc(C, Bomb + std::string(4096, ']'));
  expectError(R, ErrCode::ParseError);

  // Still alive and sane after the whole battery.
  EXPECT_TRUE(isOk(rpc(C, R"({"id":99,"verb":"ping"})")));
}

TEST_F(ServerTest, BadCreateArgumentsAreRejected) {
  Client C = connect();
  expectError(rpc(C, R"({"id":1,"verb":"create","sim":"quantum"})"),
              ErrCode::BadRequest);
  expectError(rpc(C, R"({"id":2,"verb":"create","workload":"nope"})"),
              ErrCode::BadRequest);
  expectError(
      rpc(C, R"({"id":4,"verb":"create","fault_inject":"bogus:1"})"),
      ErrCode::BadRequest);
  expectError(rpc(C, R"({"id":5,"verb":"create","outer_iters":-3})"),
              ErrCode::BadRequest);
  expectError(rpc(C, R"({"id":3,"verb":"create","workload":["gcc"]})"),
              ErrCode::BadRequest);
  // Fields cast into the workload shape or a budget: a zero kernel count
  // divided the data footprint by zero (SIGFPE), an outer count past 2^31
  // failed generation's assert, and a negative budget shifted into a huge
  // size_t.
  const char *Hostile[] = {
      R"("num_kernels":0)",
      R"("num_kernels":-1)",
      R"("num_kernels":"8")",
      R"("num_kernels":1000000)",
      R"("data_kwords":0)",
      R"("data_kwords":-5)",
      R"("data_kwords":4294967296)",
      R"("data_kwords":1.5)",
      R"("outer_iters":2147483648)",
      R"("outer_iters":2.5)",
      R"("options":{"cache_budget_mb":-1})",
      R"("options":{"cache_budget_mb":"big"})",
      R"("options":{"cache_budget_mb":17592186044416})",
      R"("options":{"mem_budget_mb":-1})",
      // A non-integer step limit read as 0 (no watchdog) and a negative
      // one wrapped to ~2^64: either way the client got no limit.
      R"("options":{"max_steps":"x"})",
      R"("options":{"max_steps":-1})",
      // Wrong types once fell back to a default, and an out-of-range delay
      // was clamped or cast from a double without a check.
      R"("sim":5)",
      R"("options":{"memoize":"no"})",
      R"("options":5)",
      R"("options":{"step_delay_us":"x"})",
      R"("options":{"step_delay_us":-7})",
      R"("options":{"step_delay_us":1e300})",
      R"("options":{"step_delay_us":1048577})",
      // A NaN rate passed the [0, 1] check and was cast to an integer.
      R"("fault_inject":"seed:1,cache:nan")",
  };
  int64_t Id = 10;
  for (const char *Field : Hostile) {
    SCOPED_TRACE(Field);
    expectError(rpc(C, R"({"id":)" + std::to_string(Id++) +
                           R"(,"verb":"create","workload":"compress",)" +
                           Field + "}"),
                ErrCode::BadRequest);
  }
  // None of those half-created anything, and the daemon still serves.
  json::Value R = rpc(C, R"({"id":6,"verb":"stats"})");
  ASSERT_TRUE(isOk(R));
  const json::Value *Srv = R.get("stats") ? R.get("stats")->get("server")
                                          : nullptr;
  ASSERT_TRUE(Srv);
  EXPECT_EQ(Srv->get("active_sessions")->intOr(-1), 0);
  EXPECT_EQ(Srv->get("sessions_created")->intOr(-1), 0);
}

TEST_F(ServerTest, CreateBackendFieldResolvedAndEchoed) {
  Client C = connect();
  // Unknown or mistyped backends are rejected with the dedicated code and
  // create nothing.
  expectError(rpc(C, R"({"id":1,"verb":"create","sim":"functional",)"
                     R"("workload":"compress","backend":"turbo"})"),
              ErrCode::BadBackend);
  expectError(rpc(C, R"({"id":2,"verb":"create","sim":"functional",)"
                     R"("workload":"compress","backend":7})"),
              ErrCode::BadBackend);

  // Every successful create echoes the *resolved* backend — never "auto".
  const char *JitName = jit::available() ? "jit" : "interpret";
  struct Case {
    const char *Req;
    const char *Want;
  };
  const Case Cases[] = {
      {R"("backend":"interpret")", "interpret"},
      {R"("backend":"off")", "interpret"},
      {R"("backend":"jit")", JitName}, // degrades, never errors
      {R"("backend":"auto")", JitName},
  };
  int64_t Id = 10;
  for (const Case &K : Cases) {
    SCOPED_TRACE(K.Req);
    json::Value R =
        rpc(C, R"({"id":)" + std::to_string(Id++) +
               R"(,"verb":"create","sim":"functional",)"
               R"("workload":"compress","data_kwords":2,)" + K.Req + "}");
    ASSERT_TRUE(isOk(R));
    ASSERT_TRUE(R.get("backend") && R.get("backend")->isStr());
    EXPECT_EQ(R.get("backend")->str(), K.Want);
  }
}

TEST_F(ServerTest, TruncatedRequestIsDiscardedOnDisconnect) {
  {
    Client C = connect();
    EXPECT_TRUE(isOk(rpc(C, R"({"id":1,"verb":"ping"})")));
    // Half a request, no newline — then the client vanishes. The server
    // must drop the partial silently, not parse or answer it.
    ASSERT_TRUE(C.sendRaw(R"({"id":2,"verb":"create","workl)"));
    C.close();
  }
  // Server must still be serving after the abrupt disconnect.
  Client C2 = connect();
  EXPECT_TRUE(isOk(rpc(C2, R"({"id":3,"verb":"ping"})")));
}

TEST_F(ServerTest, OversizedLineIsRejectedAndConnectionClosed) {
  TearDown();
  ServerOptions Opts;
  Opts.MaxLineBytes = 1024;
  startServer(std::move(Opts));

  Client C = connect();
  std::string Huge = R"({"id":1,"verb":"ping","pad":")" +
                     std::string(4096, 'x') + "\"}";
  ASSERT_TRUE(C.sendLine(Huge));
  std::string Line;
  ASSERT_TRUE(C.recvLine(Line));
  json::Value R;
  std::string PErr;
  ASSERT_TRUE(json::parse(Line, R, PErr)) << PErr;
  expectError(R, ErrCode::Oversized);
  // The connection is closed after the error response.
  EXPECT_FALSE(C.recvLine(Line));

  // An unterminated flood (no newline at all) is also rejected, not
  // buffered forever.
  Client C2 = connect();
  ASSERT_TRUE(C2.sendRaw(std::string(8192, 'y')));
  ASSERT_TRUE(C2.recvLine(Line));
  ASSERT_TRUE(json::parse(Line, R, PErr)) << PErr;
  expectError(R, ErrCode::Oversized);

  Client C3 = connect();
  EXPECT_TRUE(isOk(rpc(C3, R"({"id":2,"verb":"ping"})")));
}

TEST_F(ServerTest, PerConnectionRequestLimit) {
  TearDown();
  ServerOptions Opts;
  Opts.MaxRequestsPerConn = 3;
  startServer(std::move(Opts));

  Client C = connect();
  for (int I = 0; I != 3; ++I)
    EXPECT_TRUE(isOk(rpc(C, R"({"id":1,"verb":"ping"})")));
  ASSERT_TRUE(C.sendLine(R"({"id":4,"verb":"ping"})"));
  std::string Line;
  ASSERT_TRUE(C.recvLine(Line));
  json::Value R;
  std::string PErr;
  ASSERT_TRUE(json::parse(Line, R, PErr)) << PErr;
  expectError(R, ErrCode::RequestLimit);
  EXPECT_FALSE(C.recvLine(Line)); // closed

  // Fresh connections get a fresh budget.
  Client C2 = connect();
  EXPECT_TRUE(isOk(rpc(C2, R"({"id":1,"verb":"ping"})")));
}

TEST_F(ServerTest, SessionLimit) {
  TearDown();
  ServerOptions Opts;
  Opts.MaxSessions = 2;
  startServer(std::move(Opts));

  Client C = connect();
  int64_t A = createSession(C);
  int64_t B = createSession(C);
  ASSERT_GT(A, 0);
  ASSERT_GT(B, 0);
  json::Value R = rpc(C, R"({"id":1,"verb":"create","sim":"functional",)"
                         R"("workload":"compress","data_kwords":2})");
  expectError(R, ErrCode::SessionLimit);
  // Destroying one frees a slot.
  EXPECT_TRUE(isOk(rpc(C, strFormat(
      R"({"id":2,"verb":"destroy","session":%lld})",
      static_cast<long long>(A)))));
  EXPECT_GT(createSession(C), 0);
}

TEST_F(ServerTest, SessionIdsAreNeverReused) {
  Client C = connect();
  int64_t A = createSession(C);
  ASSERT_GT(A, 0);
  EXPECT_TRUE(isOk(rpc(C, strFormat(
      R"({"id":1,"verb":"destroy","session":%lld})",
      static_cast<long long>(A)))));
  // Every verb on the dead id — including a second destroy — must say
  // unknown-session.
  for (const char *Verb : {"step", "run", "inspect", "clear-fault",
                           "snapshot-save", "destroy"}) {
    SCOPED_TRACE(Verb);
    json::Value R = rpc(C, strFormat(
        R"({"id":2,"verb":"%s","session":%lld})", Verb,
        static_cast<long long>(A)));
    expectError(R, ErrCode::UnknownSession);
  }
  // A new session gets a fresh id, not the recycled one.
  int64_t B = createSession(C);
  EXPECT_GT(B, A);
}

TEST_F(ServerTest, ProtocolSelftestPasses) {
  // The same conversation `facilesimd --selftest` runs: covers the
  // snapshot round-trip (digest restored, warm-started twin matches) and
  // the watchdog fault + clear-fault resume path.
  Client C = connect();
  std::string Err;
  EXPECT_TRUE(runProtocolSelftest(C, Err, /*SendShutdown=*/false)) << Err;
}

TEST_F(ServerTest, SnapshotLoadRejectsGarbage) {
  Client C = connect();
  int64_t S = createSession(C);
  // Bad base64.
  expectError(rpc(C, strFormat(
                  R"({"id":1,"verb":"snapshot-load","session":%lld,)"
                  R"("kind":"checkpoint","bytes_b64":"@@@not-base64@@@"})",
                  static_cast<long long>(S))),
              ErrCode::BadRequest);
  // Valid base64, garbage container: structured rejection, session intact.
  expectError(rpc(C, strFormat(
                  R"({"id":2,"verb":"snapshot-load","session":%lld,)"
                  R"("kind":"checkpoint","bytes_b64":"AAAAAAAAAAAAAAAA"})",
                  static_cast<long long>(S))),
              ErrCode::BadSnapshot);
  json::Value R = rpc(C, strFormat(
      R"({"id":3,"verb":"run","session":%lld,"steps":100})",
      static_cast<long long>(S)));
  EXPECT_TRUE(isOk(R));
  EXPECT_EQ(R.get("steps")->intOr(0), 100);
}

TEST_F(ServerTest, CyclicCacheImageCannotHangAWorker) {
  // The daemon accepts cache images from clients, so replay's integrity
  // checks are not optional: a create that asks for "guards":false gets
  // them anyway (the field is ignored like any unknown one). A cache image
  // whose Plain node links to itself passes every container and structural
  // check (cycles are replay's to catch) and must end in a structured
  // outcome — a cache-corrupt fault or a cold re-record — never a worker
  // spinning in replay.
  Client C = connect();
  const int64_t S = createSession(C, R"(,"options":{"guards":false})");
  auto req = [&](const char *Fmt, const std::string &Extra = "") {
    return rpc(C, strFormat(Fmt, static_cast<long long>(S)) + Extra + "}");
  };
  ASSERT_TRUE(isOk(req(R"({"id":2,"verb":"step","session":%lld,)"
                       R"("count":20000)")));
  json::Value Saved =
      req(R"({"id":3,"verb":"snapshot-save","session":%lld,"kind":"cache")");
  ASSERT_TRUE(isOk(Saved));
  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(base64Decode(Saved.get("bytes_b64")->str(), Bytes));

  // Container layout (docs/INTERNALS.md): section count u32 at 24, table
  // CRC-32 at 28 over the first 28 bytes and the 24-byte section entries
  // (tag, payload CRC-32, offset, length) that start at 32.
  ASSERT_GE(Bytes.size(), size_t(32));
  uint32_t NumSections = 0;
  std::memcpy(&NumSections, Bytes.data() + 24, 4);
  ASSERT_GE(Bytes.size(), 32 + size_t(NumSections) * 24);
  auto section = [&](uint32_t Tag, uint8_t *&Crc, uint8_t *&Data,
                     uint64_t &Len) {
    for (uint32_t I = 0; I != NumSections; ++I) {
      uint8_t *E = Bytes.data() + 32 + size_t(I) * 24;
      uint32_t T;
      uint64_t Ofs;
      std::memcpy(&T, E, 4);
      std::memcpy(&Ofs, E + 8, 8);
      std::memcpy(&Len, E + 16, 8);
      if (T == Tag && Ofs + Len <= Bytes.size()) {
        Crc = E + 4;
        Data = Bytes.data() + Ofs;
        return true;
      }
    }
    return false;
  };
  uint8_t *NodeCrc = nullptr, *NodeData = nullptr, *EntryCrc = nullptr,
          *EntryData = nullptr;
  uint64_t NodeLen = 0, EntryLen = 0;
  ASSERT_TRUE(section(store::SecNodes, NodeCrc, NodeData, NodeLen));
  ASSERT_TRUE(section(store::SecEntries, EntryCrc, EntryData, EntryLen));
  const size_t NumNodes = NodeLen / sizeof(rt::ActionNode);
  auto node = [&](uint32_t I) {
    rt::ActionNode N;
    std::memcpy(&N, NodeData + size_t(I) * sizeof(N), sizeof(N));
    return N;
  };

  // The most recently used entry is the one the session is about to
  // revisit; its first Plain node with a successor becomes the cycle.
  rt::CacheEntry Hot;
  for (size_t I = 0; I != EntryLen / sizeof(rt::CacheEntry); ++I) {
    rt::CacheEntry E;
    std::memcpy(&E, EntryData + I * sizeof(E), sizeof(E));
    if (E.Head != rt::ActionNode::NoNode && E.LastUse >= Hot.LastUse)
      Hot = E;
  }
  uint32_t Victim = Hot.Head;
  for (size_t Walked = 0; Victim < NumNodes && Walked != NumNodes;
       ++Walked) {
    const rt::ActionNode N = node(Victim);
    if (N.K == rt::ActionNode::Kind::Plain && N.Next != rt::ActionNode::NoNode)
      break;
    Victim = N.K == rt::ActionNode::Kind::Plain ? N.Next
             : N.K == rt::ActionNode::Kind::Test
                 ? (N.OnValue[0] != rt::ActionNode::NoNode ? N.OnValue[0]
                                                           : N.OnValue[1])
                 : rt::ActionNode::NoNode;
  }
  ASSERT_LT(Victim, NumNodes) << "the hot entry has no linked Plain node";
  rt::ActionNode Cyclic = node(Victim);
  Cyclic.Next = Victim;
  std::memcpy(NodeData + size_t(Victim) * sizeof(Cyclic), &Cyclic,
              sizeof(Cyclic));
  const uint32_t PayloadCrc = snapshot::crc32(NodeData, NodeLen);
  std::memcpy(NodeCrc, &PayloadCrc, 4);
  const uint32_t TableCrc =
      snapshot::crc32(Bytes.data() + 32, size_t(NumSections) * 24,
                      snapshot::crc32(Bytes.data(), 28));
  std::memcpy(Bytes.data() + 28, &TableCrc, 4);

  ASSERT_TRUE(isOk(req(R"({"id":4,"verb":"snapshot-load","session":%lld,)"
                       R"("kind":"cache","bytes_b64":")",
                       base64Encode(Bytes) + "\"")));
  json::Value R = req(R"({"id":5,"verb":"step","session":%lld,)"
                      R"("count":20000)");
  ASSERT_TRUE(isOk(R));
  json::Value St =
      req(R"({"id":6,"verb":"inspect","session":%lld,"what":"stats")");
  ASSERT_TRUE(isOk(St));
  const int64_t Dropped =
      St.get("stats")->get("guard")->get("corrupt_dropped")->intOr(0);
  if (R.get("faulted")->boolOr(false))
    EXPECT_EQ(R.get("fault")->get("kind")->str(), "cache-corrupt");
  else
    EXPECT_GT(Dropped, 0) << "the cycle was never replayed";
  EXPECT_TRUE(isOk(rpc(C, R"({"id":7,"verb":"ping"})")));
}

TEST_F(ServerTest, InspectVariants) {
  Client C = connect();
  int64_t S = createSession(C);
  auto req = [&](const char *Fmt) {
    return rpc(C, strFormat(Fmt, static_cast<long long>(S)));
  };
  EXPECT_TRUE(isOk(req(
      R"({"id":1,"verb":"run","session":%lld,"steps":500})")));

  json::Value R = req(
      R"({"id":2,"verb":"inspect","session":%lld,"what":"stats"})");
  ASSERT_TRUE(isOk(R));
  ASSERT_TRUE(R.get("stats"));
  EXPECT_TRUE(R.get("stats")->get("steps"));

  R = req(R"({"id":3,"verb":"inspect","session":%lld,"what":"digest"})");
  ASSERT_TRUE(isOk(R));
  EXPECT_EQ(R.get("digest")->str().size(), 16u);

  R = req(R"({"id":4,"verb":"inspect","session":%lld,"what":"registers"})");
  ASSERT_TRUE(isOk(R));
  ASSERT_TRUE(R.get("registers") && R.get("registers")->isArray());
  EXPECT_GT(R.get("registers")->array().size(), 0u);

  R = req(R"({"id":5,"verb":"inspect","session":%lld,)"
          R"("what":"global","name":"PC"})");
  ASSERT_TRUE(isOk(R));
  EXPECT_TRUE(R.get("value") && R.get("value")->isInt());

  R = req(R"({"id":6,"verb":"inspect","session":%lld,)"
          R"("what":"memory","addr":0,"words":4})");
  ASSERT_TRUE(isOk(R));
  ASSERT_TRUE(R.get("values") && R.get("values")->isArray());
  EXPECT_EQ(R.get("values")->array().size(), 4u);

  expectError(req(
      R"({"id":7,"verb":"inspect","session":%lld,"what":"soul"})"),
      ErrCode::BadRequest);
  expectError(req(
      R"({"id":8,"verb":"inspect","session":%lld,)"
      R"("what":"global","name":"NOPE"})"),
      ErrCode::BadRequest);
}

TEST_F(ServerTest, WrongTypedSessionMembersChangeNothing) {
  // Each of these once fell back to a default ("what":5 read stats,
  // "kind":3 saved a checkpoint) or was cut to 32 bits ("addr" 2^32 read
  // address 0). Now each is refused before the verb runs, and the session
  // is left exactly as it was.
  Client C = connect();
  int64_t S = createSession(C);
  int64_t Id = 2;
  auto req = [&](const std::string &Body) {
    return rpc(C, strFormat(R"({"id":%lld,"session":%lld,)",
                            static_cast<long long>(Id++),
                            static_cast<long long>(S)) +
                      Body + "}");
  };
  ASSERT_TRUE(isOk(req(R"("verb":"run","steps":300)")));
  auto state = [&] {
    json::Value R = req(R"("verb":"inspect","what":"digest")");
    EXPECT_TRUE(isOk(R));
    return R.get("digest")->str() + "/" +
           std::to_string(R.get("steps_total")->intOr(-1));
  };
  const std::string Before = state();
  const char *Hostile[] = {
      R"("verb":"inspect","what":5)",
      R"("verb":"inspect","what":"memory","addr":4294967296)",
      R"("verb":"inspect","what":"memory","addr":-1)",
      R"("verb":"inspect","what":"memory","addr":0,"words":0)",
      R"("verb":"inspect","what":"memory")",
      R"("verb":"snapshot-save","kind":3)",
      R"("verb":"snapshot-load","kind":"cache")",
      R"("verb":"snapshot-load","bytes_b64":7)",
      R"("verb":"step","count":"5")",
      R"("verb":"step","count":1e300)",
      R"("verb":"run","steps":0)",
      R"("verb":"run","instrs":true)",
      R"("verb":"run","deadline_ms":-1)",
  };
  for (const char *Body : Hostile) {
    SCOPED_TRACE(Body);
    expectError(req(Body), ErrCode::BadRequest);
    EXPECT_EQ(state(), Before);
  }
  json::Value R = rpc(C, R"({"id":1,"verb":"stats"})");
  ASSERT_TRUE(isOk(R));
  EXPECT_EQ(R.get("stats")->get("server")->get("sessions_created")->intOr(-1),
            1);
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

TEST_F(ServerTest, StatsExposesDaemonAndSessionGroups) {
  Client C = connect();
  int64_t S = createSession(C);
  EXPECT_TRUE(isOk(rpc(C, strFormat(
      R"({"id":1,"verb":"run","session":%lld,"steps":300})",
      static_cast<long long>(S)))));

  std::string Raw = Server->statsJson();
  EXPECT_TRUE(testjson::validJson(Raw));
  for (const char *Key :
       {"server", "sessions", "active_sessions", "peak_sessions",
        "sessions_created", "sessions_destroyed", "faulted_sessions",
        "queued_requests", "active_connections", "connections_total",
        "requests_total", "responses_total", "protocol_errors",
        "shared_programs", "store_mappings", "workers", "shutting_down"}) {
    SCOPED_TRACE(Key);
    EXPECT_TRUE(testjson::hasKey(Raw, Key));
  }
  // Per-session group with its counters.
  EXPECT_TRUE(testjson::hasKey(
      Raw, strFormat("s%lld", static_cast<long long>(S))));
  for (const char *Key : {"sim", "workload", "verbs", "steps", "fast_steps",
                          "retired", "cycles", "halted", "faulted",
                          "store_attached", "overlay_bytes"}) {
    SCOPED_TRACE(Key);
    EXPECT_TRUE(testjson::hasKey(Raw, Key));
  }

  // The same document is served over the wire.
  json::Value R = rpc(C, R"({"id":2,"verb":"stats"})");
  ASSERT_TRUE(isOk(R));
  const json::Value *Stats = R.get("stats");
  ASSERT_TRUE(Stats && Stats->isObject());
  ASSERT_TRUE(Stats->get("server"));
  EXPECT_GE(Stats->get("server")->get("requests_total")->intOr(0), 2);
  ASSERT_TRUE(Stats->get("sessions"));
  // Each session carries its admission group, as statsJson() does.
  const json::Value *G = Stats->get("sessions")->get(
      strFormat("s%lld", static_cast<long long>(S)));
  ASSERT_TRUE(G && G->get("admission"));
  const json::Value *Adm = G->get("admission");
  for (const char *Key : {"mode", "unadmitted_steps", "second_touch_admits",
                          "mode_switches", "entries_never_hit"}) {
    SCOPED_TRACE(Key);
    EXPECT_TRUE(Adm->get(Key));
  }
  const std::string Mode = Adm->get("mode")->str();
  EXPECT_TRUE(Mode == "first-touch" || Mode == "second-touch") << Mode;
}

//===----------------------------------------------------------------------===//
// Fault isolation
//===----------------------------------------------------------------------===//

TEST_F(ServerTest, InjectedFaultStaysInItsSession) {
  Client C = connect();
  // Two sessions over the same pooled SharedProgram: a victim with an
  // aggressive plan-truncation campaign, and a clean sibling.
  int64_t Victim =
      createSession(C, R"(,"fault_inject":"seed:7,plan:1.0")");
  int64_t Clean = createSession(C);
  ASSERT_GT(Victim, 0);
  ASSERT_GT(Clean, 0);

  json::Value R = rpc(C, strFormat(
      R"({"id":1,"verb":"run","session":%lld,"steps":100000})",
      static_cast<long long>(Victim)));
  ASSERT_TRUE(isOk(R));
  // Plan truncation fires on every inject (p=1.0); the guarded engines
  // must turn it into a structured plan-corrupt fault.
  ASSERT_TRUE(R.get("status"));
  EXPECT_EQ(R.get("status")->str(), "faulted");
  ASSERT_TRUE(R.get("fault") && R.get("fault")->get("kind"));
  EXPECT_EQ(R.get("fault")->get("kind")->str(), "plan-corrupt");

  // The sibling — reading the same SharedProgram the victim's injector
  // just mutated through its private copy — must finish exactly like a
  // standalone run.
  R = rpc(C, strFormat(
      R"({"id":2,"verb":"run","session":%lld,"steps":16000000})",
      static_cast<long long>(Clean)));
  ASSERT_TRUE(isOk(R));
  EXPECT_EQ(R.get("status")->str(), "halted");
  Outcome Want = standaloneOutcome();
  EXPECT_EQ(static_cast<uint64_t>(R.get("retired_total")->intOr(0)),
            Want.Retired);
  EXPECT_EQ(static_cast<uint64_t>(R.get("cycles")->intOr(0)), Want.Cycles);
  R = rpc(C, strFormat(
      R"({"id":3,"verb":"inspect","session":%lld,"what":"digest"})",
      static_cast<long long>(Clean)));
  ASSERT_TRUE(isOk(R));
  EXPECT_EQ(R.get("digest")->str(), Want.Digest);

  // Daemon-level accounting sees exactly one faulted session; the daemon
  // itself never died.
  std::string Raw = Server->statsJson();
  EXPECT_TRUE(testjson::hasKey(Raw, "faulted_sessions"));
  json::Value Stats;
  std::string PErr;
  ASSERT_TRUE(json::parse(Raw, Stats, PErr, 8)) << PErr;
  EXPECT_EQ(Stats.get("server")->get("faulted_sessions")->intOr(-1), 1);
  EXPECT_GE(Stats.get("sessions")
                ->get(strFormat("s%lld", static_cast<long long>(Victim)))
                ->get("injected_faults")
                ->intOr(0),
            1);
}

//===----------------------------------------------------------------------===//
// Concurrency: 64 sessions, one SharedProgram, bit-identical results
//===----------------------------------------------------------------------===//

TEST_F(ServerTest, SixtyFourConcurrentSessionsMatchStandalone) {
  constexpr int NumThreads = 8;
  constexpr int SessionsPerThread = 8;
  Outcome Want = standaloneOutcome();
  ASSERT_TRUE(Want.Halted);

  std::atomic<int> PoolMisses{0};
  std::atomic<int> Failures{0};
  std::vector<std::string> Errors(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      auto failed = [&](const std::string &Why) {
        Errors[T] = Why;
        ++Failures;
      };
      Client C;
      std::string Err;
      if (!C.connectTcp(Server->port(), &Err))
        return failed("connect: " + Err);
      std::vector<int64_t> Mine;
      for (int I = 0; I != SessionsPerThread; ++I) {
        json::Value R;
        if (!C.rpc(R"({"id":1,"verb":"create","sim":"functional",)"
                   R"("workload":"compress","data_kwords":2})",
                   R, &Err))
          return failed("create rpc: " + Err);
        const json::Value *Ok = R.get("ok");
        if (!Ok || !Ok->boolOr(false))
          return failed("create refused");
        if (R.get("shared_program") &&
            !R.get("shared_program")->boolOr(true))
          ++PoolMisses;
        Mine.push_back(R.get("session")->intOr(0));
      }
      // Interleave all of this thread's sessions through short step/run
      // bursts so many sessions are mid-flight at once. Ids on mutating
      // verbs identify logical requests (the server dedups retransmitted
      // duplicates), so each burst gets a fresh one.
      bool AllHalted = false;
      long long NextId = 100;
      while (!AllHalted) {
        AllHalted = true;
        for (int64_t S : Mine) {
          json::Value R;
          const char *Fmt =
              (S & 1) ? R"({"id":%lld,"verb":"run","session":%lld,)"
                        R"("steps":4000})"
                      : R"({"id":%lld,"verb":"step","session":%lld,)"
                        R"("count":4000})";
          if (!C.rpc(strFormat(Fmt, ++NextId, static_cast<long long>(S)), R,
                     &Err))
            return failed("burst rpc: " + Err);
          if (!R.get("ok")->boolOr(false))
            return failed("burst refused");
          if (!R.get("halted")->boolOr(false))
            AllHalted = false;
        }
      }
      // Every session must agree with the standalone oracle bit-for-bit.
      for (int64_t S : Mine) {
        json::Value R;
        if (!C.rpc(strFormat(R"({"id":3,"verb":"inspect","session":%lld,)"
                             R"("what":"digest"})",
                             static_cast<long long>(S)),
                   R, &Err))
          return failed("digest rpc: " + Err);
        if (R.get("digest")->str() != Want.Digest)
          return failed("digest mismatch on session " + std::to_string(S));
        if (!C.rpc(strFormat(R"({"id":4,"verb":"inspect","session":%lld,)"
                             R"("what":"stats"})",
                             static_cast<long long>(S)),
                   R, &Err))
          return failed("stats rpc: " + Err);
        const json::Value *St = R.get("stats");
        if (static_cast<uint64_t>(St->get("retired_total")->intOr(0)) !=
                Want.Retired ||
            static_cast<uint64_t>(St->get("cycles")->intOr(0)) !=
                Want.Cycles)
          return failed("counters mismatch on session " +
                        std::to_string(S));
      }
      for (int64_t S : Mine) {
        json::Value R;
        if (!C.rpc(strFormat(R"({"id":5,"verb":"destroy","session":%lld})",
                             static_cast<long long>(S)),
                   R, &Err))
          return failed("destroy rpc: " + Err);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  for (const std::string &E : Errors)
    EXPECT_TRUE(E.empty()) << E;
  ASSERT_EQ(Failures.load(), 0);
  // All 64 sessions shared one pooled SharedProgram: exactly one create
  // built it, the other 63 reused it.
  EXPECT_EQ(PoolMisses.load(), 1);

  json::Value Stats;
  std::string PErr;
  ASSERT_TRUE(json::parse(Server->statsJson(), Stats, PErr, 8)) << PErr;
  const json::Value *Srv = Stats.get("server");
  EXPECT_EQ(Srv->get("sessions_created")->intOr(0),
            NumThreads * SessionsPerThread);
  EXPECT_EQ(Srv->get("sessions_destroyed")->intOr(0),
            NumThreads * SessionsPerThread);
  EXPECT_EQ(Srv->get("active_sessions")->intOr(-1), 0);
  EXPECT_GE(Srv->get("peak_sessions")->intOr(0), SessionsPerThread);
  EXPECT_EQ(Srv->get("shared_programs")->intOr(0), 1);
  EXPECT_EQ(Srv->get("protocol_errors")->intOr(-1), 0);
}

//===----------------------------------------------------------------------===//
// Shutdown
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// Batch verb
//===----------------------------------------------------------------------===//

TEST_F(ServerTest, BatchExecutesSubRequestsInOrder) {
  Client C = connect();
  int64_t S = createSession(C);
  json::Value R = rpc(
      C, strFormat(R"({"id":9,"verb":"batch","requests":[)"
                   R"({"id":10,"verb":"step","session":%lld,"count":100},)"
                   R"({"id":11,"verb":"inspect","session":%lld,"what":"digest"},)"
                   R"({"id":12,"verb":"run","session":%lld,"steps":100}]})",
                   static_cast<long long>(S), static_cast<long long>(S),
                   static_cast<long long>(S)));
  ASSERT_TRUE(isOk(R));
  EXPECT_EQ(R.get("id")->intOr(-1), 9);
  EXPECT_EQ(R.get("count")->intOr(-1), 3);
  const json::Value *Replies = R.get("replies");
  ASSERT_TRUE(Replies && Replies->isArray());
  ASSERT_EQ(Replies->array().size(), size_t(3));
  // Replies come back in request order with the sub-ids echoed.
  for (size_t I = 0; I != 3; ++I) {
    SCOPED_TRACE("reply " + std::to_string(I));
    const json::Value &Sub = Replies->array()[I];
    EXPECT_TRUE(isOk(Sub));
    EXPECT_EQ(Sub.get("id")->intOr(-1), static_cast<int64_t>(10 + I));
  }
  EXPECT_TRUE(Replies->array()[1].get("digest"));
  EXPECT_EQ(Replies->array()[0].get("steps")->intOr(0), 100);
}

TEST_F(ServerTest, BatchIsolatesBadElements) {
  Client C = connect();
  int64_t S = createSession(C);
  // One good element surrounded by every way an element can be bad: a
  // non-object, an unknown verb, a nested batch, a control verb, and a
  // dead session. Each must fail alone without sinking the rest.
  json::Value R = rpc(
      C, strFormat(R"({"id":1,"verb":"batch","requests":[)"
                   R"(5,)"
                   R"({"id":20,"verb":"step","session":%lld,"count":10},)"
                   R"({"id":21,"verb":"bogus","session":%lld},)"
                   R"({"id":22,"verb":"batch","requests":[]},)"
                   R"({"id":23,"verb":"create","sim":"functional"},)"
                   R"({"id":24,"verb":"step","session":999999,"count":1}]})",
                   static_cast<long long>(S), static_cast<long long>(S)));
  ASSERT_TRUE(isOk(R));
  const json::Value *Replies = R.get("replies");
  ASSERT_TRUE(Replies && Replies->isArray());
  ASSERT_EQ(Replies->array().size(), size_t(6));
  expectError(Replies->array()[0], ErrCode::BadRequest);
  EXPECT_TRUE(isOk(Replies->array()[1]));
  expectError(Replies->array()[2], ErrCode::UnknownVerb);
  expectError(Replies->array()[3], ErrCode::BadRequest);
  expectError(Replies->array()[4], ErrCode::BadRequest);
  expectError(Replies->array()[5], ErrCode::UnknownSession);
  // The good sub-request really ran.
  json::Value Stats = rpc(
      C, strFormat(R"({"id":2,"verb":"inspect","session":%lld})",
                   static_cast<long long>(S)));
  ASSERT_TRUE(isOk(Stats));
}

TEST_F(ServerTest, BatchShapeAndLimits) {
  Client C = connect();
  expectError(rpc(C, R"({"id":1,"verb":"batch"})"), ErrCode::BadRequest);
  expectError(rpc(C, R"({"id":2,"verb":"batch","requests":5})"),
              ErrCode::BadRequest);

  // An empty batch is a well-formed no-op.
  json::Value Empty = rpc(C, R"({"id":3,"verb":"batch","requests":[]})");
  ASSERT_TRUE(isOk(Empty));
  EXPECT_EQ(Empty.get("count")->intOr(-1), 0);
  ASSERT_TRUE(Empty.get("replies") && Empty.get("replies")->isArray());
  EXPECT_TRUE(Empty.get("replies")->array().empty());

  // One element over the cap is rejected outright — nothing runs.
  std::string Big = R"({"id":4,"verb":"batch","requests":[)";
  for (size_t I = 0; I != MaxBatchRequests + 1; ++I) {
    if (I)
      Big += ',';
    Big += R"({"id":1,"verb":"step","session":0,"count":1})";
  }
  Big += "]}";
  expectError(rpc(C, Big), ErrCode::Oversized);
}

//===----------------------------------------------------------------------===//
// Shared cache store: N sessions, one mapping
//===----------------------------------------------------------------------===//

TEST_F(ServerTest, SixteenSessionsShareOneStoreMapping) {
  // Populate a store from a standalone builder, then restart the server
  // over it: sixteen memoizing sessions must every one attach the same
  // promoted generation — one mapping process-wide, per-session bytes only
  // in the copy-on-write overlays — and finish bit-identical to the
  // standalone oracle.
  std::string Dir = ::testing::TempDir() + "facile_server_store";
  isa::TargetImage Image = workload::generate(stressSpec(), 2);
  sims::FacileSim Builder(sims::SimKind::Functional, Image);
  Builder.run(1u << 26);
  {
    store::CacheStoreDir Store(Dir);
    std::string Err;
    ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
  }
  Outcome Want = standaloneOutcome();

  TearDown();
  ServerOptions Opts;
  Opts.CacheStorePath = Dir;
  startServer(std::move(Opts));

  constexpr int NumSessions = 16;
  Client C = connect();
  std::vector<int64_t> Sessions;
  for (int I = 0; I != NumSessions; ++I) {
    json::Value R = rpc(
        C, R"({"id":1,"verb":"create","sim":"functional",)"
           R"("workload":"compress","data_kwords":2})");
    ASSERT_TRUE(isOk(R));
    ASSERT_TRUE(R.get("store_attached"));
    EXPECT_TRUE(R.get("store_attached")->boolOr(false));
    ASSERT_TRUE(R.get("store_generation"));
    EXPECT_EQ(R.get("store_generation")->intOr(0), 1);
    Sessions.push_back(R.get("session")->intOr(-1));
  }

  for (int64_t S : Sessions) {
    bool Halted = false;
    for (int Burst = 0; Burst != 64 && !Halted; ++Burst) {
      json::Value R = rpc(
          C, strFormat(R"({"id":1,"verb":"run","session":%lld,)"
                       R"("steps":1000000})",
                       static_cast<long long>(S)));
      ASSERT_TRUE(isOk(R));
      Halted = R.get("halted")->boolOr(false);
    }
    ASSERT_TRUE(Halted);
    json::Value D = rpc(
        C, strFormat(R"({"id":2,"verb":"inspect","session":%lld,)"
                     R"("what":"digest"})",
                     static_cast<long long>(S)));
    ASSERT_TRUE(isOk(D));
    EXPECT_EQ(D.get("digest")->str(), Want.Digest);
  }

  // One mapping serves all sixteen sessions; warm replay really happened;
  // every session carries its own overlay accounting.
  json::Value Stats = rpc(C, R"({"id":3,"verb":"stats"})");
  ASSERT_TRUE(isOk(Stats));
  const json::Value *Srv = Stats.get("stats")->get("server");
  ASSERT_TRUE(Srv);
  EXPECT_EQ(Srv->get("store_mappings")->intOr(-1), 1);
  const json::Value *Sess = Stats.get("stats")->get("sessions");
  ASSERT_TRUE(Sess && Sess->isObject());
  for (int64_t S : Sessions) {
    SCOPED_TRACE("session " + std::to_string(S));
    const json::Value *G =
        Sess->get(strFormat("s%lld", static_cast<long long>(S)));
    ASSERT_TRUE(G && G->isObject());
    EXPECT_TRUE(G->get("store_attached")->boolOr(false));
    EXPECT_EQ(G->get("store_generation")->intOr(-1), 1);
    EXPECT_GT(G->get("base_bytes")->intOr(0), 0);
    ASSERT_TRUE(G->get("overlay_bytes"));
    EXPECT_GT(G->get("fast_steps")->intOr(0), 0);
  }

  // Sweep the store directory (content addressing keyed one file).
  std::remove((Dir + "/" +
               store::CacheStoreDir::fileName(Builder.sim().compatKey(), 1))
                  .c_str());
  ::rmdir(Dir.c_str());
}

TEST_F(ServerTest, ShutdownVerbStopsTheServer) {
  Client C = connect();
  int64_t S = createSession(C);
  ASSERT_GT(S, 0);
  json::Value R = rpc(C, R"({"id":1,"verb":"shutdown"})");
  EXPECT_TRUE(isOk(R));
  Server->wait(); // must return: the verb initiated a full stop
  // New connections are refused once the listener is down.
  Client C2;
  EXPECT_FALSE(C2.connectTcp(Server->port()));
}

//===----------------------------------------------------------------------===//
// Resilience: deadlines, backpressure, reaping, dedup, drain
//===----------------------------------------------------------------------===//

TEST_F(ServerTest, DeadlineExceededSessionStaysResumable) {
  Client C = connect();
  // 1 ms per 256-step chunk makes a 5 ms budget certain to expire inside
  // the run without a huge workload.
  int64_t S = createSession(C, R"(,"options":{"step_delay_us":1000})");
  ASSERT_GT(S, 0);
  json::Value R = rpc(
      C, strFormat(R"({"id":1,"verb":"run","session":%lld,)"
                   R"("steps":100000,"deadline_ms":5})",
                   static_cast<long long>(S)));
  ASSERT_TRUE(isOk(R)); // the envelope is ok; the *session* faulted
  ASSERT_TRUE(R.get("faulted"));
  EXPECT_TRUE(R.get("faulted")->boolOr(false));
  ASSERT_TRUE(R.get("fault") && R.get("fault")->get("kind"));
  EXPECT_EQ(R.get("fault")->get("kind")->str(), "deadline-exceeded");
  uint64_t StepsAtFault =
      static_cast<uint64_t>(R.get("steps_total")->intOr(0));
  EXPECT_GT(StepsAtFault, 0u);

  // The fault is cooperative, not fatal: clear it and the session steps on
  // from exactly where it stopped.
  R = rpc(C, strFormat(R"({"id":2,"verb":"clear-fault","session":%lld})",
                       static_cast<long long>(S)));
  EXPECT_TRUE(isOk(R));
  R = rpc(C, strFormat(R"({"id":3,"verb":"step","session":%lld,"count":64})",
                       static_cast<long long>(S)));
  ASSERT_TRUE(isOk(R));
  EXPECT_FALSE(R.get("faulted")->boolOr(true));
  EXPECT_EQ(static_cast<uint64_t>(R.get("steps_total")->intOr(0)),
            StepsAtFault + 64);

  json::Value Stats = rpc(C, R"({"id":4,"verb":"stats"})");
  ASSERT_TRUE(isOk(Stats));
  const json::Value *Srv = Stats.get("stats")->get("server");
  ASSERT_TRUE(Srv && Srv->get("deadline_faults"));
  EXPECT_GE(Srv->get("deadline_faults")->intOr(0), 1);
}

TEST_F(ServerTest, StepLimitInsideCountCountsOnlyStepsThatRan) {
  // A 10-step watchdog fires inside a 20-step request. The call that
  // faults runs nothing, so it is not a step: steps, the engine breakdown
  // and steps_total agree.
  Client C = connect();
  int64_t S = createSession(C, R"(,"options":{"max_steps":10})");
  auto step = [&](int64_t Id, int Count) {
    return rpc(C, strFormat(R"({"id":%lld,"verb":"step","session":%lld,)"
                            R"("count":%d})",
                            static_cast<long long>(Id),
                            static_cast<long long>(S), Count));
  };
  auto engineSum = [](const json::Value &R) {
    const json::Value *E = R.get("engines");
    return E->get("slow")->intOr(-1) + E->get("fast")->intOr(-1) +
           E->get("recovered")->intOr(-1);
  };
  json::Value R = step(2, 20);
  ASSERT_TRUE(isOk(R));
  EXPECT_TRUE(R.get("faulted")->boolOr(false));
  EXPECT_EQ(R.get("fault")->get("kind")->str(), "step-limit");
  EXPECT_EQ(R.get("steps")->intOr(-1), 10);
  EXPECT_EQ(engineSum(R), 10);
  EXPECT_EQ(R.get("steps_total")->intOr(-1), 10);
  // A step request on the faulted session runs nothing at all.
  R = step(3, 5);
  ASSERT_TRUE(isOk(R));
  EXPECT_EQ(R.get("steps")->intOr(-1), 0);
  EXPECT_EQ(engineSum(R), 0);
  EXPECT_EQ(R.get("steps_total")->intOr(-1), 10);
}

TEST_F(ServerTest, ClearFaultRejectsBadStepLimitAndKeepsTheFault) {
  // A malformed new limit once cleared the fault first and then read "x"
  // as 0 (no watchdog) or -1 as ~2^64. It must be refused before anything
  // changes: the fault and the old limit both stay.
  Client C = connect();
  int64_t S = createSession(C, R"(,"options":{"max_steps":10})");
  int64_t Id = 2;
  auto req = [&](const std::string &Body) {
    return rpc(C, strFormat(R"({"id":%lld,"session":%lld,)",
                            static_cast<long long>(Id++),
                            static_cast<long long>(S)) +
                      Body + "}");
  };
  auto stillFaulted = [&] {
    json::Value R = req(R"("verb":"inspect","what":"digest")");
    return isOk(R) && R.get("faulted")->boolOr(false);
  };
  ASSERT_TRUE(isOk(req(R"("verb":"step","count":20)")));
  ASSERT_TRUE(stillFaulted());
  for (const char *Bad : {R"("x")", "-1", "1.5"}) {
    SCOPED_TRACE(Bad);
    expectError(req(std::string(R"("verb":"clear-fault","max_steps":)") +
                    Bad),
                ErrCode::BadRequest);
    EXPECT_TRUE(stillFaulted());
  }
  // The old limit is still armed: clearing without a new one re-faults on
  // the next step.
  json::Value R = req(R"("verb":"clear-fault")");
  ASSERT_TRUE(isOk(R));
  EXPECT_TRUE(R.get("cleared")->boolOr(false));
  R = req(R"("verb":"step","count":5)");
  ASSERT_TRUE(isOk(R));
  EXPECT_EQ(R.get("steps")->intOr(-1), 0);
  EXPECT_TRUE(R.get("faulted")->boolOr(false));
  // A valid limit replaces it.
  ASSERT_TRUE(isOk(req(R"("verb":"clear-fault","max_steps":30)")));
  R = req(R"("verb":"step","count":50)");
  ASSERT_TRUE(isOk(R));
  EXPECT_EQ(R.get("steps")->intOr(-1), 20);
  EXPECT_EQ(R.get("steps_total")->intOr(-1), 30);
}

TEST_F(ServerTest, SaturatedQueueRejectsWithRetryAfter) {
  TearDown();
  ServerOptions Opts;
  Opts.Workers = 1;
  Opts.MaxQueueDepth = 1;
  startServer(std::move(Opts));

  // A slow session pins the single worker for hundreds of milliseconds...
  Client Hog = connect();
  int64_t S = createSession(Hog, R"(,"options":{"step_delay_us":5000})");
  ASSERT_GT(S, 0);
  ASSERT_TRUE(Hog.sendLine(
      strFormat(R"({"id":1,"verb":"run","session":%lld,"steps":20000})",
                static_cast<long long>(S))));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // ...so a burst can hold at most one queue slot; the rest must be
  // rejected immediately with the admission-control error, not buffered.
  Client Burst = connect();
  for (int I = 0; I != 4; ++I)
    ASSERT_TRUE(Burst.sendLine(strFormat(R"({"id":%d,"verb":"ping"})", I)));
  int Overloaded = 0, Ok = 0;
  for (int I = 0; I != 4; ++I) {
    std::string Line;
    ASSERT_TRUE(Burst.recvLine(Line));
    json::Value R;
    std::string PErr;
    ASSERT_TRUE(json::parse(Line, R, PErr)) << Line;
    if (isOk(R)) {
      ++Ok;
      continue;
    }
    expectError(R, ErrCode::Overloaded);
    ASSERT_TRUE(R.get("error")->get("retry_after_ms"));
    EXPECT_GT(R.get("error")->get("retry_after_ms")->intOr(0), 0);
    ++Overloaded;
  }
  EXPECT_GE(Overloaded, 1);
  EXPECT_GE(Ok, 1); // the queued ping is served once the hog finishes
  std::string HogReply;
  EXPECT_TRUE(Hog.recvLine(HogReply)); // the hog run itself completed

  json::Value Stats = rpc(Burst, R"({"id":9,"verb":"stats"})");
  ASSERT_TRUE(isOk(Stats));
  EXPECT_GE(Stats.get("stats")->get("server")->get("admission_rejects")
                ->intOr(0),
            Overloaded);
}

TEST_F(ServerTest, ClientBackoffConformance) {
  // Retry-safe requests: MaxAttempts dials with exponential backoff
  // between them. Against a dead server every attempt transport-fails, so
  // the elapsed time bounds the waits from below (jitter is -12.5% worst
  // case: 40 + 80 ms nominal -> at least 105 ms for two sleeps).
  Client C = connect();
  uint16_t Port = Server->port();
  Server->requestShutdown();
  Server->wait();

  RetryPolicy P;
  P.MaxAttempts = 3;
  P.BaseBackoffMs = 40;
  C.setRetryPolicy(P);
  json::Value R;
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(C.rpcRetry(R"({"id":1,"verb":"ping"})", R));
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  EXPECT_EQ(C.lastAttempts(), 3u);
  EXPECT_GE(ElapsedMs, 100);

  // A mutating request without id+session must never be retried: one
  // attempt, no backoff sleeps.
  T0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(C.rpcRetry(R"({"verb":"run","session":1})", R));
  ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  EXPECT_EQ(C.lastAttempts(), 1u);
  EXPECT_LT(ElapsedMs, 100);

  // Restart on the old port is not guaranteed; re-point TearDown at a
  // fresh server so the fixture teardown has something to stop.
  ServerOptions Opts;
  startServer(std::move(Opts));
  (void)Port;
}

TEST_F(ServerTest, DuplicateMutatingRequestIsDeduped) {
  Client C = connect();
  int64_t S = createSession(C);
  ASSERT_GT(S, 0);
  std::string Step =
      strFormat(R"({"id":77,"verb":"step","session":%lld,"count":1})",
                static_cast<long long>(S));
  json::Value R1 = rpc(C, Step);
  ASSERT_TRUE(isOk(R1));
  EXPECT_EQ(R1.get("steps_total")->intOr(-1), 1);
  // The retry (same id, same session) must replay the stored response, not
  // execute a second step.
  json::Value R2 = rpc(C, Step);
  ASSERT_TRUE(isOk(R2));
  EXPECT_EQ(R2.get("steps_total")->intOr(-1), 1);

  json::Value Stats = rpc(C, R"({"id":78,"verb":"stats"})");
  EXPECT_GE(Stats.get("stats")->get("server")->get("deduped_requests")
                ->intOr(0),
            1);

  // A different id on the same session executes normally.
  json::Value R3 = rpc(
      C, strFormat(R"({"id":79,"verb":"step","session":%lld,"count":1})",
                   static_cast<long long>(S)));
  ASSERT_TRUE(isOk(R3));
  EXPECT_EQ(R3.get("steps_total")->intOr(-1), 2);
}

TEST_F(ServerTest, IdleConnectionToldAndClosed) {
  TearDown();
  ServerOptions Opts;
  Opts.ConnIdleTimeoutMs = 100; // reader polls at 200 ms granularity
  startServer(std::move(Opts));

  Client C = connect();
  // Say nothing: the slowloris guard must first explain, then close.
  std::string Line;
  ASSERT_TRUE(C.recvLine(Line));
  json::Value R;
  std::string PErr;
  ASSERT_TRUE(json::parse(Line, R, PErr)) << Line;
  expectError(R, ErrCode::IdleTimeout);
  EXPECT_FALSE(C.recvLine(Line)); // EOF follows the diagnostic

  // An active connection with the same timeout survives its own idleness
  // while a request is in flight (InFlight holds the timer off).
  Client C2 = connect();
  int64_t S = createSession(C2, R"(,"options":{"step_delay_us":2000})");
  ASSERT_GT(S, 0);
  json::Value R2 = rpc(
      C2, strFormat(R"({"id":1,"verb":"run","session":%lld,"steps":40000})",
                    static_cast<long long>(S)));
  EXPECT_TRUE(isOk(R2)); // took ~300 ms > idle window, yet not closed
}

TEST_F(ServerTest, IdleSessionReapedAndResumedByToken) {
  TearDown();
  ServerOptions Opts;
  Opts.SessionIdleTtlMs = 150;
  startServer(std::move(Opts));

  Client C = connect();
  json::Value R = rpc(
      C, R"({"id":1,"verb":"create","sim":"functional",)"
         R"("workload":"compress","data_kwords":2})");
  ASSERT_TRUE(isOk(R));
  int64_t S = R.get("session")->intOr(-1);
  ASSERT_TRUE(R.get("resume_token"));
  std::string Token = R.get("resume_token")->str();
  ASSERT_FALSE(Token.empty());

  R = rpc(C, strFormat(R"({"id":2,"verb":"run","session":%lld,)"
                       R"("steps":5000})",
                       static_cast<long long>(S)));
  ASSERT_TRUE(isOk(R));
  uint64_t Steps = static_cast<uint64_t>(R.get("steps_total")->intOr(0));
  json::Value D = rpc(
      C, strFormat(R"({"id":3,"verb":"inspect","session":%lld,)"
                   R"("what":"digest"})",
                   static_cast<long long>(S)));
  std::string Digest = D.get("digest")->str();

  // Idle past the TTL: the reaper spills the session to a snapshot.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  R = rpc(C, strFormat(R"({"id":4,"verb":"step","session":%lld})",
                       static_cast<long long>(S)));
  expectError(R, ErrCode::UnknownSession);

  // The token brings it back: same step count, same memory, and stepping
  // continues as if nothing happened.
  R = rpc(C, strFormat(R"({"id":5,"verb":"create","resume_token":"%s"})",
                       Token.c_str()));
  ASSERT_TRUE(isOk(R)) << "resume failed";
  EXPECT_TRUE(R.get("resumed")->boolOr(false));
  EXPECT_EQ(static_cast<uint64_t>(R.get("steps_total")->intOr(0)), Steps);
  int64_t S2 = R.get("session")->intOr(-1);
  D = rpc(C, strFormat(R"({"id":6,"verb":"inspect","session":%lld,)"
                       R"("what":"digest"})",
                       static_cast<long long>(S2)));
  EXPECT_EQ(D.get("digest")->str(), Digest);
  R = rpc(C, strFormat(R"({"id":7,"verb":"step","session":%lld,"count":1})",
                       static_cast<long long>(S2)));
  EXPECT_TRUE(isOk(R));

  // An unknown token is a structured error, not a blind cold create.
  R = rpc(C, R"({"id":8,"verb":"create","resume_token":"rt-bogus"})");
  expectError(R, ErrCode::UnknownToken);

  json::Value Stats = rpc(C, R"({"id":9,"verb":"stats"})");
  const json::Value *Srv = Stats.get("stats")->get("server");
  EXPECT_GE(Srv->get("reaped_sessions")->intOr(0), 1);
  EXPECT_GE(Srv->get("resumed_sessions")->intOr(0), 1);
}

TEST_F(ServerTest, BatchReplyBytesAreCapped) {
  TearDown();
  ServerOptions Opts;
  Opts.MaxBatchReplyBytes = 1024;
  startServer(std::move(Opts));

  Client C = connect();
  int64_t S = createSession(C);
  ASSERT_GT(S, 0);
  // snapshot-save's base64 checkpoint alone blows the 1 KiB budget, so the
  // elements after it must be skipped (never executed) with their own
  // errors, and the envelope must say so.
  json::Value R = rpc(
      C, strFormat(R"({"id":1,"verb":"batch","requests":[)"
                   R"({"id":10,"verb":"snapshot-save","session":%lld,)"
                   R"("what":"checkpoint"},)"
                   R"({"id":11,"verb":"inspect","session":%lld,)"
                   R"("what":"digest"},)"
                   R"({"id":12,"verb":"step","session":%lld}]})",
                   static_cast<long long>(S), static_cast<long long>(S),
                   static_cast<long long>(S)));
  ASSERT_TRUE(isOk(R));
  ASSERT_TRUE(R.get("truncated"));
  EXPECT_TRUE(R.get("truncated")->boolOr(false));
  const auto &Replies = R.get("replies")->array();
  ASSERT_EQ(Replies.size(), 3u);
  EXPECT_TRUE(Replies[0].get("ok")->boolOr(false)); // crossing element kept
  for (size_t I = 1; I != 3; ++I) {
    SCOPED_TRACE("reply " + std::to_string(I));
    expectError(Replies[I], ErrCode::Oversized);
  }
  // The skipped step never executed.
  json::Value St = rpc(
      C, strFormat(R"({"id":2,"verb":"inspect","session":%lld})",
                   static_cast<long long>(S)));
  EXPECT_TRUE(isOk(St));
}

TEST_F(ServerTest, DrainRequestFinishesInFlightAndStops) {
  Client C = connect();
  int64_t S = createSession(C, R"(,"options":{"step_delay_us":2000})");
  ASSERT_GT(S, 0);
  // Launch a slow run, then request the drain while it is in flight: the
  // run must complete normally, the drain must then stop the server.
  ASSERT_TRUE(C.sendLine(
      strFormat(R"({"id":1,"verb":"run","session":%lld,"steps":20000})",
                static_cast<long long>(S))));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Server->requestDrain();

  std::string Line;
  ASSERT_TRUE(C.recvLine(Line)); // the in-flight run's reply
  json::Value R;
  std::string PErr;
  ASSERT_TRUE(json::parse(Line, R, PErr)) << Line;
  EXPECT_TRUE(isOk(R));

  Server->wait(); // drain completes on its own; no requestShutdown needed
  Client C2;
  EXPECT_FALSE(C2.connectTcp(Server->port()));
}

TEST(ServerLifecycle, RepeatedStartStopNeverHangs) {
  // A shutdown that sets Stop and notifies the queue's condition variable
  // without ordering itself against the workers' predicate tests can leave
  // a worker asleep forever, and then wait() blocks in joinAll. The window
  // is a worker just starting up, so stop each server as soon as it has
  // started. The window is nanoseconds wide (a lost wake-up hangs this
  // loop about once in ten runs), so CI repeats it. A hang cannot be
  // joined, so the watchdog reports it and aborts rather than stalling.
  constexpr int Rounds = 2000;
  std::atomic<int> Done{0};
  std::promise<std::string> Result;
  std::future<std::string> Finished = Result.get_future();
  std::thread Runner([&] {
    std::string Err;
    for (int I = 0; I != Rounds; ++I) {
      ServerOptions O;
      O.Workers = 4;
      FacileServer S{std::move(O)};
      if (!S.start(&Err))
        break;
      S.requestShutdown();
      S.wait();
      Done.fetch_add(1, std::memory_order_relaxed);
    }
    Result.set_value(Err);
  });
  if (Finished.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    std::fprintf(stderr,
                 "RepeatedStartStopNeverHangs: server stop hung after %d of "
                 "%d rounds\n",
                 Done.load(), Rounds);
    std::abort();
  }
  Runner.join();
  EXPECT_EQ(Finished.get(), "");
  EXPECT_EQ(Done.load(), Rounds);
}

TEST(ServerUnixSocket, LiveSocketRefusedStaleSocketRebound) {
  std::string Path =
      "/tmp/facile-test-sock-" + std::to_string(::getpid());
  ::unlink(Path.c_str());

  ServerOptions O1;
  O1.UnixPath = Path;
  FacileServer S1{std::move(O1)};
  std::string Err;
  ASSERT_TRUE(S1.start(&Err)) << Err;

  // A second daemon on a *live* socket is an operator mistake, not a
  // stale-file cleanup situation: refuse, and say which.
  ServerOptions O2;
  O2.UnixPath = Path;
  FacileServer S2{std::move(O2)};
  EXPECT_FALSE(S2.start(&Err));
  EXPECT_TRUE(S2.addressInUse()) << Err;

  // Clean shutdown unlinks the socket.
  S1.requestShutdown();
  S1.wait();
  EXPECT_NE(::access(Path.c_str(), F_OK), 0);

  // A stale file (bound then abandoned, as after SIGKILL) is probed,
  // found dead, unlinked and rebound.
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
  ASSERT_EQ(::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0);
  ::close(Fd); // no listen, no unlink: exactly what a killed daemon leaves

  ServerOptions O3;
  O3.UnixPath = Path;
  FacileServer S3{std::move(O3)};
  ASSERT_TRUE(S3.start(&Err)) << Err;
  Client C;
  ASSERT_TRUE(C.connectUnix(Path, &Err)) << Err;
  json::Value R;
  ASSERT_TRUE(C.rpc(R"({"id":1,"verb":"ping"})", R, &Err)) << Err;
  EXPECT_TRUE(R.get("ok")->boolOr(false));
  C.close();
  S3.requestShutdown();
  S3.wait();
  EXPECT_NE(::access(Path.c_str(), F_OK), 0);
}

TEST_F(ServerTest, FinishedReadersReleaseTheirStacks) {
  // A connection's reader thread was joined only at shutdown, so every
  // finished connection kept its thread stack mapped for the daemon's
  // lifetime: two more lines in /proc/self/maps (and ~8 MB of address
  // space) per connection. Sequential connections must reuse the space.
  auto mapLines = [] {
    std::FILE *F = std::fopen("/proc/self/maps", "r");
    if (!F)
      return -1;
    int N = 0;
    for (int Ch; (Ch = std::fgetc(F)) != EOF;)
      N += Ch == '\n';
    std::fclose(F);
    return N;
  };
  auto cycle = [&] {
    Client C = connect();
    EXPECT_TRUE(isOk(rpc(C, R"({"id":1,"verb":"ping"})")));
  };
  for (int I = 0; I != 5; ++I)
    cycle(); // the first reader stacks and malloc arenas
  const int Before = mapLines();
  if (Before < 0)
    GTEST_SKIP() << "no /proc/self/maps";
  for (int I = 0; I != 200; ++I)
    cycle();
  EXPECT_LT(mapLines() - Before, 50);
}

//===----------------------------------------------------------------------===//
// Seeded wire fuzzer
//===----------------------------------------------------------------------===//

/// Generates request lines from the daemon's own verb table
/// (FacileServer::schema()). Half of them are valid; the others carry one
/// hostile member: at a range end plus or minus one, a wrong type, an
/// undeclared choice. Lines are then mutated at the byte level.
class WireFuzzer {
public:
  explicit WireFuzzer(uint32_t Seed) : Rng(Seed) {}

  std::mt19937 Rng;
  std::vector<int64_t> Sessions; ///< every id ever created
  std::set<int64_t> Live;        ///< created and not destroyed
  std::string SavedB64;          ///< the last snapshot-save payload
  int CreateBudget = 64;         ///< valid creates left to generate

  size_t pick(size_t N) {
    return std::uniform_int_distribution<size_t>(0, N - 1)(Rng);
  }
  bool chance(unsigned Pct) { return pick(100) < Pct; }
  template <size_t N> const char *oneOf(const char *const (&A)[N]) {
    return A[pick(N)];
  }

  /// One request object for a random verb; \p InBatch makes most of them
  /// session verbs and allows non-objects.
  std::string request(bool InBatch) {
    if (InBatch && chance(10))
      return oneOf({"5", "\"x\"", "[]", "null", "{}"});
    const std::vector<VerbSchema> Verbs = FacileServer::schema();
    const VerbSchema *V = nullptr;
    // The member made hostile, or none.
    const FieldSpec *Hostile = nullptr;
    while (!V) {
      const VerbSchema &C = Verbs[pick(Verbs.size())];
      // shutdown would end the campaign; destroys are rarer so that
      // sessions live long enough to be stepped, saved and faulted.
      if (InBatch ? (!C.SessionScoped && !chance(10))
                  : std::strcmp(C.Name, "shutdown") == 0)
        continue;
      if (std::strcmp(C.Name, "destroy") == 0 && !chance(15))
        continue;
      Hostile = !C.Fields.empty() && chance(50)
                    ? &C.Fields[pick(C.Fields.size())]
                    : nullptr;
      // Valid creates build programs and sessions: a bounded number.
      if (std::strcmp(C.Name, "create") == 0 && !Hostile &&
          CreateBudget-- <= 0)
        continue;
      V = &C;
    }
    std::string Out = "{";
    if (chance(70))
      Out += oneOf({R"("id":7,)", R"("id":"r",)", R"("id":1.5,)",
                    R"("id":null,)", R"("id":[1],)", R"("id":-1,)"});
    Out += chance(3) ? R"("verb":"nope")"
                     : R"("verb":")" + std::string(V->Name) + "\"";
    // Members of the object member "options" are gathered into it.
    std::string Options;
    bool HasOptions = false;
    for (const FieldSpec &F : V->Fields) {
      const std::string_view Name = F.Name;
      // Small shapes only: a create names its data size, and sessions
      // are aimed at, nearly always.
      const bool Usual = Name == "session" || Name == "data_kwords";
      if (&F != Hostile && !F.Required && !chance(Usual ? 95 : 40))
        continue;
      const std::string Val = &F == Hostile ? hostile(F) : valid(F);
      if (F.Type == FieldType::Object && Val == "{}")
        HasOptions = true;
      else if (Name.substr(0, 8) == "options.")
        Options += (Options.empty() ? "\"" : ",\"") +
                   std::string(Name.substr(8)) + "\":" + Val;
      else
        Out += ",\"" + std::string(Name) + "\":" + Val;
    }
    if (HasOptions || !Options.empty())
      Out += ",\"options\":{" + Options + "}";
    return Out + "}";
  }

  /// A value \p F declares: a range end or a small one, a declared choice.
  std::string valid(const FieldSpec &F) {
    const std::string_view Name = F.Name;
    switch (F.Type) {
    case FieldType::Int: {
      if (Name == "session" && !Live.empty() && chance(70))
        return std::to_string(*std::next(Live.begin(), pick(Live.size())));
      if (Name == "session" && !Sessions.empty() && chance(70))
        return std::to_string(Sessions[pick(Sessions.size())]);
      // What a request may ask for without costing the run seconds: a
      // 4 K-word image, a 20 us chunk delay.
      const int64_t Hi = Name == "data_kwords"             ? 4
                         : Name == "options.step_delay_us" ? 20
                                                           : F.Hi;
      const int64_t Span = std::min<int64_t>(Hi - F.Lo, 63);
      return std::to_string(chance(20)   ? F.Lo
                            : chance(20) ? Hi
                                         : F.Lo + static_cast<int64_t>(pick(
                                                      Span + 1)));
    }
    case FieldType::Str:
      if (F.Choices) {
        std::vector<std::string> C;
        for (std::string_view Rest = F.Choices;;) {
          size_t Bar = Rest.find('|');
          C.emplace_back(Rest.substr(0, Bar));
          if (Bar == std::string_view::npos)
            break;
          Rest.remove_prefix(Bar + 1);
        }
        return "\"" + C[pick(C.size())] + "\"";
      }
      if (Name == "workload")
        return oneOf({"\"compress\"", "\"gcc\"", "\"swim\""});
      if (Name == "fault_inject")
        return oneOf({"\"seed:3,cache:0.2\"", "\"seed:1,plan:1.0\"",
                      "\"seed:2,mem:0.5\"", "\"\""});
      if (Name == "bytes_b64")
        return "\"" + payload() + "\"";
      if (Name == "name")
        return oneOf({"\"PC\"", "\"NOPE\"", "\"R\""});
      return oneOf({"\"rt-1-0\"", "\"\""});
    case FieldType::Bool:
      return chance(50) ? "true" : "false";
    case FieldType::Object:
      return "{}";
    case FieldType::Array: {
      std::string Out = "[";
      for (size_t I = 0, N = pick(6); I != N; ++I) {
        if (I)
          Out += ",";
        Out += request(/*InBatch=*/true);
      }
      return Out + "]";
    }
    }
    return "null";
  }

  /// A value \p F does not declare: one past a range end, another type,
  /// an undeclared choice, bad UTF-8.
  std::string hostile(const FieldSpec &F) {
    if (F.Type == FieldType::Int && chance(50))
      return chance(50) ? std::to_string(F.Lo - 1)
             : F.Hi == INT64_MAX ? "9223372036854775808"
                                 : std::to_string(F.Hi + 1);
    if (F.Type == FieldType::Str && chance(50))
      return oneOf({"\"bogus\"", "\"\xff\xfe\"", "\"\xed\xa0\x80\"",
                    "\"\\ud800\"", "\"cache:nan\"", "\"compress\\u0000\""});
    return oneOf({"\"x\"", "1.5", "true", "null", "[]", "{}", "-7", "1e300",
                  "-1e300", "\"\"", "9223372036854775808", "-0", "[[[[1]]]]",
                  "{\"a\":{\"b\":[]}}"});
  }

  /// A snapshot payload: the last one saved, or a broken variant of it.
  std::string payload() {
    std::string B = SavedB64.empty() ? "AAAAAAAAAAAAAAAA" : SavedB64;
    switch (pick(6)) {
    case 0:
      return B;
    case 1:
      return B.substr(0, B.size() / 2 / 4 * 4); // truncated container
    case 2:
      B[pick(B.size())] ^= 1; // still base64, bytes flipped
      return B;
    case 3:
      return B.substr(0, B.size() - 1); // not a multiple of 4
    case 4:
      return "=" + B.substr(1); // padding out of place
    default:
      return "@@not-base64@@";
    }
  }

  /// A byte-level mutation that keeps the line one framed line: no
  /// newline or carriage return is ever introduced.
  std::string mutate(std::string L) {
    switch (pick(6)) {
    case 0:
      return L.substr(0, 1 + pick(L.size())); // truncated
    case 1: {
      char Ch;
      do
        Ch = static_cast<char>(pick(256));
      while (Ch == '\n' || Ch == '\r');
      L[pick(L.size())] = Ch;
      return L;
    }
    case 2:
      return L.insert(pick(L.size() + 1),
                      oneOf({"\xff", "\xc0\x80", "\xed\xa0\x80",
                             "\xf4\x90\x80\x80", "\x80"}));
    case 3: {
      size_t At = pick(L.size());
      return L.insert(At, L.substr(At, pick(16)));
    }
    case 4: {
      // Deep nesting, around the protocol's depth bound.
      size_t D = std::vector<size_t>{5, 14, 15, 16, 17, 100, 5000}[pick(7)];
      return R"({"verb":"ping","x":)" + std::string(D, '[') +
             std::string(D, ']') + "}";
    }
    default:
      return L.erase(pick(L.size()), 1);
    }
  }
};

/// Every error code a reply may carry.
bool knownCode(const std::string &Code) {
  for (const char *K :
       {ErrCode::ParseError, ErrCode::BadRequest, ErrCode::UnknownVerb,
        ErrCode::UnknownSession, ErrCode::SessionLimit, ErrCode::RequestLimit,
        ErrCode::Oversized, ErrCode::BadSnapshot, ErrCode::ShuttingDown,
        ErrCode::Internal, ErrCode::Overloaded, ErrCode::IdleTimeout,
        ErrCode::UnknownToken, ErrCode::BadBackend})
    if (Code == K)
      return true;
  return false;
}

TEST_F(ServerTest, WireFuzzEveryFramedLineGetsOneStructuredReply) {
  // The seed is fixed unless gtest's is given: a long campaign walks
  // seeds S, S+1, ... with --gtest_random_seed=S --gtest_shuffle
  // --gtest_repeat=N.
  const int Walked = ::testing::UnitTest::GetInstance()->random_seed();
  const int Given = ::testing::GTEST_FLAG(random_seed);
  const uint32_t Seed = Walked != 0 ? Walked : Given != 0 ? Given : 1;
  SCOPED_TRACE("seed " + std::to_string(Seed));
  TearDown();
  ServerOptions Opts;
  Opts.Workers = 1; // replies in request order: the sync ping comes last
  Opts.MaxSessions = 16;
  Opts.MaxStepsPerRequest = 500;
  Opts.MaxInspectWords = 64;
  Opts.MaxLineBytes = 1u << 20;
  // A Unix socket: over TCP, the second of two small replies in flight
  // waits out a delayed ACK.
  Opts.UnixPath = "/tmp/facile-fuzz-sock-" + std::to_string(::getpid());
  const std::string Path = Opts.UnixPath;
  Server = std::make_unique<FacileServer>(std::move(Opts));
  std::string StartErr;
  ASSERT_TRUE(Server->start(&StartErr)) << StartErr;
  auto connect = [&] {
    Client C;
    std::string Err;
    EXPECT_TRUE(C.connectUnix(Path, &Err)) << Err;
    return C;
  };

  WireFuzzer F(Seed);
  RetryPolicy P;
  P.TimeoutMs = 20000; // a lost reply fails the test instead of hanging it
  Client C = connect();
  C.setRetryPolicy(P);
  int64_t Created = 0, Destroyed = 0, Sync = 0;

  // Sends \p Raw and expects one oversized reply, then the close.
  auto oversized = [&](const std::string &Raw) {
    C.sendRaw(Raw); // may fail part-way: the daemon closes once it has seen
                    // more than the limit
    std::string Line;
    ASSERT_TRUE(C.recvLine(Line));
    EXPECT_NE(Line.find(ErrCode::Oversized), std::string::npos) << Line;
    EXPECT_FALSE(C.recvLine(Line));
    C = connect();
    C.setRetryPolicy(P);
  };
  // Checks one reply (recursively into batch replies) and tracks which
  // sessions it created or destroyed and which snapshot it carried.
  std::function<void(const json::Value &)> check =
      [&](const json::Value &R) {
        const json::Value *Ok = R.get("ok");
        ASSERT_TRUE(Ok && Ok->isBool());
        if (!Ok->boolOr(false)) {
          const json::Value *E = R.get("error");
          ASSERT_TRUE(E && E->get("code") && E->get("message"));
          EXPECT_TRUE(knownCode(E->get("code")->str()))
              << E->get("code")->str();
          return;
        }
        if (R.get("compat_key") || R.get("resumed")) {
          ++Created;
          F.Sessions.push_back(R.get("session")->intOr(-1));
          F.Live.insert(F.Sessions.back());
        }
        if (const json::Value *D = R.get("destroyed")) {
          ++Destroyed;
          F.Live.erase(D->intOr(-1));
        }
        if (const json::Value *B = R.get("bytes_b64"))
          F.SavedB64 = B->str();
        if (const json::Value *Rs = R.get("replies"))
          for (const json::Value &Sub : Rs->array())
            check(Sub);
      };
  // Sends one framed line with a sync ping behind it: exactly one reply
  // must come before the ping's, and it must check out.
  auto exchange = [&](const std::string &Raw) {
    SCOPED_TRACE(Raw.substr(0, 300));
    if (Raw.size() > (1u << 20))
      return oversized(Raw + "\n"); // a batch of large snapshot payloads
    const std::string SyncId = "sync-" + std::to_string(++Sync);
    ASSERT_TRUE(C.sendRaw(Raw + "\n" + R"({"id":")" + SyncId +
                          R"(","verb":"ping"})" + "\n"));
    int Got = 0;
    for (;;) {
      std::string Line;
      ASSERT_TRUE(C.recvLine(Line)) << "connection lost";
      json::Value R;
      std::string Err;
      ASSERT_TRUE(json::parse(Line, R, Err)) << Err << ": " << Line;
      const json::Value *Id = R.get("id");
      if (Id && Id->isStr() && Id->str() == SyncId)
        break;
      ++Got;
      check(R);
    }
    EXPECT_EQ(Got, 1);
  };

  // A faulted and a destroyed session for the campaign to aim at.
  exchange(R"({"id":1,"verb":"create","data_kwords":2,)"
           R"("options":{"max_steps":10}})");
  exchange(R"({"id":2,"verb":"create","data_kwords":1,"sim":"ooo"})");
  ASSERT_EQ(F.Sessions.size(), 2u);
  exchange(strFormat(R"({"id":3,"verb":"step","session":%lld,"count":20})",
                     static_cast<long long>(F.Sessions[0])));
  exchange(strFormat(R"({"id":4,"verb":"snapshot-save","session":%lld})",
                     static_cast<long long>(F.Sessions[1])));
  exchange(strFormat(R"({"id":5,"verb":"destroy","session":%lld})",
                     static_cast<long long>(F.Sessions[1])));

  for (int I = 0; I != 4000 && !HasFatalFailure(); ++I) {
    const size_t Action = F.pick(100);
    if (Action < 2) {
      // No newline, then the peer goes away: nothing was framed.
      C.sendRaw(F.request(false));
      C = connect();
      C.setRetryPolicy(P);
    } else if (Action < 3) {
      oversized(std::string((1u << 20) + 1, 'x') + "\n");
    } else if (Action < 4) {
      oversized(R"({"verb":"ping","pad":")" + std::string(1u << 20, 'y'));
    } else if (Action < 8) {
      // An unterminated fragment joins the next line into one.
      ASSERT_TRUE(C.sendRaw(F.request(false).substr(0, 5)));
      exchange(F.request(false));
    } else if (Action < 40) {
      exchange(F.mutate(F.request(false)));
    } else {
      exchange(F.request(false));
    }
  }

  // Still serving, and the session count adds up.
  C = connect();
  json::Value R = rpc(C, R"({"id":1,"verb":"ping"})");
  EXPECT_TRUE(isOk(R));
  R = rpc(C, R"({"id":2,"verb":"stats"})");
  ASSERT_TRUE(isOk(R));
  const json::Value *Srv = R.get("stats")->get("server");
  EXPECT_EQ(Srv->get("active_sessions")->intOr(-1), Created - Destroyed);
  EXPECT_EQ(Srv->get("sessions_created")->intOr(-1), Created);
}

} // namespace
