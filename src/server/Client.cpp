//===- Client.cpp - facilesimd protocol client -----------------------------===//

#include "src/server/Client.h"

#include "src/server/Protocol.h"
#include "src/server/Server.h"
#include "src/snapshot/Snapshot.h"
#include "src/support/Json.h"
#include "src/support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace facile;
using namespace facile::server;

namespace {

uint64_t monoMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

Client::~Client() { close(); }

Client::Client(Client &&Other) noexcept
    : Fd(std::exchange(Other.Fd, -1)), Buf(std::move(Other.Buf)),
      Policy(Other.Policy), LastAttempts(Other.LastAttempts), Rng(Other.Rng),
      Ep(Other.Ep), EpPort(Other.EpPort), EpPath(std::move(Other.EpPath)) {}

Client &Client::operator=(Client &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = std::exchange(Other.Fd, -1);
    Buf = std::move(Other.Buf);
    Policy = Other.Policy;
    LastAttempts = Other.LastAttempts;
    Rng = Other.Rng;
    Ep = Other.Ep;
    EpPort = Other.EpPort;
    EpPath = std::move(Other.EpPath);
  }
  return *this;
}

void Client::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Buf.clear();
}

static bool fail(std::string *Err, const char *What) {
  if (Err)
    *Err = std::string(What) + ": " + std::strerror(errno);
  return false;
}

bool Client::connectTcp(uint16_t Port, std::string *Err) {
  close();
  Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return fail(Err, "socket");
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    close();
    return fail(Err, "connect");
  }
  Ep = Endpoint::Tcp;
  EpPort = Port;
  return true;
}

bool Client::connectUnix(const std::string &Path, std::string *Err) {
  close();
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = "unix socket path too long";
    return false;
  }
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return fail(Err, "socket");
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    close();
    return fail(Err, "connect");
  }
  Ep = Endpoint::Unix;
  EpPath = Path;
  return true;
}

bool Client::reconnect(std::string *Err) {
  switch (Ep) {
  case Endpoint::Tcp:
    return connectTcp(EpPort, Err);
  case Endpoint::Unix: {
    std::string Path = EpPath; // connectUnix reassigns EpPath
    return connectUnix(Path, Err);
  }
  case Endpoint::None:
    break;
  }
  if (Err)
    *Err = "reconnect before any connect";
  return false;
}

bool Client::sendRaw(const std::string &Bytes) {
  if (Fd < 0)
    return false;
  const char *P = Bytes.data();
  size_t N = Bytes.size();
  while (N != 0) {
    ssize_t W = ::send(Fd, P, N, MSG_NOSIGNAL);
    if (W <= 0)
      return false;
    P += W;
    N -= static_cast<size_t>(W);
  }
  return true;
}

bool Client::sendLine(const std::string &Line) { return sendRaw(Line + "\n"); }

bool Client::recvLine(std::string &Out) {
  if (Fd < 0)
    return false;
  char Tmp[1 << 14];
  const uint64_t Deadline =
      Policy.TimeoutMs == 0 ? 0 : monoMs() + Policy.TimeoutMs;
  for (;;) {
    size_t Pos = Buf.find('\n');
    if (Pos != std::string::npos) {
      Out = Buf.substr(0, Pos);
      Buf.erase(0, Pos + 1);
      if (!Out.empty() && Out.back() == '\r')
        Out.pop_back();
      return true;
    }
    if (Deadline) {
      uint64_t Now = monoMs();
      if (Now >= Deadline)
        return false; // per-call timeout: treated as a transport failure
      pollfd P{Fd, POLLIN, 0};
      int R = ::poll(&P, 1,
                     static_cast<int>(std::min<uint64_t>(Deadline - Now, 200)));
      if (R < 0)
        return false;
      if (R == 0)
        continue;
    }
    ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
    if (N <= 0)
      return false;
    Buf.append(Tmp, static_cast<size_t>(N));
  }
}

bool Client::rpc(const std::string &Request, json::Value &Response,
                 std::string *Err) {
  if (!sendLine(Request)) {
    if (Err)
      *Err = "send failed";
    return false;
  }
  std::string Line;
  if (!recvLine(Line)) {
    if (Err)
      *Err = "connection closed before a response arrived";
    return false;
  }
  std::string PErr;
  if (!json::parse(Line, Response, PErr)) {
    if (Err)
      *Err = "unparseable response: " + PErr;
    return false;
  }
  LastLine = std::move(Line);
  return true;
}

uint64_t Client::backoffMs(unsigned Attempt) {
  uint64_t Base = Policy.BaseBackoffMs << std::min(Attempt, 10u);
  Base = std::min(std::max<uint64_t>(Base, 1), Policy.MaxBackoffMs);
  if (Policy.JitterPct != 0) {
    uint64_t Span = Base * Policy.JitterPct / 100;
    if (Span != 0)
      Base = Base - Span / 2 + Rng() % (Span + 1);
  }
  return std::max<uint64_t>(Base, 1);
}

bool Client::rpcRetry(const std::string &Request, json::Value &Response,
                      std::string *Err) {
  // Classify the request once; an unparseable request is sent as-is with
  // no retry (the server will reject it deterministically).
  json::Value Req;
  std::string Verb;
  bool HasId = false, HasSession = false;
  {
    std::string PErr;
    if (json::parse(Request, Req, PErr) && Req.isObject()) {
      if (const json::Value *V = Req.get("verb"))
        Verb = V->strOr("");
      const json::Value *Id = Req.get("id");
      HasId = Id && (Id->isInt() || Id->isStr());
      HasSession = Req.get("session") != nullptr;
    }
  }
  // The daemon's verb table says which verbs change nothing (safe to
  // resend) and which it deduplicates by request id (safe to resend with
  // one).
  static const std::vector<VerbSchema> Verbs = FacileServer::schema();
  bool RetryOnTransport = false;
  for (const VerbSchema &V : Verbs)
    if (Verb == V.Name)
      RetryOnTransport = V.ReadOnly || (V.Mutating && HasId && HasSession);

  const unsigned Attempts = std::max(1u, Policy.MaxAttempts);
  std::string LocalErr;
  for (unsigned A = 0;; ++A) {
    LastAttempts = A + 1;
    bool Ok = connected() || reconnect(&LocalErr);
    if (Ok)
      Ok = rpc(Request, Response, &LocalErr);
    if (Ok) {
      // An admission rejection was never executed, so *any* verb may wait
      // out the server's hint and try again.
      const json::Value *E = Response.get("error");
      const json::Value *Code = E ? E->get("code") : nullptr;
      if (Code && Code->isStr() && Code->str() == ErrCode::Overloaded &&
          A + 1 < Attempts) {
        uint64_t Wait = backoffMs(A);
        if (const json::Value *RA = E->get("retry_after_ms"))
          Wait = std::max<uint64_t>(Wait, static_cast<uint64_t>(
                                              std::max<int64_t>(0, RA->intOr(0))));
        std::this_thread::sleep_for(std::chrono::milliseconds(Wait));
        continue;
      }
      return true;
    }
    // Transport failure (send error, timeout, EOF): the connection state
    // is unknown — drop it either way so the next attempt redials.
    close();
    if (!RetryOnTransport || A + 1 >= Attempts) {
      if (Err)
        *Err = LocalErr;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoffMs(A)));
  }
}

//===----------------------------------------------------------------------===//
// Protocol self-test
//===----------------------------------------------------------------------===//

namespace {

/// One self-test RPC that must come back ok=true. On any transport, parse
/// or protocol failure, sets \p Err and returns false.
bool okRpc(Client &C, const std::string &Req, json::Value &Resp,
           std::string &Err) {
  if (!C.rpc(Req, Resp, &Err))
    return false;
  const json::Value *Ok = Resp.get("ok");
  if (!Ok || !Ok->boolOr(false)) {
    const json::Value *E = Resp.get("error");
    const json::Value *Msg = E ? E->get("message") : nullptr;
    Err = "request failed: " + Req +
          " -> " + (Msg ? Msg->str() : std::string("(no message)"));
    return false;
  }
  return true;
}

bool check(bool Cond, const char *What, std::string &Err) {
  if (!Cond)
    Err = std::string("selftest check failed: ") + What;
  return Cond;
}

} // namespace

bool server::runProtocolSelftest(Client &C, std::string &Err,
                                 bool SendShutdown) {
  json::Value R;

  // Liveness, and a deliberate protocol error to prove the error envelope.
  if (!okRpc(C, R"({"id":1,"verb":"ping"})", R, Err))
    return false;
  if (!C.rpc(R"({"id":2,"verb":"no-such-verb"})", R, &Err))
    return false;
  const json::Value *E = R.get("error");
  if (!check(E && E->get("code") &&
                 E->get("code")->str() == ErrCode::UnknownVerb,
             "unknown verb yields unknown-verb", Err))
    return false;

  // A small session: compress shrunk to a fast footprint.
  if (!okRpc(C,
             R"({"id":3,"verb":"create","sim":"functional",)"
             R"("workload":"compress","data_kwords":2})",
             R, Err))
    return false;
  const json::Value *SessV = R.get("session");
  if (!check(SessV && SessV->isInt(), "create returns a session id", Err))
    return false;
  int64_t Sess = SessV->intOr(0);
  auto withSession = [&](const char *Fmt) {
    return strFormat(Fmt, static_cast<long long>(Sess));
  };

  // Run a prefix, snapshot it, note the digest.
  if (!okRpc(C,
             withSession(
                 R"({"id":4,"verb":"run","session":%lld,"steps":3000})"),
             R, Err))
    return false;
  if (!okRpc(C,
             withSession(
                 R"({"id":5,"verb":"inspect","session":%lld,"what":"digest"})"),
             R, Err))
    return false;
  std::string DigestAtSnap = R.get("digest") ? R.get("digest")->str() : "";
  if (!check(!DigestAtSnap.empty(), "digest inspect returns a digest", Err))
    return false;
  if (!okRpc(C,
             withSession(R"({"id":6,"verb":"snapshot-save","session":%lld,)"
                         R"("kind":"checkpoint"})"),
             R, Err))
    return false;
  std::string SnapB64 = R.get("bytes_b64") ? R.get("bytes_b64")->str() : "";
  if (!check(!SnapB64.empty(), "snapshot-save returns bytes", Err))
    return false;
  if (!check(R.get("format") && R.get("format")->str() == snapshot::Magic,
             "snapshot format is the container magic", Err))
    return false;

  // Run further, then rewind by loading the snapshot back into the same
  // session: the digest must return to its at-snapshot value.
  if (!okRpc(C,
             withSession(
                 R"({"id":7,"verb":"run","session":%lld,"steps":2000})"),
             R, Err))
    return false;
  if (!okRpc(C,
             withSession(
                 R"({"id":8,"verb":"inspect","session":%lld,"what":"digest"})"),
             R, Err))
    return false;
  // The workload mutates memory as it runs, so this usually differs from
  // DigestAtSnap; what matters is the restore below.
  json::Writer LoadReq;
  LoadReq.beginObject()
      .field("id", static_cast<int64_t>(9))
      .field("verb", "snapshot-load")
      .field("session", Sess)
      .field("kind", "checkpoint")
      .field("bytes_b64", std::string_view(SnapB64))
      .endObject();
  if (!okRpc(C, LoadReq.take(), R, Err))
    return false;
  if (!okRpc(C,
             withSession(
                 R"({"id":10,"verb":"inspect","session":%lld,"what":"digest"})"),
             R, Err))
    return false;
  if (!check(R.get("digest") && R.get("digest")->str() == DigestAtSnap,
             "snapshot-load restores the memory digest", Err))
    return false;

  // Fresh session warm-started from the same snapshot bytes: digest must
  // match too (cross-session snapshot portability).
  if (!okRpc(C,
             R"({"id":11,"verb":"create","sim":"functional",)"
             R"("workload":"compress","data_kwords":2})",
             R, Err))
    return false;
  int64_t Sess2 = R.get("session") ? R.get("session")->intOr(0) : 0;
  if (!check(Sess2 != Sess, "session ids are never reused", Err))
    return false;
  json::Writer LoadReq2;
  LoadReq2.beginObject()
      .field("id", static_cast<int64_t>(12))
      .field("verb", "snapshot-load")
      .field("session", Sess2)
      .field("kind", "checkpoint")
      .field("bytes_b64", std::string_view(SnapB64))
      .endObject();
  if (!okRpc(C, LoadReq2.take(), R, Err))
    return false;
  if (!C.rpc(strFormat(R"({"id":13,"verb":"inspect","session":%lld,)"
                       R"("what":"digest"})",
                       static_cast<long long>(Sess2)),
             R, &Err))
    return false;
  if (!check(R.get("digest") && R.get("digest")->str() == DigestAtSnap,
             "warm-started session matches the donor digest", Err))
    return false;

  // Step-watchdog fault round trip: a tiny max_steps faults the session;
  // clear-fault with a higher limit resumes it.
  if (!okRpc(C,
             R"({"id":14,"verb":"create","sim":"functional",)"
             R"("workload":"compress","data_kwords":2,)"
             R"("options":{"max_steps":100}})",
             R, Err))
    return false;
  int64_t Sess3 = R.get("session") ? R.get("session")->intOr(0) : 0;
  if (!okRpc(C,
             strFormat(
                 R"({"id":15,"verb":"run","session":%lld,"steps":100000})",
                 static_cast<long long>(Sess3)),
             R, Err))
    return false;
  if (!check(R.get("status") && R.get("status")->str() == "faulted" &&
                 R.get("fault") && R.get("fault")->get("kind") &&
                 R.get("fault")->get("kind")->str() == "step-limit",
             "watchdog reports a structured step-limit fault", Err))
    return false;
  if (!okRpc(C,
             strFormat(R"({"id":16,"verb":"clear-fault","session":%lld,)"
                       R"("max_steps":0})",
                       static_cast<long long>(Sess3)),
             R, Err))
    return false;
  if (!okRpc(C,
             strFormat(
                 R"({"id":17,"verb":"run","session":%lld,"steps":1000})",
                 static_cast<long long>(Sess3)),
             R, Err))
    return false;
  if (!check(R.get("status") && R.get("status")->str() != "faulted",
             "cleared session resumes stepping", Err))
    return false;

  // Daemon stats must expose the server group and our sessions.
  if (!okRpc(C, R"({"id":18,"verb":"stats"})", R, Err))
    return false;
  const json::Value *Stats = R.get("stats");
  const json::Value *Server = Stats ? Stats->get("server") : nullptr;
  if (!check(Server && Server->get("active_sessions") &&
                 Server->get("active_sessions")->intOr(0) >= 3,
             "stats reports the live sessions", Err))
    return false;

  // Destroy everything; a second destroy of the same id must fail with
  // unknown-session (ids are never reused).
  for (int64_t Id : {Sess, Sess2, Sess3}) {
    if (!okRpc(C,
               strFormat(R"({"id":19,"verb":"destroy","session":%lld})",
                         static_cast<long long>(Id)),
               R, Err))
      return false;
  }
  if (!C.rpc(strFormat(R"({"id":20,"verb":"destroy","session":%lld})",
                       static_cast<long long>(Sess)),
             R, &Err))
    return false;
  E = R.get("error");
  if (!check(E && E->get("code") &&
                 E->get("code")->str() == ErrCode::UnknownSession,
             "destroyed ids stay invalid", Err))
    return false;

  if (SendShutdown) {
    if (!okRpc(C, R"({"id":21,"verb":"shutdown"})", R, Err))
      return false;
  }
  return true;
}
