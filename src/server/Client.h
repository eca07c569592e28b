//===- Client.h - facilesimd protocol client --------------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small blocking client for the facilesimd wire protocol: connect over
/// TCP or a Unix socket, send one request line, read one response line.
/// Used by the facilesim_client tool, the daemon's --selftest mode and the
/// protocol test suite — all three drive the same code, so what the tests
/// exercise is what ships.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_SERVER_CLIENT_H
#define FACILE_SERVER_CLIENT_H

#include "src/support/JsonValue.h"

#include <cstdint>
#include <random>
#include <string>

namespace facile {
namespace server {

/// Retry/backoff configuration for Client::rpcRetry. Defaults give four
/// attempts with 20 ms exponential backoff (25% jitter) capped at 2 s.
struct RetryPolicy {
  unsigned MaxAttempts = 4;   ///< total attempts, including the first
  uint64_t TimeoutMs = 0;     ///< per-call receive timeout; 0 blocks forever
  uint64_t BaseBackoffMs = 20;
  uint64_t MaxBackoffMs = 2000;
  unsigned JitterPct = 25;    ///< +/- half this percentage around the backoff
};

class Client {
public:
  Client() = default;
  ~Client();
  Client(Client &&Other) noexcept;
  Client &operator=(Client &&Other) noexcept;
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Connects to 127.0.0.1:\p Port. False with a diagnostic on failure.
  bool connectTcp(uint16_t Port, std::string *Err = nullptr);
  /// Connects to the Unix socket at \p Path.
  bool connectUnix(const std::string &Path, std::string *Err = nullptr);
  bool connected() const { return Fd >= 0; }
  void close();

  /// Sends \p Line plus the terminating newline. False on socket errors.
  bool sendLine(const std::string &Line);
  /// Sends raw bytes with no framing — for tests exercising truncated and
  /// unterminated input.
  bool sendRaw(const std::string &Bytes);
  /// Reads one newline-delimited line (newline stripped). False on EOF or
  /// socket errors.
  bool recvLine(std::string &Out);

  /// One round trip: sends \p Request, reads one line, parses it into
  /// \p Response. False (with a diagnostic) on transport or parse errors —
  /// protocol-level errors still return true with Response["ok"] false.
  /// Honors RetryPolicy::TimeoutMs on the receive side (a timeout is a
  /// transport error) but never retries — that is rpcRetry's job.
  bool rpc(const std::string &Request, json::Value &Response,
           std::string *Err = nullptr);

  //===-- Resilience ----------------------------------------------------------

  void setRetryPolicy(const RetryPolicy &P) { Policy = P; }
  const RetryPolicy &retryPolicy() const { return Policy; }

  /// Redials whichever endpoint the last connectTcp/connectUnix used.
  bool reconnect(std::string *Err = nullptr);

  /// rpc with timeouts, reconnect and exponential backoff — but gated on
  /// idempotency, as the daemon's verb table (FacileServer::schema())
  /// declares it. What is safe to retry after a transport failure:
  ///  - read-only verbs (ping/stats/inspect/snapshot-save): always.
  ///  - mutating verbs (step/run/clear-fault/snapshot-load): only when the
  ///    request carries both an "id" and a "session", because the server
  ///    dedups the last completed request id per session — a retried
  ///    duplicate replays the stored response instead of executing twice.
  ///  - the rest (create/destroy/shutdown/batch): never (one attempt); an
  ///    "overloaded" *response* is retried for any verb after the server's
  ///    retry_after_ms hint, since a rejected request was never executed.
  /// A non-retryable failure returns false after one attempt.
  bool rpcRetry(const std::string &Request, json::Value &Response,
                std::string *Err = nullptr);

  /// How many attempts the last rpcRetry made (tests assert backoff
  /// conformance with this).
  unsigned lastAttempts() const { return LastAttempts; }

  /// The raw response line of the last successful rpc/rpcRetry, for
  /// callers that print or relay it verbatim.
  const std::string &lastResponseLine() const { return LastLine; }

private:
  uint64_t backoffMs(unsigned Attempt);

  int Fd = -1;
  std::string Buf; ///< bytes received past the last returned line

  RetryPolicy Policy;
  unsigned LastAttempts = 0;
  std::string LastLine;
  std::minstd_rand Rng{0x5eedu}; ///< jitter only; determinism aids tests
  enum class Endpoint { None, Tcp, Unix };
  Endpoint Ep = Endpoint::None;
  uint16_t EpPort = 0;
  std::string EpPath;
};

/// Drives a complete create → run → inspect → snapshot round-trip →
/// clear-fault → destroy → (optionally) shutdown conversation against a
/// live server, asserting on every response — including that a warm
/// snapshot resume reproduces the donor session's memory digest exactly.
/// Returns true on success; on failure \p Err describes the first failing
/// check. This is the daemon's --selftest and the client tool's selftest
/// subcommand.
bool runProtocolSelftest(Client &C, std::string &Err, bool SendShutdown);

} // namespace server
} // namespace facile

#endif // FACILE_SERVER_CLIENT_H
