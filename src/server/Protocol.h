//===- Protocol.h - facilesimd wire protocol helpers ------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The facilesimd wire protocol: newline-delimited JSON over a TCP or Unix
/// stream socket. One request object per line, one response object per
/// line; pipelining is allowed and responses carry the request's "id"
/// member verbatim (an int or a string), so a client may correlate
/// out-of-order completions.
///
/// Request envelope:
///   {"id": 7, "verb": "step", "session": 3, "count": 100}
///
/// Response envelope:
///   {"id": 7, "ok": true, ...verb-specific members...}
///   {"id": 7, "ok": false,
///    "error": {"code": "unknown-session", "message": "..."}}
///
/// Error codes are stable kebab-case strings (see ErrCode). A structured
/// SimFault is not a protocol error: run/step/inspect responses report it
/// under "fault" with ok=true, because the session survives and stays
/// resumable via the clear-fault verb.
///
/// Request schema: every verb declares its members once, as FieldSpecs in
/// the daemon's verb table (Server.cpp), and one validator checks each
/// request against its verb's declaration before the verb runs. A declared
/// member that is present with the wrong type or outside its range is
/// rejected with the member's error code (bad-request unless declared
/// otherwise); an absent member takes its default; unknown members are
/// ignored.
///
/// Snapshot payloads (snapshot container bytes, src/snapshot/Snapshot.h)
/// cross the wire as base64 in "bytes_b64", so the protocol stays
/// line-delimited text end to end.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_SERVER_PROTOCOL_H
#define FACILE_SERVER_PROTOCOL_H

#include "src/support/Json.h"
#include "src/support/JsonValue.h"

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace facile {
namespace server {

/// Stable protocol error codes.
namespace ErrCode {
inline constexpr const char *ParseError = "parse-error";
inline constexpr const char *BadRequest = "bad-request";
inline constexpr const char *UnknownVerb = "unknown-verb";
inline constexpr const char *UnknownSession = "unknown-session";
inline constexpr const char *SessionLimit = "session-limit";
inline constexpr const char *RequestLimit = "request-limit";
inline constexpr const char *Oversized = "oversized";
inline constexpr const char *BadSnapshot = "bad-snapshot";
inline constexpr const char *ShuttingDown = "shutting-down";
inline constexpr const char *Internal = "internal-error";
/// Admission control: the worker queue is full. The error object carries
/// "retry_after_ms", a backoff hint scaled by queue pressure; the request
/// was never executed, so any verb is safe to retry after waiting.
inline constexpr const char *Overloaded = "overloaded";
/// Slowloris guard: the connection sat idle (no bytes, no in-flight
/// request) past the server's idle timeout and is being closed.
inline constexpr const char *IdleTimeout = "idle-timeout";
/// create with a "resume_token" that names no spilled session (expired,
/// evicted, or lost to a daemon restart — re-create from scratch).
inline constexpr const char *UnknownToken = "unknown-resume-token";
/// create with a "backend" value that is not auto|interpret|jit (aliases
/// on|off accepted). Distinct from bad-request so clients probing for JIT
/// support get a stable signal.
inline constexpr const char *BadBackend = "bad-backend";
} // namespace ErrCode

/// The JSON type a declared request member must have.
enum class FieldType : uint8_t { Int, Str, Bool, Object, Array };

/// The daemon cap (ServerOptions) an Int member is clamped to: a value
/// above the cap is cut to it rather than rejected.
enum class FieldCap : uint8_t { None, StepsPerRequest, InspectWords };

/// One declared request member.
struct FieldSpec {
  /// Member name; "options.memoize" is member memoize of the object member
  /// options, which the verb declares before it.
  const char *Name = nullptr;
  FieldType Type = FieldType::Int;
  int64_t Lo = 0, Hi = 0;        ///< Int: inclusive range
  int64_t Def = 0;               ///< Int: value when absent
  const char *Choices = nullptr; ///< Str: "a|b|c"; null accepts any string
  const char *DefStr = "";       ///< Str: value when absent
  bool Required = false;
  /// When present, the verb's later members are not read at all.
  bool Alone = false;
  FieldCap Cap = FieldCap::None;
  const char *Code = ErrCode::BadRequest; ///< error code when rejected
};

/// One verb as the daemon's verb table declares it. Session verbs take a
/// "session" member and may appear inside batch; the others are top-level
/// only. Mutating verbs are deduplicated by request id.
struct VerbSchema {
  const char *Name = nullptr;
  bool SessionScoped = false;
  bool Mutating = false;
  std::span<const FieldSpec> Fields;
};

/// The protocol's nesting bound for incoming requests. Requests are flat
/// (options object, at most one level of arrays), so 16 is generous while
/// keeping hostile deeply-nested input cheap to reject.
inline constexpr unsigned MaxRequestDepth = 16;

/// Cap on sub-requests inside one batch envelope. Bounds worst-case
/// per-line work the same way MaxLineBytes bounds per-line parsing.
inline constexpr size_t MaxBatchRequests = 256;

/// Standard base64 (RFC 4648, with padding).
std::string base64Encode(const uint8_t *Data, size_t N);
inline std::string base64Encode(const std::vector<uint8_t> &V) {
  return base64Encode(V.data(), V.size());
}
/// Strict decode: rejects invalid characters, bad padding and embedded
/// whitespace. Returns false leaving \p Out unspecified.
bool base64Decode(std::string_view Text, std::vector<uint8_t> &Out);

/// Writes the echoed "id" member into \p W from the request's id value
/// (absent/unsupported types echo as null).
void writeRequestId(json::Writer &W, const json::Value *Id);

/// Builds a complete error-response line (no trailing newline). An
/// overloaded rejection also carries "retry_after_ms".
std::string errorResponse(const json::Value *Id, const char *Code,
                          std::string_view Message,
                          uint64_t RetryAfterMs = 0);

/// Opens a success-response object: {"id":..., "ok":true — caller appends
/// verb members and calls endObject()/take().
void beginOkResponse(json::Writer &W, const json::Value *Id);

} // namespace server
} // namespace facile

#endif // FACILE_SERVER_PROTOCOL_H
