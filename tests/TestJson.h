//===- TestJson.h - Shared JSON validation helpers for tests ----*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only JSON helpers shared by the suites that check machine-readable
/// output. They parse with json::parse (src/support/JsonValue.h), the
/// parser the server trusts with untrusted input: well-formedness, member
/// lookup, and a Chrome trace-event validator that checks the structural
/// invariants the tracer promises — matched B/E pairs and monotonically
/// non-decreasing timestamps.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_TESTS_TESTJSON_H
#define FACILE_TESTS_TESTJSON_H

#include "src/support/JsonValue.h"

#include <string>
#include <vector>

namespace facile {
namespace testjson {

/// True when \p S parses as one complete JSON value.
inline bool validJson(const std::string &S) {
  json::Value V;
  std::string Err;
  return json::parse(S, V, Err);
}

/// True when \p V holds a member named \p Key at any nesting level.
inline bool hasMember(const json::Value &V, const std::string &Key) {
  for (const auto &M : V.members())
    if (M.first == Key || hasMember(M.second, Key))
      return true;
  for (const json::Value &E : V.array())
    if (hasMember(E, Key))
      return true;
  return false;
}

/// True when \p Json parses and has a member named \p Key at any level.
inline bool hasKey(const std::string &Json, const std::string &Key) {
  json::Value V;
  std::string Err;
  return json::parse(Json, V, Err) && hasMember(V, Key);
}

/// The "traceEvents" array of a parsed trace, or null.
inline const json::Value *traceEvents(const json::Value &Doc) {
  const json::Value *E = Doc.get("traceEvents");
  return E && E->isArray() ? E : nullptr;
}

/// Validates \p Json as a Chrome trace-event file: well-formed JSON, a
/// "traceEvents" array of events with string "ph"/"name"/"cat" and a
/// numeric "ts", every B closed by an E with the same name (spans never
/// interleave in our single-threaded traces), no dangling opens, and
/// non-decreasing timestamps across all events. On failure \p Err (when
/// given) says which invariant broke.
inline bool validChromeTrace(const std::string &Json,
                             std::string *Err = nullptr) {
  auto fail = [&](const char *Why) {
    if (Err)
      *Err = Why;
    return false;
  };
  json::Value Doc;
  std::string ParseErr;
  if (!json::parse(Json, Doc, ParseErr))
    return fail("not well-formed JSON");
  const json::Value *Events = traceEvents(Doc);
  if (!Events)
    return fail("missing traceEvents array");
  std::vector<std::string> Open;
  double LastTs = 0;
  for (const json::Value &E : Events->array()) {
    const json::Value *Ph = E.get("ph"), *Name = E.get("name"),
                      *Cat = E.get("cat"), *Ts = E.get("ts");
    if (!Ph || !Ph->isStr() || !Name || !Name->isStr() || !Cat ||
        !Cat->isStr() || !Ts || !Ts->isNumber())
      return fail("unparseable event in traceEvents");
    if (Ts->doubleOr(0) < LastTs)
      return fail("timestamps not monotonically non-decreasing");
    LastTs = Ts->doubleOr(0);
    if (Ph->str() == "B") {
      Open.push_back(Name->str());
    } else if (Ph->str() == "E") {
      if (Open.empty() || Open.back() != Name->str())
        return fail("E event without matching B");
      Open.pop_back();
    } else if (Ph->str() != "i") {
      return fail("unexpected event phase");
    }
  }
  if (!Open.empty())
    return fail("unclosed B event");
  return true;
}

/// Names of all span ("B") events in \p Json, in order.
inline std::vector<std::string> spanNames(const std::string &Json) {
  std::vector<std::string> Names;
  json::Value Doc;
  std::string Err;
  if (!json::parse(Json, Doc, Err))
    return Names;
  if (const json::Value *Events = traceEvents(Doc))
    for (const json::Value &E : Events->array()) {
      const json::Value *Ph = E.get("ph"), *Name = E.get("name");
      if (Ph && Ph->str() == "B" && Name)
        Names.push_back(Name->str());
    }
  return Names;
}

} // namespace testjson
} // namespace facile

#endif // FACILE_TESTS_TESTJSON_H
