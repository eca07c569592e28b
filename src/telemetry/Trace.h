//===- Trace.h - Ring-buffered Chrome trace-event tracer --------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An execution tracer whose output loads directly into Chrome's
/// about:tracing / Perfetto: spans (emitted as matched "B"/"E" event
/// pairs) for slow-record vs. fast-replay step batches, instants ("i")
/// for one-shot happenings — cache evictions, structured faults, snapshot
/// loads and saves.
///
/// Discipline (the same epoch-gating spirit as the guarded replay's
/// verification marks): the *disabled* tracer costs the runtime exactly
/// one pointer test per step — the Simulation holds an EventTracer* that
/// is null until a host attaches one, and every hook hides behind that
/// branch. Enabled tracing reads the clock only at span *transitions*
/// (consecutive same-engine steps merge into one span), so a memoized
/// steady state costs one timestamp per slow/fast alternation, not per
/// step.
///
/// Storage is a fixed-capacity ring of POD events; when full, the oldest
/// events are dropped (Dropped counts them) so a multi-billion-step run
/// can keep tracing and flush the interesting tail on demand. Category,
/// name and argument-name strings must be string literals (or otherwise
/// outlive the tracer): events store the pointers, not copies.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_TELEMETRY_TRACE_H
#define FACILE_TELEMETRY_TRACE_H

#include "src/support/Json.h"

#include <cstdint>
#include <string>
#include <vector>

namespace facile {
namespace telemetry {

class EventTracer {
public:
  /// \p Capacity is the ring size in events (minimum 16).
  explicit EventTracer(size_t Capacity = 1u << 16);

  bool enabled() const { return Enabled; }
  /// Toggles collection. Hooks fire only while enabled; the ring is kept.
  void setEnabled(bool E) { Enabled = E; }

  /// Microseconds since this tracer was constructed (the trace timebase).
  uint64_t nowUs() const;

  /// Records a completed span. \p Steps, when nonzero, is attached as the
  /// "steps" argument (the number of simulator steps the span batches).
  /// Spans must be reported in chronological order and must not overlap —
  /// the writer emits B/E pairs in arrival order.
  void span(const char *Cat, const char *Name, uint64_t StartUs,
            uint64_t EndUs, uint64_t Steps = 0);

  /// Records an instant event at now (or \p AtUs when given). \p ArgName /
  /// \p Arg attach one integer argument when ArgName is non-null.
  void instant(const char *Cat, const char *Name, const char *ArgName = nullptr,
               uint64_t Arg = 0);
  void instantAt(const char *Cat, const char *Name, uint64_t AtUs,
                 const char *ArgName = nullptr, uint64_t Arg = 0);

  size_t size() const { return Count; }
  uint64_t dropped() const { return Dropped; }
  void clear() {
    Head = Count = 0;
    Dropped = 0;
  }

  /// Writes the buffered events as a Chrome trace-event object:
  /// {"traceEvents":[...],"displayTimeUnit":"ms"}. Spans become "B"/"E"
  /// pairs, instants "i"; all on pid 1 / tid 1.
  void writeTo(json::Writer &W) const;

  /// Serializes writeTo() into a string.
  std::string toJson() const;

  /// Writes the trace to \p Path. On failure returns false with a
  /// diagnostic in \p Err when given.
  bool writeFile(const std::string &Path, std::string *Err = nullptr) const;

private:
  struct Event {
    const char *Cat;
    const char *Name;
    const char *ArgName; ///< null: no argument
    uint64_t Ts;         ///< us; span start or instant time
    uint64_t Dur;        ///< span duration in us (spans only)
    uint64_t Arg;        ///< span: batched steps; instant: ArgName's value
    uint8_t Kind;        ///< 0 span, 1 instant
  };

  void push(const Event &E);
  const Event &at(size_t I) const {
    return Ring[(Head + I) % Ring.size()];
  }

  std::vector<Event> Ring;
  size_t Head = 0;  ///< index of the oldest event
  size_t Count = 0; ///< live events in the ring
  uint64_t Dropped = 0;
  bool Enabled = true;
  uint64_t Epoch; ///< steady-clock ns at construction
};

} // namespace telemetry
} // namespace facile

#endif // FACILE_TELEMETRY_TRACE_H
