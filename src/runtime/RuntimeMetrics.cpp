//===- RuntimeMetrics.cpp - Runtime metric export --------------------------===//
//
// exportMetrics/registerMetrics for the runtime's statistics: the
// Simulation step counters and its fault/guard/bypass views, and the
// ActionCache bookkeeping plus live geometry. Kept out of the engine
// translation units so the hot headers never see the telemetry types —
// Simulation.h and ActionCache.h only forward-declare MetricSink and
// MetricsRegistry.
//
// Key names and order deliberately mirror the original hand-built
// statsJson() schema; FacileSim::statsJson is now a thin walk over these
// providers and must keep emitting every pre-existing key.
//
//===----------------------------------------------------------------------===//

#include "src/runtime/ExecBackend.h"
#include "src/runtime/Simulation.h"
#include "src/telemetry/Metrics.h"

using namespace facile;
using namespace facile::rt;

void Simulation::Stats::exportMetrics(telemetry::MetricSink &Sink) const {
  Sink.counter("steps", Steps);
  Sink.counter("fast_steps", FastSteps);
  Sink.counter("misses", Misses);
  Sink.counter("retired_total", RetiredTotal);
  Sink.counter("retired_fast", RetiredFast);
  Sink.counter("cycles", Cycles);
  Sink.counter("placeholder_words", PlaceholderWords);
  Sink.gauge("fast_forwarded_pct", fastForwardedPct());
}

void Simulation::exportAdmissionMetrics(telemetry::MetricSink &Sink) const {
  Sink.text("mode", SecondTouch ? "second-touch" : "first-touch");
  Sink.counter("unadmitted_steps", S.UnadmittedSteps);
  Sink.counter("second_touch_admits", S.SecondTouchAdmits);
  Sink.counter("mode_switches", S.AdmissionSwitches);
  Sink.counter("entries_never_hit", Cache.neverHitEntries());
}

void Simulation::registerMetrics(telemetry::MetricsRegistry &R) const {
  R.add("", [this](telemetry::MetricSink &Sink) { S.exportMetrics(Sink); });
  R.add("fault", [this](telemetry::MetricSink &Sink) {
    Sink.text("kind", faultKindName(Fault.Kind));
    Sink.counter("step", Fault.Step);
    Sink.counter("pc", Fault.Pc);
    Sink.text("detail", Fault.Detail);
  });
  R.add("guard", [this](telemetry::MetricSink &Sink) {
    Sink.flag("enabled", true); // kept for statsJson v2 readers
    Sink.counter("faults", S.Faults);
    Sink.counter("corrupt_dropped", S.CorruptDropped);
  });
  // Kept for statsJson v2 readers: no step bypasses memoization.
  R.add("bypass", [this](telemetry::MetricSink &Sink) {
    Sink.flag("active", false);
    Sink.counter("activations", S.BypassActivations);
    Sink.counter("bypassed_steps", S.BypassedSteps);
  });
  R.add("admission", [this](telemetry::MetricSink &Sink) {
    exportAdmissionMetrics(Sink);
  });
  R.add("jit", [this](telemetry::MetricSink &Sink) {
    Backend->exportMetrics(Sink);
  });
  Cache.registerMetrics(R, "cache");
}

void ActionCache::Stats::exportMetrics(telemetry::MetricSink &Sink) const {
  Sink.counter("lookups", Lookups);
  Sink.counter("hits", Hits);
  Sink.counter("entries_created", EntriesCreated);
  Sink.counter("keys_interned", KeysInterned);
  Sink.counter("clears", Clears);
  // Kept for statsJson v2 readers: an over-budget cache is only cleared.
  Sink.counter("evictions", 0);
  Sink.counter("evicted_entries", 0);
  Sink.counter("probe_total", ProbeTotal);
  Sink.counter("probe_max", ProbeMax);
}

void ActionCache::exportMetrics(telemetry::MetricSink &Sink) const {
  S.exportMetrics(Sink);
  Sink.counter("entries", entryCount());
  Sink.counter("keys", keyCount());
  Sink.counter("nodes", nodeCount());
  Sink.counter("bytes", bytes());
  Sink.counter("key_pool_bytes", keyPoolBytes());
  Sink.counter("peak_bytes", S.PeakBytes);
  Sink.flag("base_attached", hasBase());
  Sink.counter("base_nodes", baseNodeCount());
  Sink.counter("base_bytes", baseBytes());
  Sink.counter("overlay_bytes", overlayBytes());
  Sink.counter("index_chain_hits", S.IndexChainHits);
  Sink.counter("index_chain_misses", S.IndexChainMisses);
}

void ActionCache::registerMetrics(telemetry::MetricsRegistry &R,
                                  std::string Group) const {
  R.add(std::move(Group),
        [this](telemetry::MetricSink &Sink) { exportMetrics(Sink); });
}
