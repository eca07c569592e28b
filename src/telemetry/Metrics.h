//===- Metrics.h - Metrics registry and export sinks ------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical statistics-export path. Every subsystem that keeps
/// counters — the simulation runtime, the action cache, the uarch models,
/// the hand-coded simulators — exposes a uniform pair of hooks:
///
///   void exportMetrics(telemetry::MetricSink &Sink) const;
///   void registerMetrics(telemetry::MetricsRegistry &R, group) const;
///
/// exportMetrics pushes the current values into a visitor (MetricSink);
/// registerMetrics installs a provider so a later exportTo() pulls fresh
/// values on demand. A MetricsRegistry is an ordered list of named
/// providers; exporting walks them in registration order, wrapping each
/// named provider in a group. JsonMetricSink renders the walk as one JSON
/// object (nested objects per group) — this is what statsJson() and
/// `facilesim --metrics=<file>` are built on.
///
/// Metric kinds: counters (monotonic uint64), gauges (point-in-time
/// numbers, possibly floating), flags (booleans), text (identity strings)
/// and histograms (log2-bucketed value distributions).
///
//======---------------------------------------------------------------------===//

#ifndef FACILE_TELEMETRY_METRICS_H
#define FACILE_TELEMETRY_METRICS_H

#include "src/support/Json.h"

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace facile {
namespace telemetry {

/// Log2-bucketed distribution: value V lands in bucket floor(log2(V))+1,
/// zero in bucket 0. 64 buckets cover the whole uint64 range.
struct Histogram {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = ~0ull;
  uint64_t Max = 0;
  uint64_t Buckets[65] = {};

  void record(uint64_t V) {
    ++Count;
    Sum += V;
    if (V < Min)
      Min = V;
    if (V > Max)
      Max = V;
    ++Buckets[bucketOf(V)];
  }
  void reset() { *this = Histogram(); }
  double mean() const {
    return Count == 0 ? 0.0
                      : static_cast<double>(Sum) / static_cast<double>(Count);
  }

  /// Bucket index for \p V: 0 holds exactly zero; bucket B>=1 holds
  /// [2^(B-1), 2^B).
  static unsigned bucketOf(uint64_t V) {
    unsigned B = 0;
    while (V != 0) {
      ++B;
      V >>= 1;
    }
    return B;
  }
  /// Inclusive lower bound of bucket \p B.
  static uint64_t bucketLo(unsigned B) { return B == 0 ? 0 : 1ull << (B - 1); }
};

/// Visitor receiving metric values during an export walk.
class MetricSink {
public:
  virtual ~MetricSink() = default;

  /// Opens/closes a named scope; groups may nest.
  virtual void beginGroup(std::string_view Name) = 0;
  virtual void endGroup() = 0;

  virtual void counter(std::string_view Name, uint64_t V) = 0;
  virtual void gauge(std::string_view Name, double V) = 0;
  virtual void gauge(std::string_view Name, int64_t V) = 0;
  virtual void flag(std::string_view Name, bool V) = 0;
  virtual void text(std::string_view Name, std::string_view V) = 0;
  virtual void histogram(std::string_view Name, const Histogram &H) = 0;
};

/// An ordered registry of metric providers. Providers capture pointers to
/// live subsystems, so the registry must not outlive what registered into
/// it; the intended pattern is a short-lived registry built immediately
/// before an export (see FacileSim::statsJson) or one owned by the same
/// object that owns the subsystems.
class MetricsRegistry {
public:
  using Provider = std::function<void(MetricSink &)>;

  /// Adds a provider. \p Group names the object the provider's metrics are
  /// wrapped in; an empty group exports at the current level (top level of
  /// the walk). Registration order is export order.
  void add(std::string Group, Provider P) {
    Entries.push_back({std::move(Group), std::move(P)});
  }

  /// Walks every provider in registration order.
  void exportTo(MetricSink &Sink) const {
    for (const Entry &E : Entries) {
      if (E.Group.empty()) {
        E.P(Sink);
      } else {
        Sink.beginGroup(E.Group);
        E.P(Sink);
        Sink.endGroup();
      }
    }
  }

  size_t size() const { return Entries.size(); }

private:
  struct Entry {
    std::string Group;
    Provider P;
  };
  std::vector<Entry> Entries;
};

/// Records an export walk to replay into another sink later: a snapshot
/// taken while the metrics' owner is locked, rendered while it is not.
class MetricRecording : public MetricSink {
public:
  void beginGroup(std::string_view Name) override { add(Op::Begin, Name); }
  void endGroup() override { add(Op::End, {}); }
  void counter(std::string_view Name, uint64_t V) override {
    add(Op::Counter, Name).U = V;
  }
  void gauge(std::string_view Name, double V) override {
    add(Op::Real, Name).D = V;
  }
  void gauge(std::string_view Name, int64_t V) override {
    add(Op::Int, Name).I = V;
  }
  void flag(std::string_view Name, bool V) override {
    add(Op::Flag, Name).U = V;
  }
  void text(std::string_view Name, std::string_view V) override {
    add(Op::Text, Name).Text = V;
  }
  void histogram(std::string_view Name, const Histogram &H) override {
    add(Op::Hist, Name).U = Hists.size();
    Hists.push_back(H);
  }

  /// Replays the recorded walk into \p Sink, in recording order.
  void replay(MetricSink &Sink) const;

private:
  enum class Op : uint8_t { Begin, End, Counter, Real, Int, Flag, Text, Hist };
  struct Item {
    Op K = Op::End;
    std::string Name;
    uint64_t U = 0; ///< counter, flag, or histogram index
    int64_t I = 0;
    double D = 0;
    std::string Text;
  };
  Item &add(Op K, std::string_view Name) {
    Item &It = Items.emplace_back();
    It.K = K;
    It.Name = Name;
    return It;
  }
  std::vector<Item> Items;
  std::vector<Histogram> Hists;
};

/// Renders an export walk as one JSON object. Groups become nested
/// objects; histograms become {"count","sum","min","max","mean","buckets"}
/// with buckets keyed by their inclusive lower bound.
class JsonMetricSink : public MetricSink {
public:
  JsonMetricSink() { W.beginObject(); }

  void beginGroup(std::string_view Name) override { W.objectField(Name); }
  void endGroup() override { W.endObject(); }
  void counter(std::string_view Name, uint64_t V) override {
    W.field(Name, V);
  }
  void gauge(std::string_view Name, double V) override { W.field(Name, V); }
  void gauge(std::string_view Name, int64_t V) override { W.field(Name, V); }
  void flag(std::string_view Name, bool V) override { W.field(Name, V); }
  void text(std::string_view Name, std::string_view V) override {
    W.field(Name, V);
  }
  void histogram(std::string_view Name, const Histogram &H) override;

  /// Access to the underlying writer, for callers that interleave
  /// non-metric fields (e.g. statsJson splicing a raw sub-object).
  json::Writer &writer() { return W; }

  /// Closes the object and returns the serialized JSON.
  std::string finish() {
    W.endObject();
    return W.take();
  }

private:
  json::Writer W;
};

} // namespace telemetry
} // namespace facile

#endif // FACILE_TELEMETRY_METRICS_H
