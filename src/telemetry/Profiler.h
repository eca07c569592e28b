//===- Profiler.h - Hot-action replay profiler ------------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Attributes fast-replay work to the actions (dynamic basic blocks) that
/// consume it: per action id, how many node visits, replayed dynamic
/// instructions and placeholder bytes the replay executed, aggregated over
/// *sampled* steps. Sampling keeps the profiler cheap enough to leave on:
/// with period P only every P-th replayed step is measured, and the
/// per-node accounting is compiled into a separate replay-loop
/// instantiation (see Simulation::runFastImpl) so unsampled steps and
/// unprofiled runs execute the exact original loop.
///
/// The result surfaces two ways: a "profile" block in statsJson() /
/// --metrics output, and the `facilesim --top-actions=N` table that ranks
/// actions by replayed dynamic instructions.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_TELEMETRY_PROFILER_H
#define FACILE_TELEMETRY_PROFILER_H

#include "src/telemetry/Metrics.h"

#include <cstdint>
#include <vector>

namespace facile {
namespace telemetry {

class ActionProfiler {
public:
  /// \p NumActions sizes the per-action table; ids at or above it are
  /// dropped (defensive: replay verifies ids before it profiles them).
  /// \p SamplePeriod of 1 profiles every replayed step.
  explicit ActionProfiler(uint32_t NumActions, uint32_t SamplePeriod = 1)
      : Rows(NumActions), Period(SamplePeriod == 0 ? 1 : SamplePeriod) {}

  bool enabled() const { return Enabled; }
  void setEnabled(bool E) { Enabled = E; }
  uint32_t period() const { return Period; }

  /// Per-step sampling decision, called once per memoized step by the
  /// runtime. True means this step's replay should call noteNode/noteStep.
  bool armStep() {
    if (!Enabled)
      return false;
    return ++StepCounter % Period == 0;
  }

  /// One replayed node: \p Instrs dynamic instructions executed, \p Words
  /// placeholder words consumed.
  void noteNode(uint32_t ActionId, uint64_t Instrs, uint64_t Words) {
    if (ActionId >= Rows.size())
      return;
    Row &R = Rows[ActionId];
    ++R.Nodes;
    R.Instrs += Instrs;
    R.Bytes += Words * 8;
  }

  /// Closes one sampled step: \p Nodes walked, \p Replayed true when the
  /// step fully replayed (false: it missed into recovery).
  void noteStep(uint64_t Nodes, bool Replayed) {
    ++SampledSteps;
    if (Replayed)
      ++SampledReplays;
    SpanNodes.record(Nodes);
  }

  struct Entry {
    uint32_t ActionId = 0;
    uint64_t Nodes = 0;  ///< node visits attributed to the action
    uint64_t Instrs = 0; ///< replayed dynamic instructions
    uint64_t Bytes = 0;  ///< placeholder bytes consumed
  };

  /// The \p N hottest actions by replayed dynamic instructions,
  /// descending (ties broken by bytes, then id for determinism).
  std::vector<Entry> top(size_t N) const;

  uint64_t sampledSteps() const { return SampledSteps; }
  uint64_t sampledReplays() const { return SampledReplays; }
  const Histogram &stepNodes() const { return SpanNodes; }

  /// Exports the profile: period, sampled step counts, the per-step node
  /// histogram, and the top-\p TopN actions as an array.
  void exportMetrics(MetricSink &Sink, size_t TopN = 8) const;
  void registerMetrics(MetricsRegistry &R, std::string Group,
                       size_t TopN = 8) const {
    R.add(std::move(Group),
          [this, TopN](MetricSink &S) { exportMetrics(S, TopN); });
  }

  void reset();

private:
  struct Row {
    uint64_t Nodes = 0;
    uint64_t Instrs = 0;
    uint64_t Bytes = 0;
  };

  std::vector<Row> Rows;
  uint32_t Period;
  bool Enabled = true;
  uint64_t StepCounter = 0;
  uint64_t SampledSteps = 0;
  uint64_t SampledReplays = 0;
  Histogram SpanNodes; ///< nodes walked per sampled step
};

} // namespace telemetry
} // namespace facile

#endif // FACILE_TELEMETRY_PROFILER_H
