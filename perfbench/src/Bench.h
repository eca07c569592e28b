//===- Bench.h - Shared pieces of the perfbench program ---------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clock, seeded choices, statistics, the FastSim reference gate, the
/// in-memory span log and per-engine step aggregates, and the result line.
/// Everything here observes the system from outside: it times calls into
/// the repo's public functions and never reaches into their internals.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "src/isa/TargetImage.h"
#include "src/runtime/Simulation.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <time.h>
#include <vector>

namespace perfbench {

//===-- Command line ------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Shrinks every job and repeat count (the self-test runs at "tiny").
  bool Tiny = false;
  /// Flips one bit of the first program's reference digest, so every job
  /// on that program must be counted as failed (self-test of the gate).
  bool CorruptRef = false;
};

//===-- Clock and choices -------------------------------------------------===//

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline double nsToMs(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }
/// CPU time of this process, all threads: the host time the work itself
/// took. On a shared host, unlike the wall clock, it leaves out the time
/// the VM's CPUs are given to other guests (steal time) and the time the
/// process waits for a CPU.
inline uint64_t cpuNs() {
  timespec TS;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return static_cast<uint64_t>(TS.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(TS.tv_nsec);
}

/// SplitMix64: every seeded choice the load generator makes.
class Rand {
public:
  explicit Rand(uint64_t Seed) : S(Seed * 0x9e3779b97f4a7c15ull + 0x632be5ab) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }

private:
  uint64_t S;
};

//===-- Statistics --------------------------------------------------------===//

/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}
double geomean(const std::vector<double> &V);
/// VmHWM of this process in MB.
double peakRssMb();

//===-- Correctness gate --------------------------------------------------===//

/// What a run to halt must reproduce: the hand-coded FastSim's retired
/// count, cycle count and target-memory digest (the repo's only reference;
/// the model is not validated against hardware).
struct Reference {
  uint64_t Retired = 0;
  uint64_t Cycles = 0;
  uint64_t Digest = 0;
};
Reference fastSimReference(const facile::isa::TargetImage &Image);

struct Outcome {
  uint64_t Retired = 0;
  uint64_t Cycles = 0;
  uint64_t Digest = 0;
  bool Halted = false;
  bool Faulted = false;
  bool matches(const Reference &R) const {
    return Halted && !Faulted && Retired == R.Retired && Cycles == R.Cycles &&
           Digest == R.Digest;
  }
};

//===-- Tracing -----------------------------------------------------------===//

/// Spans kept in memory and written out once, at exit, as Chrome
/// trace_event JSON. Thread-safe (serve-store clients share one log).
class SpanLog {
public:
  /// Records a finished span; returns its index (a parent handle).
  int64_t add(const std::string &Name, uint64_t StartNs, uint64_t EndNs,
              int64_t Parent, uint64_t Id);
  /// Reserves a span whose end is filled in later with close().
  int64_t open(const std::string &Name, int64_t Parent, uint64_t Id);
  void close(int64_t Span);
  size_t size() const;
  /// Writes spans plus \p ExtraJson (a JSON object body, may be empty)
  /// to \p Path. Returns false on I/O errors.
  bool write(const std::string &Path, const std::string &ExtraJson) const;

private:
  struct Span {
    std::string Name;
    uint64_t StartNs, EndNs;
    int64_t Parent;
    uint64_t Id;
  };
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// Per-engine step aggregates: count, total and a log2 histogram of the
/// nanoseconds each sim().step() call took. No per-step records are kept.
struct EngineTimes {
  struct Agg {
    uint64_t Count = 0;
    uint64_t TotalNs = 0;
    uint64_t Hist[65] = {};
  };
  Agg E[4]; ///< indexed by rt::StepEngine

  void add(facile::rt::StepEngine Engine, uint64_t Ns) {
    Agg &A = E[static_cast<unsigned>(Engine)];
    ++A.Count;
    A.TotalNs += Ns;
    unsigned B = 0;
    for (uint64_t V = Ns; V; V >>= 1)
      ++B;
    ++A.Hist[B];
  }
  void merge(const EngineTimes &O);
  uint64_t totalNs() const;
  /// JSON object with one member per engine.
  std::string json() const;
};

/// Runs \p Sim to halt (or fault), timing every step() call with one clock
/// read per step and attributing the interval to the engine it returned.
void runTimedSteps(facile::rt::Simulation &Sim, EngineTimes &Out);

//===-- Deterministic per-job counters ------------------------------------===//

/// Counts a run to halt produces; identical for the same program whether
/// or not the run is traced.
struct JobCounts {
  uint64_t Steps = 0, FastSteps = 0, Misses = 0, RetiredTotal = 0,
           RetiredFast = 0, PlaceholderWords = 0, BypassedSteps = 0;
  uint64_t KeysInterned = 0, KeyCount = 0, KeyPoolBytes = 0, Clears = 0,
           PeakBytes = 0, OverlayBytes = 0;
  uint64_t JitCompiled = 0, JitSteps = 0, JitBailouts = 0, JitCodeBytes = 0;

  /// Reads sim().stats(), sim().cache().stats() and the "jit" group of
  /// statsJson() (\p StatsJson).
  static JobCounts of(const facile::rt::Simulation &Sim,
                      const std::string &StatsJson);
  void add(const JobCounts &O);
  bool operator==(const JobCounts &O) const = default;
};

//===-- Result line -------------------------------------------------------===//

/// Collects one run's figures and prints the result line. End-to-end and
/// per-layer metrics are kept apart; print() emits the set the run mode
/// asks for, in the order of endToEndMetrics()/perLayerMetrics().
class Report {
public:
  void endToEnd(const std::string &Name, double V) { E2E[Name] = V; }
  void layer(const std::string &Name, double V) { Layer[Name] = V; }
  /// One operation attempted; \p Ok false counts it as failed.
  void op(bool Ok) {
    ++Attempted;
    if (!Ok)
      ++Failed;
  }
  /// A check outside the operations (e.g. traced == untraced) failed.
  void fail(const std::string &Why);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  /// Prints the one-line result object to stdout.
  void print(bool Trace) const;

  /// Extra members for the trace file (per-engine step aggregates).
  std::string TraceExtra;

private:
  std::map<std::string, double> E2E, Layer;
  uint64_t Attempted = 0, Failed = 0;
  bool CheckFailed = false;
};

using MetricList = std::vector<std::pair<const char *, const char *>>;
/// Name and unit of every metric, as BENCHMARK.json lists them.
const MetricList &endToEndMetrics();
/// The traced run's metrics; layers a workload does not exercise report 0.
const MetricList &perLayerMetrics();

/// Workload entry points (Batch.cpp, Serve.cpp). Each fills \p R.
void runBatch(const Args &A, Report &R, SpanLog &Spans);
void runServe(const Args &A, Report &R, SpanLog &Spans);

/// Completed jobs or sessions grouped by program shape. Absolute figures
/// are per-shape quantiles combined by geometric mean over the shapes, so
/// one job's burst cannot move them and every shape weighs the same;
/// slowdowns, one scale for every shape, pool (reportEndToEnd).
/// serve-store, whose programs are equally long, uses one group.
struct ShapeSamples {
  std::vector<std::vector<double>> Ms, Kips, RefKips, Slowdown; ///< per shape

  explicit ShapeSamples(size_t Shapes)
      : Ms(Shapes), Kips(Shapes), RefKips(Shapes), Slowdown(Shapes) {}
  /// One job of \p JobMs that retired \p Retired instructions, where the
  /// hand-coded FastSim took \p RefMs for the same program on the same
  /// host just before or after.
  void add(size_t Shape, double JobMs, uint64_t Retired, double RefMs) {
    Ms[Shape].push_back(JobMs);
    Kips[Shape].push_back(static_cast<double>(Retired) / JobMs);
    RefKips[Shape].push_back(static_cast<double>(Retired) / RefMs);
    Slowdown[Shape].push_back(JobMs / RefMs);
  }
  /// Per shape the q-quantile of \p V, then the geometric mean.
  static double across(const std::vector<std::vector<double>> &V, double Q);
  double kips() const { return across(Kips, 0.5); }
};

/// Host time of the hand-coded FastSim running \p Image to halt, measured
/// with \p Clock (nowNs or cpuNs): the yardstick each job's or session's
/// time is divided by.
double fastSimMs(const facile::isa::TargetImage &Image, uint64_t (*Clock)());

/// Tracing overhead: untraced over traced kips, minus one, in percent.
double overheadPct(const ShapeSamples &Plain, const ShapeSamples &Traced);

/// Records the end-to-end metrics shared by all workloads, and the
/// absolute host-time figures behind them as per-layer metrics.
void reportEndToEnd(Report &R, const ShapeSamples &Sessions, double SetupS);

/// Records the runtime.* and jit.* layers: deterministic counts from
/// \p Pass (one run per program) and \p PassSteps, per-step times from
/// \p AllSteps.
void reportEngineLayers(Report &R, const JobCounts &Pass,
                        const EngineTimes &PassSteps,
                        const EngineTimes &AllSteps);

/// Phase-timed compile of \p Source through the public pipeline entry
/// points; fills facile.*_ms with medians over \p Repeats.
void timeCompilePhases(const std::string &Source, unsigned Repeats,
                       Report &R, SpanLog &Spans);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
