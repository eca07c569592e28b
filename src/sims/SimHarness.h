//===- SimHarness.h - Host harness for the Facile simulators ----*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wires the Facile-written simulators (src/sims/*.fac) to the C++
/// substrate, playing the role of the paper's ~1000 lines of support C
/// code (§6.2): it compiles the .fac sources, registers the external
/// (unmemoized) branch predictor and cache simulator, seeds the program
/// counter and stack pointer, and runs to an instruction budget.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_SIMS_SIMHARNESS_H
#define FACILE_SIMS_SIMHARNESS_H

#include "src/facile/Compiler.h"
#include "src/runtime/Simulation.h"
#include "src/store/CacheStore.h"
#include "src/uarch/Caches.h"
#include "src/uarch/Predictors.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace facile {
namespace sims {

/// Which Facile simulator source to run.
enum class SimKind {
  Functional, ///< functional.fac — 1 instruction/step, no timing
  InOrder,    ///< inorder.fac — scoreboarded in-order pipeline
  OutOfOrder, ///< ooo.fac — instruction-window out-of-order pipeline
};

/// Whether the compiler's optimization pipeline runs. Raw exists for the
/// differential tests, which pin optimized against unoptimized execution.
enum class PassMode : uint8_t {
  Optimized, ///< full pipeline (the default everywhere)
  Raw,       ///< passes disabled; the lowered IR runs as-is
};

/// Returns the compiled program for \p Kind. Sources are read from the
/// FACILE_SIMS_DIR the build configures; compilation happens once per
/// (Kind, Mode) per process and the result is cached. Aborts on compile
/// errors (the .fac sources ship with the repo, so failures are build
/// breakage).
const CompiledProgram &simulatorProgram(SimKind Kind,
                                        PassMode Mode = PassMode::Optimized);

/// Returns the concatenated Facile source text for \p Kind (prelude +
/// simulator), for tests that want to inspect or recompile it.
std::string simulatorSource(SimKind Kind);

/// One runnable Facile simulator instance bound to a target image.
class FacileSim {
public:
  /// \p Image must outlive this object.
  FacileSim(SimKind Kind, const isa::TargetImage &Image,
            rt::Simulation::Options Opts = {},
            PassMode Mode = PassMode::Optimized);

  /// Constructs over a process-shared immutable program/image/plan bundle
  /// (see rt::SharedProgram). \p Shared must have been built from
  /// simulatorProgram(Kind, ...) and must outlive this object; many
  /// FacileSims — across threads — may share one bundle.
  FacileSim(SimKind Kind, const rt::SharedProgram &Shared,
            rt::Simulation::Options Opts = {});

  /// Runs until sim_halt(), a structured fault, or at least \p MaxInstrs
  /// instructions retired. Returns the number of instructions retired;
  /// check faulted()/fault() afterwards to distinguish the outcomes.
  uint64_t run(uint64_t MaxInstrs);

  /// True once the simulation raised a structured fault; see fault().
  bool faulted() const { return Sim.faulted(); }
  const rt::SimFault &fault() const { return Sim.fault(); }

  /// One-line JSON object with the run's simulation and action-cache
  /// statistics, for machine-readable perf trajectories (no trailing
  /// newline). Keys are stable across releases; new ones may be added.
  /// Since schema_version 2 this is a thin walk over registerMetrics()
  /// rendered by telemetry::JsonMetricSink — every pre-v2 key survives.
  std::string statsJson() const;

  //===-- Telemetry ----------------------------------------------------------

  /// Registers the full statsJson() schema: schema_version, the
  /// simulation's groups (fault/guard/bypass/cache), "snapshot", "passes",
  /// the "branch" and "mem" uarch groups, and — when attached — "profile"
  /// and "telemetry". The registry must not outlive this instance.
  void registerMetrics(telemetry::MetricsRegistry &R) const;

  /// Attaches a tracer/profiler to the underlying simulation; snapshot
  /// load/save instants are emitted through the same tracer.
  void setTracer(telemetry::EventTracer *T) { Sim.setTracer(T); }
  void setProfiler(telemetry::ActionProfiler *P) { Sim.setProfiler(P); }
  /// How many rows the "profile" block's top_actions table carries.
  void setTopActions(size_t N) { TopActions = N; }

  //===-- Snapshot & warm start ----------------------------------------------

  /// Per-instance snapshot accounting, reported under "snapshot" in
  /// statsJson().
  struct SnapshotStats {
    uint64_t CacheEntriesLoaded = 0; ///< action-cache entries after load
    uint64_t CacheNodesLoaded = 0;   ///< action nodes after load
    uint64_t CompatMismatches = 0;   ///< stale compat key rejections
    uint64_t CorruptInputs = 0;      ///< bad magic/CRC/framing rejections
    uint64_t ColdFallbacks = 0;      ///< failed loads (any reason)
    uint64_t BytesRead = 0;          ///< snapshot bytes read (incl. rejected)
    uint64_t BytesWritten = 0;       ///< snapshot bytes written
    bool CheckpointLoaded = false;
    bool CacheLoaded = false;

    /// Pushes the counters into \p Sink in statsJson() key order.
    void exportMetrics(telemetry::MetricSink &Sink) const;
  };

  /// Builds a checkpoint container: complete dynamic simulation state,
  /// target memory, and the (unmemoized) branch-unit and cache-hierarchy
  /// state, bound to this instance's compatibility key.
  std::vector<uint8_t> checkpointBytes() const;

  /// Builds a persistent action-cache container for warm-start replay.
  std::vector<uint8_t> cacheBytes() const;

  /// Restores a checkpoint/action-cache container. All-or-nothing: on any
  /// mismatch or corruption the simulation is left exactly as it was (a
  /// cold start), false is returned, and a diagnostic lands in \p Err when
  /// given, else on stderr. Never aborts on bad input.
  bool loadCheckpointBytes(const std::vector<uint8_t> &Bytes,
                           std::string *Err = nullptr);
  bool loadCacheBytes(const std::vector<uint8_t> &Bytes,
                      std::string *Err = nullptr);

  /// File-backed convenience wrappers over the byte-level API.
  bool saveCheckpoint(const std::string &Path, std::string *Err = nullptr);
  bool loadCheckpoint(const std::string &Path, std::string *Err = nullptr);
  bool saveCache(const std::string &Path, std::string *Err = nullptr);
  bool loadCache(const std::string &Path, std::string *Err = nullptr);

  const SnapshotStats &snapshotStats() const { return SnapStats; }

  //===-- Shared cache store -------------------------------------------------

  /// Maps the newest compatible generation from \p Store and attaches it
  /// as this simulation's read-only cache base (new recordings go to a
  /// private overlay). A clean miss — no store file for this
  /// configuration — returns false with \p Err empty and the simulation
  /// cold, exactly like a missing snapshot; validation failures are
  /// counted and diagnosed like corrupt snapshots. Call before the first
  /// step. On success the mapping is pinned for this instance's lifetime
  /// and the run counts as warm (snapshot stats report the base entries).
  bool attachStore(store::CacheStoreDir &Store, std::string *Err = nullptr);

  /// Writes this instance's merged cache — base plus overlay, compacted
  /// and patches applied, detached entries dropped — as the next store
  /// generation for this configuration. Existing mappings (including this
  /// instance's own base) are untouched. Typically called on clean
  /// shutdown of a populating run.
  bool promoteStore(store::CacheStoreDir &Store,
                    uint64_t *OutGeneration = nullptr,
                    std::string *Err = nullptr);

  /// The mapping this instance shares, or null when none is attached.
  const std::shared_ptr<const store::StoreMap> &storeMapping() const {
    return Mapping;
  }

  rt::Simulation &sim() { return Sim; }
  const rt::Simulation &sim() const { return Sim; }
  const BranchUnit &branchUnit() const { return BU; }
  const MemoryHierarchy &memHierarchy() const { return MH; }

private:
  void wireExterns(SimKind Kind);
  bool saveFile(const std::string &Path, std::vector<uint8_t> Bytes,
                std::string *Err);
  bool noteLoadFailure(const char *What, const std::string &Detail,
                       std::string *Err);

  const CompiledProgram &Prog; ///< for pass stats in statsJson()
  rt::Simulation Sim;
  BranchUnit BU;
  MemoryHierarchy MH;
  SnapshotStats SnapStats;
  std::shared_ptr<const store::StoreMap> Mapping; ///< attached store base
  /// Wall time of the last attachStore (map and validate, or reuse a live
  /// mapping, then attach) and of the last promoteStore (compact, encode,
  /// write and publish); "store" group attach_us / promote_us.
  uint64_t AttachUs = 0;
  uint64_t PromoteUs = 0;
  size_t TopActions = 8; ///< "profile" block top_actions rows
};

} // namespace sims
} // namespace facile

#endif // FACILE_SIMS_SIMHARNESS_H
