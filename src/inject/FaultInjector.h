//===- FaultInjector.h - Seeded fault-injection campaigns -------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injector for hardening campaigns. Given a seeded
/// spec, it flips bits in target memory and in the action cache's node and
/// data arenas, truncates the packed execution plan's streams, and makes
/// extern calls fail — the exact corruptions the guarded execution layer
/// must either absorb or convert into a structured SimFault, never a
/// crash, hang or silent divergence.
///
/// Usage: construct over a Simulation, arm() once to install the extern
/// failure hook, then interleave inject() with short run() chunks:
///
///   inject::FaultInjector Inj(Sim, Spec);
///   Inj.arm();
///   while (!Sim.halted() && !Sim.faulted()) {
///     Sim.run(Chunk);
///     Inj.inject();
///   }
///
/// All randomness flows from the spec's seed through one SplitMix64 stream,
/// so a campaign run is bit-reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_INJECT_FAULTINJECTOR_H
#define FACILE_INJECT_FAULTINJECTOR_H

#include "src/runtime/Simulation.h"
#include "src/support/Rng.h"

#include <cstdint>
#include <string>

namespace facile {
namespace inject {

/// What to corrupt and how often. Rates are probabilities per inject()
/// call, stored in parts per million so campaigns stay integer-exact.
struct InjectSpec {
  uint64_t Seed = 1;
  uint32_t MemPpm = 0;    ///< flip a bit in target memory
  uint32_t CachePpm = 0;  ///< flip a bit in a cache arena (nodes or pool)
  uint32_t ExternPpm = 0; ///< make the next extern call fail
  uint32_t PlanPpm = 0;   ///< truncate an execution-plan stream

  /// Parses "seed:42,mem:0.01,cache:0.02,extern:0.001,plan:0.0001" where
  /// each rate is a probability in [0,1]. Unknown keys or malformed values
  /// set Err and return false.
  static bool parse(const std::string &Text, InjectSpec &Out,
                    std::string &Err);
};

class FaultInjector {
public:
  struct Counters {
    uint64_t MemFlips = 0;
    uint64_t CacheNodeFlips = 0;
    uint64_t CacheSealFlips = 0;
    uint64_t CachePoolFlips = 0;
    uint64_t ExternFails = 0;
    uint64_t PlanTruncations = 0;
    uint64_t total() const {
      return MemFlips + CacheNodeFlips + CacheSealFlips + CachePoolFlips +
             ExternFails + PlanTruncations;
    }
  };

  FaultInjector(rt::Simulation &Sim, const InjectSpec &Spec)
      : Sim(Sim), Spec(Spec), R(Spec.Seed) {}

  /// Installs the extern failure hook on the simulation. Without arm() the
  /// ExternPpm rate has no effect.
  void arm();

  /// Rolls each rate once and applies whatever corruption comes up.
  void inject();

  const Counters &counters() const { return C; }

private:
  void flipMemoryBit();
  void flipCacheBit();
  void truncatePlan();

  rt::Simulation &Sim;
  InjectSpec Spec;
  Rng R;
  Counters C;
};

} // namespace inject
} // namespace facile

#endif // FACILE_INJECT_FAULTINJECTOR_H
