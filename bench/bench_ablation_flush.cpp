//===- bench_ablation_flush.cpp - §6.3 item 3: rt-static flush overhead ------===//
//
// The paper's §6.3 item 3: without liveness analysis, the compiler flushes
// every rt-static global to dynamic state at the end of each step, which
// "causes extra data to be written into the specialized action cache".
// This harness quantifies that overhead for each Facile simulator: how
// many placeholder words each recorded step carries, how much of it is
// end-of-step synchronisation (key flushing), and how key size compares to
// the hand-coded simulator's packed pipeline state (the paper's <40-byte
// compressed instruction queue).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "src/fastsim/FastSim.h"
#include "src/sims/SimHarness.h"
#include "src/workload/Workloads.h"

using namespace facile;
using namespace facile::bench;
using namespace facile::sims;

int main(int Argc, char **Argv) {
  BenchArgs Args("bench_ablation_flush");
  if (int Rc = Args.parse(Argc, Argv); Rc != support::ArgParse::KeepGoing)
    return Rc;
  double Scale = Args.Scale;
  banner("Ablation — rt-static flush and key-encoding overhead",
         "flushes add cache data (§6.3 item 3); FastSim compresses its key "
         "(<40 B vs. our byte-packed Facile keys)",
         "per-step memoized data across the three Facile simulators");

  const workload::WorkloadSpec *Spec = workload::findSpec("compress");
  isa::TargetImage Image = workload::generate(*Spec, 1u << 30);
  uint64_t Budget = scaled(400'000, Scale);

  std::printf("%-14s %10s %12s %14s %14s %12s %10s %12s\n", "simulator",
              "sync ops", "key bytes", "placeholders", "words/step",
              "cache B/step", "keys", "keypool B");

  for (auto [Kind, Name] :
       {std::pair{SimKind::Functional, "functional"},
        std::pair{SimKind::InOrder, "in-order"},
        std::pair{SimKind::OutOfOrder, "out-of-order"}}) {
    const CompiledProgram &P = simulatorProgram(Kind);
    FacileSim Sim(Kind, Image);
    Sim.run(Budget);
    const rt::Simulation::Stats &S = Sim.sim().stats();
    uint64_t SlowSteps = S.Steps - S.FastSteps;
    // Keys are width-tagged, so their size is measured: the mean over the
    // interned keys.
    const rt::ActionCache &C = Sim.sim().cache();
    const double KeyBytes =
        C.keyCount() ? static_cast<double>(C.keyPoolBytes()) /
                           static_cast<double>(C.keyCount())
                     : 0.0;
    std::printf("%-14s %10u %12.1f %14llu %14.1f %12.1f %10zu %12zu\n", Name,
                P.Bta.SyncInsts, KeyBytes,
                static_cast<unsigned long long>(S.PlaceholderWords),
                SlowSteps ? static_cast<double>(S.PlaceholderWords) /
                                static_cast<double>(SlowSteps)
                          : 0.0,
                SlowSteps ? static_cast<double>(Sim.sim().cache().bytes()) /
                                static_cast<double>(SlowSteps)
                          : 0.0,
                Sim.sim().cache().keyCount(),
                Sim.sim().cache().keyPoolBytes());
  }

  std::printf("%-14s %10s %12zu  (hand-packed pipeline state — the paper's "
              "compressed-key advantage)\n",
              "fastsim", "-", sizeof(fastsim::PipelineState));
  return 0;
}
