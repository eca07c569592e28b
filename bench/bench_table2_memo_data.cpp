//===- bench_table2_memo_data.cpp - Reproduces Table 2 -----------------------===//
//
// Paper Table 2: quantity of memoized data (MBytes cached) per SPEC95
// benchmark. Paper shape: most benchmarks are small (compress 2.8 MB, li
// 3.2 MB, m88ksim 4.6 MB), the large irregular integer codes are large
// (go 889.4 MB, gcc 296.0 MB, ijpeg 199.5 MB, perl 142.9 MB, vortex
// 108.6 MB); floating-point codes sit in between (5.6-38.3 MB).
//
// Absolute sizes scale with run length and with key encoding (the paper
// compresses its instruction queue below 40 bytes; our Facile keys pack
// each field only to whole bytes — see the ablation benches); the
// *ordering* across benchmarks is the reproduced result.
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
  BenchArgs Args("bench_table2_memo_data");
  if (int Rc = Args.parse(Argc, Argv); Rc != support::ArgParse::KeepGoing)
    return Rc;
  double Scale = Args.Scale;
  banner("Table 2 — quantity of memoized data",
         "2.8 MB (compress) .. 889 MB (go); int codes >> fp codes",
         "action-cache MBytes after a fixed instruction budget (Facile OOO "
         "and hand-coded FastSim)");

  std::printf("%-14s %5s %14s %14s %12s %12s\n", "benchmark", "set",
              "facile MB", "fastsim MB", "entries", "placeholders");

  // Unlimited budget so Table 2 reports the full footprint.
  rt::Simulation::Options Unbounded;
  Unbounded.CacheBudgetBytes = static_cast<size_t>(1) << 40;
  fastsim::FastSim::Options HandUnbounded;
  HandUnbounded.CacheBudgetBytes = static_cast<size_t>(1) << 40;

  for (const workload::WorkloadSpec &Spec : workload::spec95Suite()) {
    isa::TargetImage Image = workload::generate(Spec, 1u << 30);
    uint64_t Budget = scaled(2'000'000, Scale);

    FacileSim Sim(SimKind::OutOfOrder, Image, Unbounded);
    Sim.run(Budget);

    fastsim::FastSim Hand(Image, HandUnbounded);
    Hand.run(Budget);

    std::printf("%-14s %5s %14.1f %14.1f %12zu %12llu\n", Spec.Name.c_str(),
                Spec.FloatingPoint ? "fp" : "int",
                static_cast<double>(Sim.sim().cache().bytes()) / 1048576.0,
                static_cast<double>(Hand.stats().CacheBytes) / 1048576.0,
                Sim.sim().cache().entryCount(),
                static_cast<unsigned long long>(
                    Sim.sim().stats().PlaceholderWords));
  }
  return 0;
}
