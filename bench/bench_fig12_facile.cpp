//===- bench_fig12_facile.cpp - Reproduces Figure 12 -------------------------===//
//
// Paper Figure 12: performance of the out-of-order simulator *written in
// Facile* and compiled by the Facile compiler, with and without
// fast-forwarding, compared to SimpleScalar; plus the §6.2 comparisons to
// the hand-coded simulator and line counts.
//
// Paper shape: fast-forwarding speeds the compiled simulator 2.8-23.8x
// (harmonic mean 8.3, gcc lowest because its working set overflows the
// 256 MB action cache); the compiled simulator runs at about 1/6 the speed
// of hand-coded FastSim; with memoization it beats SimpleScalar by ~1.5x
// (harmonic mean). Our compiled simulators run on an IR-interpreting
// backend instead of emitted C, which shifts the absolute constant against
// SimpleScalar (see EXPERIMENTS.md) while the memoization speedup and the
// compiled-vs-hand-coded gap reproduce.
//
// The memoized configurations also run under the template-JIT backend
// (--jit=auto by default): kips_memo_jit / jit_speedup record what native
// code buys over the interpreting backend on identical work, and the run
// cross-checks the two backends' final memory digests — a JIT that drifts
// from the interpreter by one bit fails here before it fails CI.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "src/fastsim/FastSim.h"
#include "src/jit/JitEmitter.h"
#include "src/simscalar/SimScalar.h"
#include "src/sims/SimHarness.h"
#include "src/telemetry/Profiler.h"
#include "src/telemetry/Trace.h"
#include "src/workload/Workloads.h"

#include <cmath>

using namespace facile;
using namespace facile::bench;
using namespace facile::sims;

int main(int Argc, char **Argv) {
  BenchArgs Args("bench_fig12_facile");
  // --guards=off runs the memoized simulator with the guarded execution
  // layer disabled (no bounds/seal checks on replay); the run always
  // measures both configurations so the JSON records the guard overhead,
  // the flag just selects which one the headline memo numbers come from.
  bool GuardsOn = true;
  Args.parser().onOff("guards",
                      GuardsOn, "guarded replay for the headline memo "
                                "numbers (default on)");
  // --jit=on adds the template-JIT configuration unconditionally (it
  // degrades to the interpreter on unsupported hosts, recorded in the
  // JSON); off skips it; auto (default) runs it when the host supports it.
  std::string JitMode = "auto";
  Args.parser().choice("jit", JitMode, {"on", "off", "auto"},
                       "measure the template-JIT backend (default auto:\n"
                       "only where the host supports it)");
  if (int Rc = Args.parse(Argc, Argv); Rc != support::ArgParse::KeepGoing)
    return Rc;
  double Scale = Args.Scale;
  // --json/--out=<file>: one machine-readable stats line per benchmark so
  // perf trajectories can be tracked across changes.
  JsonSink Sink(Args);
  const bool RunJit =
      JitMode == "on" || (JitMode == "auto" && jit::available());
  banner("Figure 12 — Facile-compiled OOO simulator with/without "
         "fast-forwarding vs. SimpleScalar",
         "memo/no-memo 2.8-23.8x (hmean 8.3); ~1/6 of hand-coded FastSim",
         "simulation speed in Ksim-instr/s per benchmark, plus ratios");

  std::printf("%-14s %11s %12s %12s %9s %9s %9s %8s %8s\n", "benchmark",
              "memo Kips", "nomemo Kips", "sscalar Kips", "memo/nom",
              "memo/sscal", "vs hand", "jit", "ff%");

  std::vector<double> MemoSpeedups, VsScalar, VsHand, GuardOverheads,
      TelemetryOverheads, JitSpeedups;
  bool JitDigestsMatch = true;
  uint64_t JitCompiledActions = 0;
  for (const workload::WorkloadSpec &Spec : workload::spec95Suite()) {
    isa::TargetImage Image = workload::generate(Spec, 1u << 30);

    uint64_t MemoBudget = scaled(1'500'000, Scale);
    uint64_t SlowBudget = scaled(80'000, Scale);
    uint64_t ScalarBudget = scaled(1'000'000, Scale);

    // The memoized baselines pin the interpreting backend explicitly:
    // kips_memo keeps meaning what it always meant even on hosts where
    // Auto would resolve to the JIT.
    rt::Simulation::Options Guarded;
    Guarded.Guards = true;
    Guarded.Backend = rt::BackendKind::Interpret;

    // Warm-up: one discarded guarded run per benchmark. First-touch costs
    // (page faults, allocator growth, the per-process compile cache) used
    // to land entirely on the first timed configuration and skew the
    // guarded-vs-unguarded comparison; its raw sample still goes in the
    // JSON so the discarded data stays inspectable.
    FacileSim Warmup(SimKind::OutOfOrder, Image, Guarded);
    double TWarmup = timeIt([&] { Warmup.run(MemoBudget); });
    double KipsWarmup =
        static_cast<double>(Warmup.sim().stats().RetiredTotal) / TWarmup / 1e3;

    FacileSim MemoG(SimKind::OutOfOrder, Image, Guarded);
    double TMemoG = timeIt([&] { MemoG.run(MemoBudget); });
    double KipsMemoG =
        static_cast<double>(MemoG.sim().stats().RetiredTotal) / TMemoG / 1e3;

    rt::Simulation::Options Unguarded = Guarded;
    Unguarded.Guards = false;
    FacileSim MemoU(SimKind::OutOfOrder, Image, Unguarded);
    double TMemoU = timeIt([&] { MemoU.run(MemoBudget); });
    double KipsMemoU =
        static_cast<double>(MemoU.sim().stats().RetiredTotal) / TMemoU / 1e3;

    // Guard overhead: how much slower the guarded replay runs, in percent.
    double GuardOverheadPct = (KipsMemoU / KipsMemoG - 1.0) * 100.0;
    GuardOverheads.push_back(GuardOverheadPct);

    // Telemetry overhead: guarded run with a tracer attached (spans merged
    // in the ring, never written out) and the profiler attached but
    // disabled — the cost of carrying the instrumentation, not of using it.
    FacileSim MemoGT(SimKind::OutOfOrder, Image, Guarded);
    telemetry::EventTracer Tracer;
    telemetry::ActionProfiler Prof(MemoGT.sim().actionCount());
    Prof.setEnabled(false);
    MemoGT.setTracer(&Tracer);
    MemoGT.setProfiler(&Prof);
    double TMemoGT = timeIt([&] { MemoGT.run(MemoBudget); });
    double KipsMemoGT =
        static_cast<double>(MemoGT.sim().stats().RetiredTotal) / TMemoGT / 1e3;
    double TelemetryOverheadPct = (KipsMemoG / KipsMemoGT - 1.0) * 100.0;
    TelemetryOverheads.push_back(TelemetryOverheadPct);

    // Template-JIT configuration: identical work to MemoG/MemoU, with slow
    // steps and hot entries' replays run as native code. Threshold 1
    // compiles on first replay — the budgets here are far below
    // production run lengths, so the default warm-up threshold would
    // understate steady-state gain.
    double KipsMemoJit = 0.0, JitSpeedup = 0.0;
    bool JitRan = false, JitDigestOk = true;
    if (RunJit) {
      rt::Simulation::Options JitOpts = GuardsOn ? Guarded : Unguarded;
      JitOpts.Backend = rt::BackendKind::Jit;
      JitOpts.JitThreshold = 1;
      FacileSim MemoJ(SimKind::OutOfOrder, Image, JitOpts);
      double TMemoJ = timeIt([&] { MemoJ.run(MemoBudget); });
      KipsMemoJit = static_cast<double>(MemoJ.sim().stats().RetiredTotal) /
                    TMemoJ / 1e3;
      JitSpeedup = KipsMemoJit / (GuardsOn ? KipsMemoG : KipsMemoU);
      JitRan = std::string(MemoJ.sim().backendName()) == "jit";
      if (JitRan)
        JitSpeedups.push_back(JitSpeedup);
      // Same budget, same deterministic workload: the final target memory
      // must be bit-identical across backends.
      FacileSim &Ref = GuardsOn ? MemoG : MemoU;
      JitDigestOk = MemoJ.sim().memory().digest() ==
                        Ref.sim().memory().digest() &&
                    MemoJ.sim().stats().RetiredTotal ==
                        Ref.sim().stats().RetiredTotal;
      JitDigestsMatch = JitDigestsMatch && JitDigestOk;
      JitCompiledActions += MemoJ.sim().jitCompiledActions();
    }

    FacileSim &Memo = GuardsOn ? MemoG : MemoU;
    double KipsMemo = GuardsOn ? KipsMemoG : KipsMemoU;

    rt::Simulation::Options Off;
    Off.Memoize = false;
    FacileSim NoMemo(SimKind::OutOfOrder, Image, Off);
    double TNo = timeIt([&] { NoMemo.run(SlowBudget); });
    double KipsNo =
        static_cast<double>(NoMemo.sim().stats().RetiredTotal) / TNo / 1e3;

    simscalar::SimScalar Scalar(Image);
    double TSs = timeIt([&] { Scalar.run(ScalarBudget); });
    double KipsSs = static_cast<double>(Scalar.stats().Retired) / TSs / 1e3;

    fastsim::FastSim Hand(Image);
    double THand = timeIt([&] { Hand.run(MemoBudget); });
    double KipsHand =
        static_cast<double>(Hand.stats().Retired) / THand / 1e3;

    double MemoSpeedup = KipsMemo / KipsNo;
    MemoSpeedups.push_back(MemoSpeedup);
    VsScalar.push_back(KipsMemo / KipsSs);
    VsHand.push_back(KipsMemo / KipsHand);

    char JitCol[16] = "-";
    if (JitRan)
      std::snprintf(JitCol, sizeof(JitCol), "%.2fx", JitSpeedup);
    std::printf("%-14s %11.0f %12.1f %12.0f %9.2f %9.3f %9.3f %8s %7.3f%%\n",
                Spec.Name.c_str(), KipsMemo, KipsNo, KipsSs, MemoSpeedup,
                KipsMemo / KipsSs, KipsMemo / KipsHand, JitCol,
                Memo.sim().stats().fastForwardedPct());
    Sink.begin()
        .field("bench", Spec.Name)
        .field("kips_memo", KipsMemo)
        .field("kips_nomemo", KipsNo)
        .field("kips_memo_guarded", KipsMemoG)
        .field("kips_memo_unguarded", KipsMemoU)
        .field("kips_memo_guarded_warmup", KipsWarmup)
        .field("kips_memo_telemetry", KipsMemoGT)
        .field("kips_memo_jit", KipsMemoJit)
        .field("jit_speedup", JitSpeedup)
        .field("jit_ran", JitRan)
        .field("jit_digest_match", JitDigestOk)
        .field("guard_overhead_pct", GuardOverheadPct)
        .field("telemetry_overhead_pct", TelemetryOverheadPct)
        .rawField("stats", Memo.statsJson());
    Sink.commit();
  }

  auto Mean = [](const std::vector<double> &V) {
    double Sum = 0.0;
    for (double O : V)
      Sum += O;
    return V.empty() ? 0.0 : Sum / static_cast<double>(V.size());
  };
  double MeanOverhead = Mean(GuardOverheads);
  double MeanTelemetry = Mean(TelemetryOverheads);
  // Speedup ratios aggregate geometrically — the workloads' absolute
  // speeds span 20x, and a geomean weights each ratio equally.
  double JitGeomean = 0.0;
  if (!JitSpeedups.empty()) {
    double LogSum = 0.0;
    for (double S : JitSpeedups)
      LogSum += std::log(S);
    JitGeomean = std::exp(LogSum / static_cast<double>(JitSpeedups.size()));
  }

  std::printf("\nharmonic means: memo/no-memo %.2fx (paper 2.8-23.8x, hmean "
              "8.3); memo vs SimpleScalar %.3fx (paper ~1.5x, see "
              "EXPERIMENTS.md on the interpreted backend); compiled vs "
              "hand-coded %.3fx (paper ~1/6)\n",
              harmonicMean(MemoSpeedups), harmonicMean(VsScalar),
              harmonicMean(VsHand));
  std::printf("guarded replay overhead: %.2f%% mean across the suite "
              "(budget: <= 5%%)\n",
              MeanOverhead);
  std::printf("attached-telemetry overhead: %.2f%% mean across the suite "
              "(budget: <= 1%% at full scale)\n",
              MeanTelemetry);
  if (RunJit)
    std::printf("template-JIT backend: geomean %.3fx vs interpreting "
                "backend over %zu workloads, %llu blocks and trace shapes "
                "compiled, digests %s\n",
                JitGeomean, JitSpeedups.size(),
                (unsigned long long)JitCompiledActions,
                JitDigestsMatch ? "bit-identical" : "MISMATCHED");
  // One summary object for CI: the overhead budget asserts key off this
  // line instead of re-averaging the per-benchmark rows.
  Sink.begin()
      .field("summary", true)
      .field("mean_guard_overhead_pct", MeanOverhead)
      .field("mean_telemetry_overhead_pct", MeanTelemetry)
      .field("hmean_memo_speedup", harmonicMean(MemoSpeedups))
      .field("hmean_vs_simplescalar", harmonicMean(VsScalar))
      .field("hmean_vs_handcoded", harmonicMean(VsHand))
      .field("jit_geomean_speedup", JitGeomean)
      .field("jit_compiled_actions", JitCompiledActions)
      .field("jit_digest_match", JitDigestsMatch);
  Sink.commit();

  // §6.2 line-count claims: simulator sizes in lines of Facile.
  std::printf("\nsimulator sizes (paper: functional 703, in-order 965, "
              "out-of-order 1959 lines of Facile):\n");
  for (auto [Kind, Name] :
       {std::pair{SimKind::Functional, "functional"},
        std::pair{SimKind::InOrder, "in-order"},
        std::pair{SimKind::OutOfOrder, "out-of-order"}}) {
    std::string Src = simulatorSource(Kind);
    size_t Lines = 0, Code = 0;
    bool NonBlank = false;
    for (size_t I = 0; I != Src.size(); ++I) {
      if (Src[I] == '\n') {
        ++Lines;
        if (NonBlank)
          ++Code;
        NonBlank = false;
      } else if (!isspace(static_cast<unsigned char>(Src[I]))) {
        NonBlank = true;
      }
    }
    std::printf("  %-13s %4zu lines of Facile (%zu non-blank)\n", Name,
                Lines, Code);
  }
  // A digest mismatch is a JIT correctness bug: fail the harness so CI
  // smoke runs catch it without parsing the JSON.
  return JitDigestsMatch ? 0 : 1;
}
