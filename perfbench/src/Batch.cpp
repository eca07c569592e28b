//===- Batch.cpp - replay-fp and record-int batch workloads ---------------===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single-threaded batch of jobs. One job is one session of a user
/// running a fresh program: construct a FacileSim over a freshly built
/// SharedProgram (empty action cache, empty modelled caches, cold JIT), run
/// it to halt, read the memory digest, destroy it. Every job is checked
/// against the program's FastSim reference, and its CPU time is divided by
/// that of FastSim running the same program around it: the slowdown
/// the end-to-end figures report. Both see the same host, so the ratio
/// does not follow the shared host's drifting speed as a job's own time
/// does.
///
/// The program list is fixed by the seed: PerShape programs per suite
/// shape, each with its own WorkloadSpec.Seed, ordered round-robin over
/// the shapes. The timed window walks the list a fixed number of whole
/// passes, set by --seconds and the workload's nominal pass time, so every
/// run holds the same jobs however fast the host is, and a traced run's
/// deterministic counts always cover the same jobs.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "src/facile/Compiler.h"
#include "src/runtime/SharedProgram.h"
#include "src/sims/SimHarness.h"
#include "src/workload/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

using namespace facile;

namespace perfbench {
namespace {

struct BatchConfig {
  std::vector<const char *> Shapes;
  /// One outer_iters value for every program, so each shape's job lengths
  /// form one cluster whose quantiles do not move with the seed.
  uint64_t OuterIters;
  /// Programs per shape in one pass, each with its own spec seed.
  unsigned PerShape;
  uint64_t TinyIters;
  /// Host seconds one pass takes on the 4-vCPU x86-64 host the benchmark
  /// was tuned on, a middle value: the host's load moved it by a third
  /// either way. A run holds the fewest passes that last --seconds there.
  double PassSeconds;
};

/// replay-fp: loop codes whose bodies run 56 outer iterations past the
/// 197 K-instruction LCG prologue, so replay dominates step time.
/// record-int: large branchy codes run 3 outer iterations; recording
/// dominates (the replayed prologue is about a tenth of a job's time), and
/// the gcc shape fills the 256 MB budget and clears.
BatchConfig configFor(const std::string &Workload) {
  if (Workload == "replay-fp")
    return {{"mgrid", "tomcatv", "swim"}, 56, 6, 2, 15.0};
  return {{"gcc", "go", "perl", "vortex"}, 3, 6, 1, 30.0};
}

struct Program {
  std::string Shape;
  size_t ShapeIdx;
  workload::WorkloadSpec Spec;
  uint64_t OuterIters;
  isa::TargetImage Image;
  Reference Ref;
};

struct JobResult {
  size_t Prog;
  double Ms;    ///< CPU time
  double RefMs; ///< CPU time of FastSim on the same program, before and
                ///< after the job, averaged
  bool Ok;
  JobCounts Counts;
  EngineTimes Times;
};

} // namespace

void runBatch(const Args &A, Report &R, SpanLog &Spans) {
  BatchConfig Cfg = configFor(A.Workload);
  unsigned PerShape = A.Tiny ? 1 : Cfg.PerShape;
  unsigned SetupRepeats = A.Tiny ? 3 : 15;
  Rand Rng(A.Seed);

  // Load generation, outside set-up and the timed window. The seed picks
  // the shape order and each program's WorkloadSpec.Seed.
  size_t Rot = Rng.below(Cfg.Shapes.size());
  std::vector<Program> Progs;
  uint64_t GenNs = 0;
  for (unsigned K = 0; K != PerShape; ++K)
    for (size_t I = 0; I != Cfg.Shapes.size(); ++I) {
      size_t SI = (I + Rot) % Cfg.Shapes.size();
      Program P;
      P.Shape = Cfg.Shapes[SI];
      P.ShapeIdx = SI;
      P.Spec = *workload::findSpec(P.Shape);
      P.Spec.Seed = Rng.next();
      P.OuterIters = A.Tiny ? Cfg.TinyIters : Cfg.OuterIters;
      uint64_t T0 = nowNs();
      P.Image = workload::generate(P.Spec, P.OuterIters);
      GenNs += nowNs() - T0;
      Progs.push_back(std::move(P));
    }
  for (Program &P : Progs)
    P.Ref = fastSimReference(P.Image);
  if (A.CorruptRef)
    Progs[0].Ref.Digest ^= 1;
  R.layer("workload.generate_ms", nsToMs(GenNs));

  // Set-up: compile ooo.fac from source and build every job's ExecPlan,
  // repeated in-process; the median CPU time is reported.
  std::string Source = sims::simulatorSource(sims::SimKind::OutOfOrder);
  std::unique_ptr<CompiledProgram> Compiled;
  std::vector<double> SetupS, PlanMs;
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    Compiled.reset();
    int64_t Span = A.Trace ? Spans.open("setup", -1, Rep) : -1;
    uint64_t C0 = cpuNs();
    uint64_t T0 = nowNs();
    DiagnosticEngine Diag;
    std::optional<CompiledProgram> P = compileFacile(Source, Diag);
    if (!P) {
      R.fail("ooo.fac failed to compile: " + Diag.str());
      return;
    }
    Compiled = std::make_unique<CompiledProgram>(std::move(*P));
    uint64_t T1 = nowNs();
    std::vector<std::unique_ptr<rt::SharedProgram>> Plans;
    for (const Program &Prog : Progs)
      Plans.push_back(
          std::make_unique<rt::SharedProgram>(*Compiled, Prog.Image));
    uint64_t T2 = nowNs();
    SetupS.push_back(static_cast<double>(cpuNs() - C0) / 1e9);
    PlanMs.push_back(nsToMs(T2 - T1));
    if (A.Trace) {
      Spans.add("setup.compileFacile", T0, T1, Span, Rep);
      Spans.add("setup.plans", T1, T2, Span, Rep);
      Spans.close(Span);
    }
  }
  R.layer("runtime.plan_ms", median(PlanMs));
  if (A.Trace)
    timeCompilePhases(Source, SetupRepeats, R, Spans);

  // One job: session create -> run to halt -> digest -> destroy. The
  // SharedProgram (plan + JIT code cache) is built fresh before the clock
  // starts, so no job inherits another's compiled code.
  uint64_t JobId = 0;
  auto RunJob = [&](size_t PI, bool Traced) {
    const Program &P = Progs[PI];
    JobResult J{PI, 0.0, 0.0, false, {}, {}};
    // The yardstick runs just before and just after the job, so its mean
    // sees the host as the job saw it.
    double RefBeforeMs = fastSimMs(P.Image, cpuNs);
    rt::SharedProgram Shared(*Compiled, P.Image);
    uint64_t W0 = nowNs();
    uint64_t T0 = cpuNs();
    auto Sim = std::make_unique<sims::FacileSim>(sims::SimKind::OutOfOrder,
                                                 Shared);
    if (Traced)
      runTimedSteps(Sim->sim(), J.Times);
    else
      Sim->run(~0ull);
    Outcome O;
    O.Digest = Sim->sim().memory().digest();
    uint64_t T1 = cpuNs();
    O.Retired = Sim->sim().stats().RetiredTotal;
    O.Cycles = Sim->sim().stats().Cycles;
    O.Halted = Sim->sim().halted();
    O.Faulted = Sim->sim().faulted();
    J.Counts = JobCounts::of(Sim->sim(), Sim->statsJson());
    uint64_t T2 = cpuNs();
    Sim.reset();
    uint64_t T3 = cpuNs();
    uint64_t W3 = nowNs();
    // A job's time is CPU time (see cpuNs). The counter read-out (T1..T2)
    // is the benchmark's, not the job's.
    J.Ms = nsToMs((T1 - T0) + (T3 - T2));
    J.RefMs = (RefBeforeMs + fastSimMs(P.Image, cpuNs)) / 2;
    J.Ok = O.matches(P.Ref);
    if (!J.Ok)
      std::fprintf(stderr,
                   "perfbench: job %llu (%s) mismatch: retired %llu/%llu "
                   "cycles %llu/%llu digest %016llx/%016llx%s\n",
                   static_cast<unsigned long long>(JobId), P.Shape.c_str(),
                   static_cast<unsigned long long>(O.Retired),
                   static_cast<unsigned long long>(P.Ref.Retired),
                   static_cast<unsigned long long>(O.Cycles),
                   static_cast<unsigned long long>(P.Ref.Cycles),
                   static_cast<unsigned long long>(O.Digest),
                   static_cast<unsigned long long>(P.Ref.Digest),
                   O.Faulted ? " (faulted)" : "");
    if (A.Trace)
      Spans.add(Traced ? "job.traced" : "job", W0, W3, -1, JobId);
    ++JobId;
    R.op(J.Ok);
    return J;
  };

  // The timed window: a fixed number of whole passes, so the sample count
  // behind every quantile does not depend on the host's speed. A traced run
  // interleaves an untraced and a traced job on the same program, so the
  // two halves see the same programs and the same host drift; which goes
  // first alternates between a shape's programs and between passes. As it
  // runs every job twice, it holds the passes of half the window.
  const size_t N = Progs.size();
  const size_t Shapes = Cfg.Shapes.size();
  const double PassWindow = A.Trace ? A.Seconds / 2 : A.Seconds;
  const size_t Passes =
      A.Tiny ? 1
             : std::max<size_t>(1, static_cast<size_t>(std::ceil(
                                       PassWindow / Cfg.PassSeconds)));
  std::vector<JobResult> Plain, Traced;
  std::vector<JobCounts> FirstCounts(N);
  std::vector<bool> Seen(N, false);
  auto Check = [&](const JobResult &J) {
    if (!Seen[J.Prog]) {
      Seen[J.Prog] = true;
      FirstCounts[J.Prog] = J.Counts;
    } else if (!(FirstCounts[J.Prog] == J.Counts)) {
      R.fail("deterministic counts differ between two jobs on program " +
             std::to_string(J.Prog));
    }
  };
  for (size_t I = 0; I != Passes * N; ++I) {
    size_t PI = I % N;
    if (!A.Trace) {
      Plain.push_back(RunJob(PI, false));
      Check(Plain.back());
      continue;
    }
    bool TracedFirst = (PI / Shapes + I / N) % 2 == 1;
    for (int K = 0; K != 2; ++K) {
      bool T = (K == 0) == TracedFirst;
      JobResult J = RunJob(PI, T);
      Check(J);
      (T ? Traced : Plain).push_back(std::move(J));
    }
  }

  auto Samples = [&](const std::vector<JobResult> &Jobs) {
    ShapeSamples S(Cfg.Shapes.size());
    for (const JobResult &J : Jobs)
      S.add(Progs[J.Prog].ShapeIdx, J.Ms, Progs[J.Prog].Ref.Retired, J.RefMs);
    return S;
  };
  reportEndToEnd(R, Samples(Plain), median(SetupS));

  if (!A.Trace)
    return;
  R.layer("trace_overhead_pct", overheadPct(Samples(Plain), Samples(Traced)));

  // Deterministic counts over the first pass (one job per program).
  JobCounts Pass;
  EngineTimes PassSteps, AllSteps;
  for (size_t I = 0; I != Traced.size(); ++I) {
    AllSteps.merge(Traced[I].Times);
    if (I < N) {
      Pass.add(Traced[I].Counts);
      PassSteps.merge(Traced[I].Times);
    }
  }
  reportEngineLayers(R, Pass, PassSteps, AllSteps);
}

} // namespace perfbench
