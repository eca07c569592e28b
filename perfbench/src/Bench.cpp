//===- Bench.cpp - Shared pieces of the perfbench program -----------------===//

#include "Bench.h"

#include "src/facile/Actions.h"
#include "src/facile/Bta.h"
#include "src/facile/Lower.h"
#include "src/facile/Parser.h"
#include "src/facile/Passes.h"
#include "src/facile/Sema.h"
#include "src/fastsim/FastSim.h"
#include "src/support/JsonValue.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

using namespace facile;

namespace perfbench {

//===-- Statistics --------------------------------------------------------===//

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// Samples strictly above the q-quantile.
static size_t beyond(const std::vector<double> &V, double Q) {
  double Cut = quantile(V, Q);
  return static_cast<size_t>(
      std::count_if(V.begin(), V.end(), [Cut](double X) { return X > Cut; }));
}

double peakRssMb() {
  // ru_maxrss is the process's VmHWM, in KB on Linux.
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0.0;
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

//===-- Correctness gate --------------------------------------------------===//

Reference fastSimReference(const isa::TargetImage &Image) {
  fastsim::FastSim Sim(Image);
  Sim.run(~0ull);
  Reference R;
  R.Retired = Sim.stats().Retired;
  R.Cycles = Sim.stats().Cycles;
  R.Digest = Sim.memory().digest();
  return R;
}

double fastSimMs(const isa::TargetImage &Image, uint64_t (*Clock)()) {
  uint64_t T0 = Clock();
  fastsim::FastSim Sim(Image);
  Sim.run(~0ull);
  return nsToMs(Clock() - T0);
}

//===-- Tracing -----------------------------------------------------------===//

int64_t SpanLog::add(const std::string &Name, uint64_t StartNs,
                     uint64_t EndNs, int64_t Parent, uint64_t Id) {
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back({Name, StartNs, EndNs, Parent, Id});
  return static_cast<int64_t>(Spans.size() - 1);
}

int64_t SpanLog::open(const std::string &Name, int64_t Parent, uint64_t Id) {
  uint64_t Now = nowNs();
  return add(Name, Now, Now, Parent, Id);
}

void SpanLog::close(int64_t Span) {
  uint64_t Now = nowNs();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[static_cast<size_t>(Span)].EndNs = Now;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans.size();
}

bool SpanLog::write(const std::string &Path,
                    const std::string &ExtraJson) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const Span &S : Spans)
    Base = std::min(Base, S.StartNs);
  // Chrome trace_event "complete" events: ts/dur in microseconds, the
  // job or session id as tid so one request's spans share a row.
  std::fprintf(F, "{\"traceEvents\":[");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"id\":%llu}}",
                 I ? "," : "", S.Name.c_str(),
                 static_cast<unsigned long long>(S.Id),
                 static_cast<double>(S.StartNs - Base) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3, I,
                 static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.Id));
  }
  std::fprintf(F, "\n]%s%s}\n", ExtraJson.empty() ? "" : ",",
               ExtraJson.c_str());
  return std::fclose(F) == 0;
}

void EngineTimes::merge(const EngineTimes &O) {
  for (unsigned K = 0; K != 4; ++K) {
    E[K].Count += O.E[K].Count;
    E[K].TotalNs += O.E[K].TotalNs;
    for (unsigned B = 0; B != 65; ++B)
      E[K].Hist[B] += O.E[K].Hist[B];
  }
}

uint64_t EngineTimes::totalNs() const {
  uint64_t T = 0;
  for (const Agg &A : E)
    T += A.TotalNs;
  return T;
}

std::string EngineTimes::json() const {
  static const char *Names[4] = {"record", "replay", "recover", "faulted"};
  std::string Out = "{";
  for (unsigned K = 0; K != 4; ++K) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\":{\"count\":%llu,\"total_ns\":%llu,\"log2_ns\":[",
                  K ? "," : "", Names[K],
                  static_cast<unsigned long long>(E[K].Count),
                  static_cast<unsigned long long>(E[K].TotalNs));
    Out += Buf;
    for (unsigned B = 0; B != 65; ++B)
      Out += (B ? "," : "") + std::to_string(E[K].Hist[B]);
    Out += "]}";
  }
  return Out + "}";
}

void runTimedSteps(rt::Simulation &Sim, EngineTimes &Out) {
  uint64_t T = nowNs();
  while (!Sim.halted() && !Sim.faulted()) {
    rt::StepEngine Engine = Sim.step();
    uint64_t Now = nowNs();
    Out.add(Engine, Now - T);
    T = Now;
  }
}

//===-- Deterministic per-job counters ------------------------------------===//

JobCounts JobCounts::of(const rt::Simulation &Sim,
                        const std::string &StatsJson) {
  JobCounts C;
  const rt::Simulation::Stats &S = Sim.stats();
  C.Steps = S.Steps;
  C.FastSteps = S.FastSteps;
  C.Misses = S.Misses;
  C.RetiredTotal = S.RetiredTotal;
  C.RetiredFast = S.RetiredFast;
  C.PlaceholderWords = S.PlaceholderWords;
  C.BypassedSteps = S.BypassedSteps;
  const rt::ActionCache &Cache = Sim.cache();
  C.KeysInterned = Cache.stats().KeysInterned;
  C.KeyCount = Cache.keyCount();
  C.KeyPoolBytes = Cache.keyPoolBytes();
  C.Clears = Cache.stats().Clears;
  C.PeakBytes = Cache.stats().PeakBytes;
  C.OverlayBytes = Cache.overlayBytes();
  json::Value V;
  std::string Err;
  if (json::parse(StatsJson, V, Err)) {
    if (const json::Value *J = V.get("jit")) {
      auto Num = [J](const char *K) -> uint64_t {
        const json::Value *X = J->get(K);
        return X ? static_cast<uint64_t>(X->intOr(0)) : 0;
      };
      C.JitCompiled = Num("compiled_actions");
      C.JitSteps = Num("jit_exec_steps");
      C.JitBailouts = Num("bailouts");
      C.JitCodeBytes = Num("code_bytes") + Num("trace_code_bytes");
    }
  }
  return C;
}

void JobCounts::add(const JobCounts &O) {
  Steps += O.Steps;
  FastSteps += O.FastSteps;
  Misses += O.Misses;
  RetiredTotal += O.RetiredTotal;
  RetiredFast += O.RetiredFast;
  PlaceholderWords += O.PlaceholderWords;
  BypassedSteps += O.BypassedSteps;
  KeysInterned += O.KeysInterned;
  KeyCount += O.KeyCount;
  KeyPoolBytes += O.KeyPoolBytes;
  Clears += O.Clears;
  PeakBytes = std::max(PeakBytes, O.PeakBytes);
  OverlayBytes += O.OverlayBytes;
  JitCompiled += O.JitCompiled;
  JitSteps += O.JitSteps;
  JitBailouts += O.JitBailouts;
  JitCodeBytes += O.JitCodeBytes;
}

//===-- Result line -------------------------------------------------------===//

const MetricList &endToEndMetrics() {
  static const MetricList L = {
      {"slowdown.p50", "x"}, {"slowdown.p90", "x"}, {"setup_s", "s"},
      {"peak_rss_mb", "MB"}, {"ok_pct", "%"},
  };
  return L;
}

const MetricList &perLayerMetrics() {
  static const MetricList L = {
      {"facile.parse_ms", "ms"},
      {"facile.sema_ms", "ms"},
      {"facile.lower_ms", "ms"},
      {"facile.passes_ms", "ms"},
      {"facile.bta_ms", "ms"},
      {"facile.actions_ms", "ms"},
      {"runtime.plan_ms", "ms"},
      {"workload.generate_ms", "ms"},
      {"runtime.record_steps", "count"},
      {"runtime.record_ns_per_step", "ns"},
      {"runtime.record_share_pct", "%"},
      {"runtime.recover_steps", "count"},
      {"runtime.recover_ns_per_step", "ns"},
      {"runtime.replay_steps", "count"},
      {"runtime.replay_ns_per_step", "ns"},
      {"runtime.replay_share_pct", "%"},
      {"runtime.fast_instr_pct", "%"},
      {"runtime.keys", "count"},
      {"runtime.key_bytes_per_key", "B"},
      {"runtime.cache_peak_mb", "MB"},
      {"runtime.clears", "count"},
      {"runtime.bypassed_steps", "count"},
      {"runtime.placeholder_words_per_step", "words/step"},
      {"jit.compiled_actions", "count"},
      {"jit.exec_step_pct", "%"},
      {"jit.bailouts", "count"},
      {"jit.code_kb", "KB"},
      {"store.promote_ms", "ms"},
      {"store.attach_cold_ms", "ms"},
      {"store.attach_ms", "ms"},
      {"store.mapped_mb", "MB"},
      {"store.overlay_kb_per_session", "KB"},
      {"snapshot.save_ms", "ms"},
      {"snapshot.load_ms", "ms"},
      {"snapshot.kb", "KB"},
      {"server.create_ms", "ms"},
      {"server.run_ms", "ms"},
      {"server.inspect_ms", "ms"},
      {"server.destroy_ms", "ms"},
      {"server.service_ms.p50", "ms"},
      {"server.wait_ms", "ms"},
      {"server.rejected", "count"},
      {"kips", "Kinstr/s"},
      {"session_ms.p50", "ms"},
      {"session_ms.p90", "ms"},
      {"session_ms.samples", "count"},
      {"fastsim.kips", "Kinstr/s"},
      {"trace_overhead_pct", "%"},
  };
  return L;
}

void Report::fail(const std::string &Why) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", Why.c_str());
  CheckFailed = true;
}

void Report::print(bool Trace) const {
  const MetricList &L = Trace ? perLayerMetrics() : endToEndMetrics();
  const std::map<std::string, double> &M = Trace ? Layer : E2E;
  bool Finite = true;
  std::string Out;
  for (const auto &[Name, Unit] : L) {
    auto It = M.find(Name);
    double V = It == M.end() ? 0.0 : It->second;
    if (!std::isfinite(V)) {
      Finite = false;
      V = 0.0;
    }
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  Out.empty() ? "" : ", ", Name, V, Unit);
    Out += Buf;
  }
  bool Correct = Finite && !CheckFailed && Failed == 0 && Attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Out.c_str());
  std::fflush(stdout);
}

double ShapeSamples::across(const std::vector<std::vector<double>> &V,
                            double Q) {
  std::vector<double> PerShape;
  for (const std::vector<double> &Shape : V)
    if (!Shape.empty())
      PerShape.push_back(quantile(Shape, Q));
  return geomean(PerShape);
}

double overheadPct(const ShapeSamples &Plain, const ShapeSamples &Traced) {
  double KipsTraced = Traced.kips();
  return KipsTraced > 0 ? (Plain.kips() / KipsTraced - 1.0) * 100.0 : 0.0;
}

void reportEndToEnd(Report &R, const ShapeSamples &Sessions, double SetupS) {
  double RefKips = ShapeSamples::across(Sessions.RefKips, 0.5);
  // A slowdown is a ratio to the same program's FastSim time, so every
  // shape's jobs are on one scale and pool into one sample.
  std::vector<double> Slowdown;
  for (const std::vector<double> &Shape : Sessions.Slowdown)
    Slowdown.insert(Slowdown.end(), Shape.begin(), Shape.end());
  R.endToEnd("slowdown.p50", quantile(Slowdown, 0.5));
  R.endToEnd("slowdown.p90", quantile(Slowdown, 0.9));
  R.endToEnd("setup_s", SetupS);
  R.endToEnd("peak_rss_mb", peakRssMb());
  R.endToEnd("ok_pct", R.attempted() == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(R.attempted() -
                                                         R.failed()) /
                                 static_cast<double>(R.attempted()));
  R.layer("kips", Sessions.kips());
  R.layer("session_ms.p50", ShapeSamples::across(Sessions.Ms, 0.5));
  R.layer("session_ms.p90", ShapeSamples::across(Sessions.Ms, 0.9));
  R.layer("fastsim.kips", RefKips);
  size_t Total = 0;
  std::string PerShape;
  for (const std::vector<double> &Shape : Sessions.Ms) {
    Total += Shape.size();
    PerShape += " " + std::to_string(Shape.size()) + "/" +
                std::to_string(beyond(Shape, 0.9));
  }
  R.layer("session_ms.samples", static_cast<double>(Total));
  std::fprintf(stderr,
               "perfbench: %zu sessions; per shape, samples/beyond p90:%s\n",
               Total, PerShape.c_str());
  std::fprintf(stderr,
               "perfbench: host time: %.1f Kinstr/s, FastSim %.1f Kinstr/s; "
               "session ms p50 %.1f p90 %.1f\n",
               Sessions.kips(), RefKips, ShapeSamples::across(Sessions.Ms, 0.5),
               ShapeSamples::across(Sessions.Ms, 0.9));
}

void reportEngineLayers(Report &R, const JobCounts &Pass,
                        const EngineTimes &PassSteps,
                        const EngineTimes &AllSteps) {
  auto D = [](uint64_t V) { return static_cast<double>(V); };
  auto Ratio = [&](uint64_t Num, uint64_t Den) {
    return Den == 0 ? 0.0 : D(Num) / D(Den);
  };
  const unsigned Rec = static_cast<unsigned>(rt::StepEngine::Slow);
  const unsigned Rep = static_cast<unsigned>(rt::StepEngine::Fast);
  const unsigned Rcv = static_cast<unsigned>(rt::StepEngine::FastThenSlow);
  uint64_t Total = AllSteps.totalNs();
  R.layer("runtime.record_steps", D(PassSteps.E[Rec].Count));
  R.layer("runtime.record_ns_per_step",
          Ratio(AllSteps.E[Rec].TotalNs, AllSteps.E[Rec].Count));
  R.layer("runtime.record_share_pct",
          100.0 * Ratio(AllSteps.E[Rec].TotalNs, Total));
  R.layer("runtime.recover_steps", D(PassSteps.E[Rcv].Count));
  R.layer("runtime.recover_ns_per_step",
          Ratio(AllSteps.E[Rcv].TotalNs, AllSteps.E[Rcv].Count));
  R.layer("runtime.replay_steps", D(PassSteps.E[Rep].Count));
  R.layer("runtime.replay_ns_per_step",
          Ratio(AllSteps.E[Rep].TotalNs, AllSteps.E[Rep].Count));
  R.layer("runtime.replay_share_pct",
          100.0 * Ratio(AllSteps.E[Rep].TotalNs, Total));
  R.layer("runtime.fast_instr_pct",
          100.0 * Ratio(Pass.RetiredFast, Pass.RetiredTotal));
  R.layer("runtime.keys", D(Pass.KeysInterned));
  R.layer("runtime.key_bytes_per_key", Ratio(Pass.KeyPoolBytes, Pass.KeyCount));
  R.layer("runtime.cache_peak_mb", D(Pass.PeakBytes) / (1u << 20));
  R.layer("runtime.clears", D(Pass.Clears));
  R.layer("runtime.bypassed_steps", D(Pass.BypassedSteps));
  // Words memoized per recorded step: what each replay of the entry
  // later moves through placeholders.
  R.layer("runtime.placeholder_words_per_step",
          Ratio(Pass.PlaceholderWords, Pass.Steps - Pass.FastSteps));
  R.layer("jit.compiled_actions", D(Pass.JitCompiled));
  R.layer("jit.exec_step_pct", 100.0 * Ratio(Pass.JitSteps, Pass.Steps));
  R.layer("jit.bailouts", D(Pass.JitBailouts));
  R.layer("jit.code_kb", D(Pass.JitCodeBytes) / 1024.0);
  R.TraceExtra = "\"steps\":" + AllSteps.json();
}

//===-- Compile phases ----------------------------------------------------===//

void timeCompilePhases(const std::string &Source, unsigned Repeats,
                       Report &R, SpanLog &Spans) {
  static const char *Phase[6] = {"parse", "sema",  "lower",
                                 "passes", "bta", "actions"};
  std::vector<double> Ms[6];
  for (unsigned Rep = 0; Rep != Repeats; ++Rep) {
    DiagnosticEngine Diag;
    int64_t Parent = Spans.open("compile.phases", -1, Rep);
    uint64_t T[7];
    // The same sequence compileFacile runs, one public entry point per
    // phase, verifier included where compileFacile runs it.
    T[0] = nowNs();
    std::optional<ast::Program> P = parseFacile(Source, Diag);
    T[1] = nowNs();
    std::optional<SemaResult> S = P ? analyzeFacile(*P, Diag) : std::nullopt;
    T[2] = nowNs();
    std::optional<LoweredProgram> LP =
        S ? lowerFacile(*P, *S, Diag) : std::nullopt;
    T[3] = nowNs();
    if (!LP) {
      R.fail("compile phases: front end failed: " + Diag.str());
      return;
    }
    PassPipelineStats PS;
    std::string PassErr;
    if (!runPassPipeline(*LP, PS, &PassErr)) {
      R.fail("compile phases: pass pipeline failed: " + PassErr);
      return;
    }
    T[4] = nowNs();
    std::vector<bool> DynArrays, DynLocalArrays;
    annotateStepFunction(*LP, &DynArrays, &DynLocalArrays);
    std::string VerifyErr = verifyStepFunction(LP->Step, LP->Globals,
                                               LP->Externs, /*PostBta=*/true);
    T[5] = nowNs();
    ActionTable Actions = extractActions(LP->Step);
    T[6] = nowNs();
    (void)Actions;
    if (!VerifyErr.empty())
      R.fail("compile phases: post-BTA verifier: " + VerifyErr);
    for (unsigned K = 0; K != 6; ++K) {
      Ms[K].push_back(nsToMs(T[K + 1] - T[K]));
      Spans.add(std::string("compile.") + Phase[K], T[K], T[K + 1], Parent,
                Rep);
    }
    Spans.close(Parent);
  }
  for (unsigned K = 0; K != 6; ++K)
    R.layer(std::string("facile.") + Phase[K] + "_ms", median(Ms[K]));
}

} // namespace perfbench
