//===- main.cpp - perfbench entry point -----------------------------------===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <replay-fp|record-int|serve-store> --seed <n>
///           --seconds <s> --trace <0|1> [--tiny] [--corrupt-ref]
///
/// Runs one workload and prints, as the last line of stdout, one JSON
/// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1. A traced
/// run also writes its spans and per-engine step aggregates to
/// .bench_build/perfbench/traces/<workload>-seed<n>.json. Diagnostics go
/// to stderr. See perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <malloc.h>

using namespace perfbench;

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<replay-fp|record-int|serve-store> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--corrupt-ref]\n",
               Msg);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (Flag == "--tiny") {
      A.Tiny = true;
      continue;
    }
    if (Flag == "--corrupt-ref") {
      A.CorruptRef = true;
      continue;
    }
    if (I + 1 == argc)
      return usage(("missing value for " + Flag).c_str());
    const char *V = argv[++I];
    if (Flag == "--workload") {
      A.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V, nullptr, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::atof(V);
    } else if (Flag == "--trace") {
      A.Trace = std::strcmp(V, "0") != 0;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload || !(A.Workload == "replay-fp" ||
                         A.Workload == "record-int" ||
                         A.Workload == "serve-store"))
    return usage("--workload must be replay-fp, record-int or serve-store");
  if (!(A.Seconds > 0))
    return usage("--seconds must be positive");

  // Keep freed memory in the process for the next job instead of handing
  // it back to the kernel: no allocation is served by its own mmap, and the
  // heap is never trimmed. On a VM that reports free pages to its host,
  // every page handed back costs a host fault when touched again, at a
  // price that follows the host's load; a job's time should measure the
  // simulator, not that.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);

  Report R;
  SpanLog Spans;
  if (A.Workload == "serve-store")
    runServe(A, R, Spans);
  else
    runBatch(A, R, Spans);

  if (A.Trace) {
    // Relative to the checkout root, which run.py makes the working
    // directory.
    const std::string Dir = ".bench_build/perfbench/traces";
    const std::string Out =
        Dir + "/" + A.Workload + "-seed" + std::to_string(A.Seed) + ".json";
    std::error_code EC;
    std::filesystem::create_directories(Dir, EC);
    if (!Spans.write(Out, R.TraceExtra))
      R.fail("cannot write " + Out);
    else
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                   Spans.size(), Out.c_str());
  }
  R.print(A.Trace);
  return 0;
}
