//===- SimHarness.cpp - Host harness for the Facile simulators -------------===//

#include "src/sims/SimHarness.h"

#include "src/isa/Isa.h"
#include "src/snapshot/Snapshot.h"
#include "src/telemetry/Metrics.h"
#include "src/telemetry/Profiler.h"
#include "src/telemetry/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>

using namespace facile;
using namespace facile::sims;

#ifndef FACILE_SIMS_DIR
#error "FACILE_SIMS_DIR must be defined by the build"
#endif

namespace {

std::string readFileOrDie(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    std::fprintf(stderr, "cannot open simulator source '%s'\n", Path.c_str());
    std::abort();
  }
  std::string Out;
  char Buffer[4096];
  size_t N;
  while ((N = std::fread(Buffer, 1, sizeof(Buffer), File)) != 0)
    Out.append(Buffer, N);
  std::fclose(File);
  return Out;
}

const char *sourceFileFor(SimKind Kind) {
  switch (Kind) {
  case SimKind::Functional:
    return "functional.fac";
  case SimKind::InOrder:
    return "inorder.fac";
  case SimKind::OutOfOrder:
    return "ooo.fac";
  }
  return "functional.fac";
}

} // namespace

std::string sims::simulatorSource(SimKind Kind) {
  std::string Dir = FACILE_SIMS_DIR;
  return readFileOrDie(Dir + "/isa.fac") + "\n" +
         readFileOrDie(Dir + "/" + sourceFileFor(Kind));
}

const CompiledProgram &sims::simulatorProgram(SimKind Kind, PassMode Mode) {
  // Process-wide lazily-filled cache: the mutex makes concurrent sessions
  // (e.g. facilesimd workers creating sims on first contact) safe. std::map
  // node stability keeps returned references valid across later inserts.
  static std::mutex Mu;
  static std::map<std::pair<SimKind, PassMode>,
                  std::unique_ptr<CompiledProgram>>
      Cache;
  std::lock_guard<std::mutex> Lock(Mu);
  std::unique_ptr<CompiledProgram> &Slot = Cache[{Kind, Mode}];
  if (!Slot) {
    DiagnosticEngine Diag;
    CompileOptions Opts;
    Opts.RunPasses = Mode == PassMode::Optimized;
    auto P = compileFacile(simulatorSource(Kind), Diag, Opts);
    if (!P) {
      std::fprintf(stderr, "failed to compile %s:\n%s",
                   sourceFileFor(Kind), Diag.str().c_str());
      std::abort();
    }
    Slot = std::make_unique<CompiledProgram>(std::move(*P));
  }
  return *Slot;
}

FacileSim::FacileSim(SimKind Kind, const isa::TargetImage &Image,
                     rt::Simulation::Options Opts, PassMode Mode)
    : Prog(simulatorProgram(Kind, Mode)), Sim(Prog, Image, Opts) {
  Sim.setGlobal("PC", Image.Entry);
  Sim.setGlobalElem("R", isa::StackReg, isa::DefaultStackTop);
  wireExterns(Kind);
}

FacileSim::FacileSim(SimKind Kind, const rt::SharedProgram &Shared,
                     rt::Simulation::Options Opts)
    : Prog(Shared.program()), Sim(Shared, Opts) {
  Sim.setGlobal("PC", Shared.image().Entry);
  Sim.setGlobalElem("R", isa::StackReg, isa::DefaultStackTop);
  wireExterns(Kind);
}

void FacileSim::wireExterns(SimKind Kind) {
  if (Kind == SimKind::Functional)
    return;
  // The timing simulators call the branch predictor and cache hierarchy as
  // external, unmemoized functions — the paper's §3.2 structure.
  Sim.registerExtern("bp_predict", [this](const int64_t *Args, size_t) {
    return static_cast<int64_t>(
        BU.predictDirection(static_cast<uint32_t>(Args[0])) ? 1 : 0);
  });
  Sim.registerExtern("bp_train", [this](const int64_t *Args, size_t) {
    BU.resolveDirection(static_cast<uint32_t>(Args[0]), Args[1] != 0);
    return static_cast<int64_t>(0);
  });
  Sim.registerExtern("dcache_access", [this](const int64_t *Args, size_t) {
    unsigned Latency = MH.accessData(static_cast<uint32_t>(Args[0]),
                                     /*IsWrite=*/Args[1] != 0);
    return static_cast<int64_t>(Latency <= 1 ? 1 : 0);
  });
  Sim.registerExtern("icache_access", [this](const int64_t *Args, size_t) {
    unsigned Latency = MH.accessInst(static_cast<uint32_t>(Args[0]));
    return static_cast<int64_t>(Latency <= 1 ? 1 : 0);
  });
}

//===----------------------------------------------------------------------===//
// Snapshot & warm start
//===----------------------------------------------------------------------===//

std::vector<uint8_t> FacileSim::checkpointBytes() const {
  snapshot::Writer SimW, MemW, BuW, MhW;
  Sim.serializeState(SimW);
  Sim.memory().serialize(MemW);
  BU.serialize(BuW);
  MH.serialize(MhW);
  auto section = [](uint32_t Tag, const snapshot::Writer &W) {
    return snapshot::Section{Tag, W.buffer().data(), W.size()};
  };
  return snapshot::buildContainer(
      snapshot::PayloadKind::Checkpoint, Sim.compatKey(),
      {section(snapshot::SecSimState, SimW), section(snapshot::SecMemory, MemW),
       section(snapshot::SecBranchUnit, BuW),
       section(snapshot::SecMemHier, MhW)});
}

std::vector<uint8_t> FacileSim::cacheBytes() const {
  return store::encodeImage(Sim.cache().compactImage(), Sim.compatKey());
}

bool FacileSim::noteLoadFailure(const char *What, const std::string &Detail,
                                std::string *Err) {
  ++SnapStats.ColdFallbacks;
  std::string Msg = std::string(What) + ": " + Detail +
                    "; falling back to cold start";
  if (Err)
    *Err = Msg;
  else
    std::fprintf(stderr, "facile-snapshot: %s\n", Msg.c_str());
  return false;
}

bool FacileSim::loadCheckpointBytes(const std::vector<uint8_t> &Bytes,
                                    std::string *Err) {
  SnapStats.BytesRead += Bytes.size();
  static constexpr uint32_t Tags[] = {
      snapshot::SecSimState, snapshot::SecMemory, snapshot::SecBranchUnit,
      snapshot::SecMemHier};
  snapshot::SectionView Sections[4];
  std::string Detail;
  snapshot::LoadStatus St = snapshot::parseContainer(
      Bytes.data(), Bytes.size(), snapshot::PayloadKind::Checkpoint,
      Sim.compatKey(), Tags, 4, Sections, Detail);
  if (St != snapshot::LoadStatus::Ok) {
    if (St == snapshot::LoadStatus::CompatMismatch)
      ++SnapStats.CompatMismatches;
    else
      ++SnapStats.CorruptInputs;
    return noteLoadFailure("checkpoint rejected", Detail, Err);
  }

  // Decode every section into scratch state first, then commit — a payload
  // that fails halfway must leave the simulation exactly as it was. The
  // simulation state goes last: deserializeState is itself all-or-nothing,
  // so after it commits every remaining piece is a plain move/assign.
  auto reader = [&](int I) {
    return snapshot::Reader(Sections[I].Data, Sections[I].Len);
  };
  auto decode = [&](int I, auto &Into) {
    snapshot::Reader R = reader(I);
    return Into.deserialize(R) && R.atEnd();
  };
  TargetMemory NewMem;
  BranchUnit NewBU(BU);
  MemoryHierarchy NewMH(MH);
  const char *Bad = !decode(1, NewMem)  ? "bad memory section"
                    : !decode(2, NewBU) ? "bad branch-unit section"
                    : !decode(3, NewMH) ? "bad memory-hierarchy section"
                                        : nullptr;
  if (!Bad) {
    snapshot::Reader R = reader(0);
    if (!Sim.deserializeState(R) || !R.atEnd())
      Bad = "bad simulation section";
  }
  if (Bad) {
    ++SnapStats.CorruptInputs;
    return noteLoadFailure("checkpoint rejected", Bad, Err);
  }
  Sim.memory() = std::move(NewMem);
  BU = std::move(NewBU);
  MH = std::move(NewMH);
  SnapStats.CheckpointLoaded = true;
  if (telemetry::EventTracer *T = Sim.tracer()) {
    Sim.flushTraceSpan();
    T->instant("snapshot", "checkpoint-load", "bytes", Bytes.size());
  }
  return true;
}

bool FacileSim::loadCacheBytes(const std::vector<uint8_t> &Bytes,
                               std::string *Err) {
  SnapStats.BytesRead += Bytes.size();
  rt::ActionCache::BaseArenas View;
  std::string Detail;
  snapshot::LoadStatus St =
      store::parseImage(Bytes.data(), Bytes.size(), Sim.compatKey(),
                        Sim.actionCount(), View, Detail);
  if (St != snapshot::LoadStatus::Ok) {
    if (St == snapshot::LoadStatus::CompatMismatch)
      ++SnapStats.CompatMismatches;
    else
      ++SnapStats.CorruptInputs;
    return noteLoadFailure("action cache rejected", Detail, Err);
  }
  Sim.adoptCacheImage(store::ownedImage(View));
  SnapStats.CacheLoaded = true;
  SnapStats.CacheEntriesLoaded = Sim.cache().entryCount();
  SnapStats.CacheNodesLoaded = Sim.cache().nodeCount();
  if (telemetry::EventTracer *T = Sim.tracer()) {
    Sim.flushTraceSpan();
    T->instant("snapshot", "cache-load", "bytes", Bytes.size());
  }
  return true;
}

bool FacileSim::saveFile(const std::string &Path, std::vector<uint8_t> Bytes,
                         std::string *Err) {
  std::string Detail;
  if (!snapshot::writeFileBytes(Path, Bytes, Detail)) {
    if (Err)
      *Err = Detail;
    else
      std::fprintf(stderr, "facile-snapshot: %s\n", Detail.c_str());
    return false;
  }
  SnapStats.BytesWritten += Bytes.size();
  if (telemetry::EventTracer *T = Sim.tracer()) {
    Sim.flushTraceSpan();
    T->instant("snapshot", "save", "bytes", Bytes.size());
  }
  return true;
}

bool FacileSim::saveCheckpoint(const std::string &Path, std::string *Err) {
  return saveFile(Path, checkpointBytes(), Err);
}

bool FacileSim::saveCache(const std::string &Path, std::string *Err) {
  return saveFile(Path, cacheBytes(), Err);
}

bool FacileSim::loadCheckpoint(const std::string &Path, std::string *Err) {
  std::vector<uint8_t> Bytes;
  std::string Detail;
  if (!snapshot::readFileBytes(Path, Bytes, Detail))
    return noteLoadFailure("checkpoint rejected", Detail, Err);
  return loadCheckpointBytes(Bytes, Err);
}

bool FacileSim::loadCache(const std::string &Path, std::string *Err) {
  std::vector<uint8_t> Bytes;
  std::string Detail;
  if (!snapshot::readFileBytes(Path, Bytes, Detail))
    return noteLoadFailure("action cache rejected", Detail, Err);
  return loadCacheBytes(Bytes, Err);
}

//===----------------------------------------------------------------------===//
// Shared cache store
//===----------------------------------------------------------------------===//

bool FacileSim::attachStore(store::CacheStoreDir &Store, std::string *Err) {
  std::string Detail;
  std::shared_ptr<const store::StoreMap> M =
      Store.lookup(Sim.compatKey(), Sim.actionCount(), &Detail);
  if (!M) {
    if (!Detail.empty()) {
      ++SnapStats.CorruptInputs;
      return noteLoadFailure("cache store rejected", Detail, Err);
    }
    // Clean miss: nothing persisted for this configuration — stay cold.
    if (Err)
      Err->clear();
    return false;
  }
  if (!Sim.attachCacheBase(M->arenas(), M, &Detail))
    return noteLoadFailure("cache store rejected", Detail, Err);
  Mapping = std::move(M);
  // A mapped base is a warm start: report it through the same snapshot
  // stats the byte-level loads use (--require-warm and monitoring key off
  // these).
  SnapStats.CacheLoaded = true;
  SnapStats.CacheEntriesLoaded = Sim.cache().entryCount();
  SnapStats.CacheNodesLoaded = Sim.cache().nodeCount();
  if (telemetry::EventTracer *T = Sim.tracer()) {
    Sim.flushTraceSpan();
    T->instant("snapshot", "store-attach", "bytes", Mapping->mappedBytes());
  }
  return true;
}

bool FacileSim::promoteStore(store::CacheStoreDir &Store,
                             uint64_t *OutGeneration, std::string *Err) {
  return Store.promote(Sim.cache().compactImage(), Sim.compatKey(),
                       OutGeneration, Err);
}

//===----------------------------------------------------------------------===//
// Telemetry: the statsJson() schema as a metrics-registry walk
//===----------------------------------------------------------------------===//

void FacileSim::SnapshotStats::exportMetrics(
    telemetry::MetricSink &Sink) const {
  Sink.flag("checkpoint_loaded", CheckpointLoaded);
  Sink.flag("cache_loaded", CacheLoaded);
  Sink.counter("cache_entries_loaded", CacheEntriesLoaded);
  Sink.counter("cache_nodes_loaded", CacheNodesLoaded);
  Sink.counter("compat_mismatches", CompatMismatches);
  Sink.counter("corrupt_inputs", CorruptInputs);
  Sink.counter("cold_fallbacks", ColdFallbacks);
  Sink.counter("bytes_read", BytesRead);
  Sink.counter("bytes_written", BytesWritten);
}

void FacileSim::registerMetrics(telemetry::MetricsRegistry &R) const {
  // Groups register in the historical statsJson() key order; additions
  // since schema v1 (schema_version itself, branch, mem, profile,
  // telemetry) only ever append or prepend — existing consumers key by
  // name and must keep parsing.
  R.add("", [](telemetry::MetricSink &Sink) {
    Sink.counter("schema_version", 2);
  });
  Sim.registerMetrics(R); // steps..., fault, guard, bypass, cache
  R.add("snapshot", [this](telemetry::MetricSink &Sink) {
    SnapStats.exportMetrics(Sink);
  });
  R.add("store", [this](telemetry::MetricSink &Sink) {
    Sink.flag("attached", Mapping != nullptr);
    Sink.counter("generation", Mapping ? Mapping->generation() : 0);
    Sink.counter("mapped_bytes", Mapping ? Mapping->mappedBytes() : 0);
    Sink.counter("overlay_bytes", Sim.cache().overlayBytes());
  });
  R.add("passes", [this](telemetry::MetricSink &Sink) {
    const PassPipelineStats &P = Prog.Passes;
    Sink.counter("rounds", P.Rounds);
    Sink.counter("insts_before", P.InstsBefore);
    Sink.counter("insts_after", P.InstsAfter);
    Sink.counter("blocks_before", P.BlocksBefore);
    Sink.counter("blocks_after", P.BlocksAfter);
    Sink.counter("folded", P.Folded);
    Sink.counter("branches_folded", P.BranchesFolded);
    Sink.counter("copies_propagated", P.CopiesPropagated);
    Sink.counter("dead_removed", P.DeadRemoved);
    Sink.counter("jumps_threaded", P.JumpsThreaded);
    Sink.counter("blocks_merged", P.BlocksMerged);
    Sink.counter("blocks_removed", P.BlocksRemoved);
    // Wall-clock, unlike every counter above.
    Sink.counter("pass_us", P.PassUs);
    Sink.counter("verify_us", P.VerifyUs);
  });
  BU.registerMetrics(R, "branch");
  MH.registerMetrics(R, "mem");
  if (const telemetry::ActionProfiler *P = Sim.profiler())
    P->registerMetrics(R, "profile", TopActions);
  if (telemetry::EventTracer *T = Sim.tracer()) {
    R.add("telemetry", [T](telemetry::MetricSink &Sink) {
      Sink.flag("tracing", T->enabled());
      Sink.counter("trace_events", T->size());
      Sink.counter("trace_dropped", T->dropped());
    });
  }
}

std::string FacileSim::statsJson() const {
  telemetry::MetricsRegistry R;
  registerMetrics(R);
  telemetry::JsonMetricSink Sink;
  R.exportTo(Sink);
  return Sink.finish();
}

uint64_t FacileSim::run(uint64_t MaxInstrs) {
  // Steps and instructions differ (the OOO simulator retires several
  // instructions per cycle-step); poll the retire counter in batches.
  while (!Sim.halted() && !Sim.faulted() &&
         Sim.stats().RetiredTotal < MaxInstrs)
    Sim.run(256);
  return Sim.stats().RetiredTotal;
}
