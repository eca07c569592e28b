//===- test_snapshot.cpp - Snapshot & warm-start subsystem tests -------------===//
//
// Covers the snapshot stack bottom-up: the bounds-checked serializer, the
// checksummed container, action-cache persistence, checkpoint/resume
// bit-identity for every simulator, and the robustness contract —
// truncated, bit-flipped or stale snapshot files must degrade to a clean
// cold start, never crash or corrupt state (this
// binary runs under ASan+UBSan in CI, so "no UB" is machine-checked).
// Also validates that every simulator's statsJson() is well-formed JSON.
//
//===----------------------------------------------------------------------===//

#include "src/sims/SimHarness.h"
#include "src/snapshot/Snapshot.h"
#include "src/workload/Workloads.h"
#include "tests/TestJson.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace facile;
using namespace facile::sims;

namespace {

//===----------------------------------------------------------------------===//
// Serializer
//===----------------------------------------------------------------------===//

TEST(Serializer, ScalarAndVectorRoundTrip) {
  snapshot::Writer W;
  W.u8(0xab);
  W.u32(0xdeadbeefu);
  W.u64(0x0123456789abcdefull);
  W.i64(-42);
  W.i64Vec({1, -2, 3});
  W.u32Vec({});
  W.u8Vec({9, 8, 7});
  W.charVec({'h', 'i'});

  snapshot::Reader R(W.buffer());
  EXPECT_EQ(R.u8(), 0xab);
  EXPECT_EQ(R.u32(), 0xdeadbeefu);
  EXPECT_EQ(R.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(R.i64(), -42);
  std::vector<int64_t> I;
  std::vector<uint32_t> U;
  std::vector<uint8_t> B;
  std::vector<char> C;
  EXPECT_TRUE(R.i64Vec(I));
  EXPECT_TRUE(R.u32Vec(U));
  EXPECT_TRUE(R.u8Vec(B));
  EXPECT_TRUE(R.charVec(C));
  EXPECT_EQ(I, (std::vector<int64_t>{1, -2, 3}));
  EXPECT_TRUE(U.empty());
  EXPECT_EQ(B, (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_EQ(C, (std::vector<char>{'h', 'i'}));
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

TEST(Serializer, ShortReadsStickAndZero) {
  snapshot::Writer W;
  W.u32(7);
  snapshot::Reader R(W.buffer());
  EXPECT_EQ(R.u32(), 7u);
  EXPECT_EQ(R.u64(), 0u); // past the end: zero value, reader fails
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.u32(), 0u); // failure sticks even for in-range sizes
  std::vector<int64_t> V{1, 2};
  EXPECT_FALSE(R.i64Vec(V));
  EXPECT_FALSE(R.ok());
}

TEST(Serializer, CorruptCountCannotAllocate) {
  // A length prefix claiming ~2^61 elements with 8 bytes of payload must
  // fail before any resize happens.
  snapshot::Writer W;
  W.u64(0x2000000000000000ull);
  W.u64(0);
  snapshot::Reader R(W.buffer());
  std::vector<int64_t> V;
  EXPECT_FALSE(R.i64Vec(V));
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(V.empty());
}

TEST(Serializer, Crc32KnownVector) {
  // The canonical CRC-32 check value (IEEE 802.3, reflected).
  EXPECT_EQ(snapshot::crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(snapshot::crc32("", 0), 0u);
}

//===----------------------------------------------------------------------===//
// Container
//===----------------------------------------------------------------------===//

const uint8_t kPayload[] = {1, 2, 3, 4, 5};
const uint32_t kTags[] = {snapshot::SecSimState, snapshot::SecMemory};

std::vector<uint8_t> testContainer(uint64_t Compat = 0x1234) {
  return snapshot::buildContainer(
      snapshot::PayloadKind::Checkpoint, Compat,
      {{snapshot::SecSimState, kPayload, sizeof(kPayload)},
       {snapshot::SecMemory, nullptr, 0}});
}

snapshot::LoadStatus parseTest(const std::vector<uint8_t> &Img, size_t Len,
                               snapshot::PayloadKind Kind, uint64_t Compat,
                               std::vector<snapshot::SectionView> &Out,
                               std::string &Err) {
  snapshot::SectionView V[2];
  snapshot::LoadStatus St =
      snapshot::parseContainer(Img.data(), Len, Kind, Compat, kTags, 2, V, Err);
  if (St == snapshot::LoadStatus::Ok)
    Out.assign(V, V + 2);
  return St;
}

TEST(Container, RoundTrip) {
  std::vector<uint8_t> Img = testContainer();
  std::vector<snapshot::SectionView> Out;
  std::string Err;
  ASSERT_EQ(parseTest(Img, Img.size(), snapshot::PayloadKind::Checkpoint,
                      0x1234, Out, Err),
            snapshot::LoadStatus::Ok)
      << Err;
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(std::vector<uint8_t>(Out[0].Data, Out[0].Data + Out[0].Len),
            (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(Out[0].Len, 5u);
  EXPECT_EQ(Out[1].Len, 0u);
  // Sections start 8-aligned and the file ends where the last one does.
  EXPECT_EQ((Out[0].Data - Img.data()) % 8, 0);
  EXPECT_EQ((Out[1].Data - Img.data()) % 8, 0);
  EXPECT_EQ(Out[1].Data + Out[1].Len, Img.data() + Img.size());
}

TEST(Container, RejectsWrongMagicKindAndCompat) {
  std::vector<uint8_t> Img = testContainer();
  std::vector<snapshot::SectionView> Out;
  std::string Err;

  std::vector<uint8_t> BadMagic = Img;
  BadMagic[0] ^= 0xff;
  EXPECT_EQ(parseTest(BadMagic, BadMagic.size(),
                      snapshot::PayloadKind::Checkpoint, 0x1234, Out, Err),
            snapshot::LoadStatus::BadFormat);

  // Valid container, but the caller wants the other payload kind.
  EXPECT_EQ(parseTest(Img, Img.size(), snapshot::PayloadKind::ActionCache,
                      0x1234, Out, Err),
            snapshot::LoadStatus::BadFormat);

  // Valid container produced under a different configuration.
  EXPECT_EQ(parseTest(Img, Img.size(), snapshot::PayloadKind::Checkpoint,
                      0x9999, Out, Err),
            snapshot::LoadStatus::CompatMismatch);
  EXPECT_TRUE(Out.empty()); // untouched on failure
}

TEST(Container, OlderFormatVersionsAreRefused) {
  // Versions 1 and 2 carry node seals without the End node's NextKey,
  // version 3 was the last with separate snapshot and store formats, and
  // version 4 held raw 8-byte key words; all must be refused as a format
  // mismatch. Header: magic (8) | version u32
  // at 8 | ... | CRC-32 at 28 of the first 28 bytes and the section table
  // (24 bytes per section from offset 32).
  std::vector<uint8_t> Img = testContainer();
  for (uint32_t Old : {1u, 2u, 3u, 4u}) {
    std::vector<uint8_t> Bad = Img;
    std::memcpy(Bad.data() + 8, &Old, 4);
    const uint32_t Crc = snapshot::crc32(Bad.data() + 32, 2 * 24,
                                         snapshot::crc32(Bad.data(), 28));
    std::memcpy(Bad.data() + 28, &Crc, 4);
    std::vector<snapshot::SectionView> Out;
    std::string Err;
    EXPECT_EQ(parseTest(Bad, Bad.size(), snapshot::PayloadKind::Checkpoint,
                        0x1234, Out, Err),
              snapshot::LoadStatus::BadFormat);
    EXPECT_NE(Err.find("unsupported snapshot format version " +
                       std::to_string(Old)),
              std::string::npos)
        << Err;
    EXPECT_TRUE(Out.empty());
  }
}

TEST(Container, EveryTruncationRejected) {
  std::vector<uint8_t> Img = testContainer();
  std::vector<snapshot::SectionView> Out;
  std::string Err;
  for (size_t Len = 0; Len != Img.size(); ++Len) {
    EXPECT_NE(parseTest(Img, Len, snapshot::PayloadKind::Checkpoint, 0x1234,
                        Out, Err),
              snapshot::LoadStatus::Ok)
        << "truncation to " << Len << " bytes parsed";
    EXPECT_TRUE(Out.empty());
  }
}

TEST(Container, EveryPayloadBitFlipRejected) {
  // Flips every bit of a small container: the table CRC covers the header
  // and section table, each payload has its own CRC, and padding must be
  // zero, so no flip anywhere parses.
  std::vector<uint8_t> Img = testContainer();
  std::string Err;
  for (size_t Bit = 0; Bit != Img.size() * 8; ++Bit) {
    std::vector<uint8_t> Mut = Img;
    Mut[Bit / 8] ^= uint8_t(1u << (Bit % 8));
    std::vector<snapshot::SectionView> Out;
    EXPECT_NE(parseTest(Mut, Mut.size(), snapshot::PayloadKind::Checkpoint,
                        0x1234, Out, Err),
              snapshot::LoadStatus::Ok)
        << "bit " << Bit << " flipped yet the container parsed";
  }
}

//===----------------------------------------------------------------------===//
// Simulator round-trips
//===----------------------------------------------------------------------===//

/// Shrunk suite entry so unmemoized runs stay test-sized.
workload::WorkloadSpec testSpec(const char *Name = "compress") {
  workload::WorkloadSpec Spec = *workload::findSpec(Name);
  Spec.DataKWords = 2;
  return Spec;
}

/// Everything the step function can observably compute (mirrors
/// test_differential.cpp's oracle).
struct FinalState {
  bool Halted = false;
  uint64_t RetiredTotal = 0;
  uint64_t Cycles = 0;
  uint64_t MemDigest = 0;
  std::vector<int64_t> Globals;

  bool operator==(const FinalState &O) const {
    return Halted == O.Halted && RetiredTotal == O.RetiredTotal &&
           Cycles == O.Cycles && MemDigest == O.MemDigest &&
           Globals == O.Globals;
  }
};

FinalState finalState(const FacileSim &Sim, SimKind Kind) {
  FinalState F;
  F.Halted = Sim.sim().halted();
  F.RetiredTotal = Sim.sim().stats().RetiredTotal;
  F.Cycles = Sim.sim().stats().Cycles;
  F.MemDigest = Sim.sim().memory().digest();
  for (const ir::GlobalVar &G : simulatorProgram(Kind).Globals) {
    if (G.IsArray) {
      for (uint32_t E = 0; E != G.Size; ++E)
        F.Globals.push_back(Sim.sim().getGlobalElem(G.Name, E));
    } else {
      F.Globals.push_back(Sim.sim().getGlobal(G.Name));
    }
  }
  return F;
}

/// Stop at N1, snapshot, restore into a fresh instance, continue to N2:
/// the final state must be bit-identical to an uninterrupted run making
/// the same run() calls.
void expectResumeBitIdentical(SimKind Kind, rt::Simulation::Options Opts) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  constexpr uint64_t N1 = 150'000, N2 = 300'000;

  FacileSim Cont(Kind, Image, Opts);
  Cont.run(N1);
  Cont.run(N2);

  FacileSim A(Kind, Image, Opts);
  A.run(N1);
  std::vector<uint8_t> Ckpt = A.checkpointBytes();
  std::vector<uint8_t> Cache = A.cacheBytes();

  FacileSim B(Kind, Image, Opts);
  std::string Err;
  ASSERT_TRUE(B.loadCheckpointBytes(Ckpt, &Err)) << Err;
  if (Opts.Memoize) {
    ASSERT_TRUE(B.loadCacheBytes(Cache, &Err)) << Err;
  }
  EXPECT_TRUE(B.snapshotStats().CheckpointLoaded);
  EXPECT_EQ(B.sim().stats().RetiredTotal, A.sim().stats().RetiredTotal);
  EXPECT_EQ(finalState(B, Kind), finalState(A, Kind));
  B.run(N2);

  EXPECT_EQ(finalState(B, Kind), finalState(Cont, Kind));
}

TEST(SnapshotResume, AllSimsMemoOnOffBothPolicies) {
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder}) {
    for (bool Memo : {true, false}) {
      rt::Simulation::Options Opts;
      Opts.Memoize = Memo;
      SCOPED_TRACE(std::string("sim=") + std::to_string(int(Kind)) +
                   " memo=" + (Memo ? "on" : "off"));
      expectResumeBitIdentical(Kind, Opts);
    }
  }
}

TEST(SnapshotCache, RoundTripBothPolicies) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(300'000);
  size_t BuiltEntries = Builder.sim().cache().entryCount();
  ASSERT_GT(BuiltEntries, 0u);
  std::vector<uint8_t> Bytes = Builder.cacheBytes();

  FacileSim Warm(SimKind::OutOfOrder, Image);
  std::string Err;
  ASSERT_TRUE(Warm.loadCacheBytes(Bytes, &Err)) << Err;
  EXPECT_TRUE(Warm.snapshotStats().CacheLoaded);
  EXPECT_EQ(Warm.snapshotStats().CacheEntriesLoaded, BuiltEntries);
  EXPECT_EQ(Warm.sim().cache().entryCount(), BuiltEntries);

  // The reloaded cache must replay: the warm run fast-forwards from the
  // start and computes the same state as a cold run.
  FacileSim Cold(SimKind::OutOfOrder, Image);
  Cold.run(300'000);
  Warm.run(300'000);
  EXPECT_GT(Warm.sim().stats().FastSteps, 0u);
  EXPECT_EQ(finalState(Warm, SimKind::OutOfOrder),
            finalState(Cold, SimKind::OutOfOrder));
}

//===----------------------------------------------------------------------===//
// Compatibility and corruption robustness
//===----------------------------------------------------------------------===//

TEST(SnapshotCompat, StaleConfigurationFallsBackCold) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Producer(SimKind::OutOfOrder, Image);
  Producer.run(60'000);
  std::vector<uint8_t> Ckpt = Producer.checkpointBytes();
  std::vector<uint8_t> Cache = Producer.cacheBytes();

  // Different cache budget → different compat key.
  rt::Simulation::Options Other;
  Other.CacheBudgetBytes = 64u << 20;
  FacileSim Consumer(SimKind::OutOfOrder, Image, Other);
  std::string Err;
  EXPECT_FALSE(Consumer.loadCheckpointBytes(Ckpt, &Err));
  EXPECT_NE(Err.find("compat"), std::string::npos) << Err;
  EXPECT_FALSE(Consumer.loadCacheBytes(Cache, &Err));
  EXPECT_EQ(Consumer.snapshotStats().CompatMismatches, 2u);
  EXPECT_EQ(Consumer.snapshotStats().ColdFallbacks, 2u);
  EXPECT_FALSE(Consumer.snapshotStats().CheckpointLoaded);

  // Different target image → different compat key.
  isa::TargetImage Image2 = workload::generate(testSpec("gcc"), 2);
  FacileSim OtherImage(SimKind::OutOfOrder, Image2);
  EXPECT_FALSE(OtherImage.loadCheckpointBytes(Ckpt, &Err));

  // Different simulator (different ExecPlan) → different compat key.
  FacileSim OtherSim(SimKind::InOrder, Image);
  EXPECT_FALSE(OtherSim.loadCacheBytes(Cache, &Err));
  EXPECT_EQ(OtherSim.snapshotStats().CompatMismatches, 1u);

  // A checkpoint container is not an action cache and vice versa.
  EXPECT_FALSE(Consumer.loadCacheBytes(Ckpt, &Err));
  EXPECT_FALSE(Consumer.loadCheckpointBytes(Cache, &Err));

  // The rejected consumer still runs cold, unperturbed.
  Consumer.run(60'000);
  EXPECT_GT(Consumer.sim().stats().RetiredTotal, 0u);
}

TEST(SnapshotRobustness, TruncationsAndBitFlipsNeverBreakTheSim) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Producer(SimKind::OutOfOrder, Image);
  Producer.run(60'000);
  std::vector<uint8_t> Ckpt = Producer.checkpointBytes();
  std::vector<uint8_t> Cache = Producer.cacheBytes();
  FinalState Cold = [&] {
    FacileSim Ref(SimKind::OutOfOrder, Image);
    Ref.run(60'000);
    return finalState(Ref, SimKind::OutOfOrder);
  }();

  FacileSim Victim(SimKind::OutOfOrder, Image);
  std::string Err;
  uint64_t Failures = 0;

  // Truncations: every prefix of the small header region, then sampled
  // lengths across both payloads.
  auto truncations = [](const std::vector<uint8_t> &V) {
    std::vector<size_t> L;
    for (size_t I = 0; I != V.size() && I < 64; ++I)
      L.push_back(I);
    for (int K = 1; K < 32; ++K)
      L.push_back(V.size() * size_t(K) / 32);
    L.push_back(V.size() - 1);
    return L;
  };
  for (size_t Len : truncations(Ckpt)) {
    std::vector<uint8_t> T(Ckpt.begin(), Ckpt.begin() + Len);
    EXPECT_FALSE(Victim.loadCheckpointBytes(T, &Err)) << "len " << Len;
    ++Failures;
  }
  for (size_t Len : truncations(Cache)) {
    std::vector<uint8_t> T(Cache.begin(), Cache.begin() + Len);
    EXPECT_FALSE(Victim.loadCacheBytes(T, &Err)) << "len " << Len;
    ++Failures;
  }

  // Bit flips at positions sampled across each container (headers land in
  // the first bytes, section CRCs and payloads in the rest).
  auto flipPositions = [](const std::vector<uint8_t> &V) {
    std::vector<size_t> P;
    for (size_t I = 0; I != V.size() && I < 48; ++I)
      P.push_back(I);
    for (int K = 1; K < 48; ++K)
      P.push_back(V.size() * size_t(K) / 48);
    return P;
  };
  for (size_t Pos : flipPositions(Ckpt)) {
    std::vector<uint8_t> M = Ckpt;
    M[Pos] ^= uint8_t(1u << (Pos % 8));
    EXPECT_FALSE(Victim.loadCheckpointBytes(M, &Err)) << "byte " << Pos;
    ++Failures;
  }
  for (size_t Pos : flipPositions(Cache)) {
    std::vector<uint8_t> M = Cache;
    M[Pos] ^= uint8_t(1u << (Pos % 8));
    EXPECT_FALSE(Victim.loadCacheBytes(M, &Err)) << "byte " << Pos;
    ++Failures;
  }

  EXPECT_EQ(Victim.snapshotStats().ColdFallbacks, Failures);
  EXPECT_FALSE(Victim.snapshotStats().CheckpointLoaded);
  EXPECT_FALSE(Victim.snapshotStats().CacheLoaded);

  // After every rejected load the simulation is still a pristine cold
  // start: it runs and computes exactly what an untouched instance does.
  Victim.run(60'000);
  EXPECT_EQ(finalState(Victim, SimKind::OutOfOrder), Cold);
}

TEST(SnapshotFiles, MissingFileIsCleanFailure) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Sim(SimKind::OutOfOrder, Image);
  std::string Err;
  EXPECT_FALSE(Sim.loadCheckpoint("/nonexistent/path/x.ckpt", &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(Sim.loadCache("/nonexistent/path/x.acache", &Err));
  EXPECT_EQ(Sim.snapshotStats().ColdFallbacks, 2u);
}

TEST(SnapshotFiles, SaveLoadRoundTripOnDisk) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim A(SimKind::OutOfOrder, Image);
  A.run(60'000);
  std::string Dir = ::testing::TempDir();
  std::string CkptPath = Dir + "/facile_test.ckpt";
  std::string CachePath = Dir + "/facile_test.acache";
  std::string Err;
  ASSERT_TRUE(A.saveCheckpoint(CkptPath, &Err)) << Err;
  ASSERT_TRUE(A.saveCache(CachePath, &Err)) << Err;
  EXPECT_GT(A.snapshotStats().BytesWritten, 0u);

  FacileSim B(SimKind::OutOfOrder, Image);
  ASSERT_TRUE(B.loadCheckpoint(CkptPath, &Err)) << Err;
  ASSERT_TRUE(B.loadCache(CachePath, &Err)) << Err;
  EXPECT_EQ(finalState(B, SimKind::OutOfOrder),
            finalState(A, SimKind::OutOfOrder));
  std::remove(CkptPath.c_str());
  std::remove(CachePath.c_str());
}

TEST(SnapshotFiles, ConcurrentWritesOfOnePathAllSucceed) {
  // Each write stages its own temporary, so writers racing on one path
  // never rename a temporary out from under each other: every write
  // succeeds and the file ends up whole.
  std::string Path = ::testing::TempDir() + "/facile_test_concurrent.bin";
  const std::vector<uint8_t> Bytes(1 << 16, 0x5a);
  constexpr unsigned Threads = 4, Writes = 50;
  std::vector<unsigned> Failures(Threads, 0);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned I = 0; I != Writes; ++I) {
        std::string Err;
        if (!snapshot::writeFileBytes(Path, Bytes, Err))
          ++Failures[T];
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (unsigned T = 0; T != Threads; ++T)
    EXPECT_EQ(Failures[T], 0u) << "thread " << T;
  std::vector<uint8_t> Back;
  std::string Err;
  ASSERT_TRUE(snapshot::readFileBytes(Path, Back, Err)) << Err;
  EXPECT_EQ(Back, Bytes);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// statsJson validity
//===----------------------------------------------------------------------===//

// The tests validate JSON with json::parse (tests/TestJson.h), the parser
// the server trusts with untrusted input; it must reject every malformed
// shape the emitters could plausibly produce.
using testjson::validJson;

TEST(StatsJson, RecognizerSanity) {
  EXPECT_TRUE(validJson("{\"a\":1,\"b\":[1,2.5,-3e2],\"c\":\"x\"}"));
  EXPECT_TRUE(validJson("{}"));
  EXPECT_FALSE(validJson("{\"a\":}"));
  EXPECT_FALSE(validJson("{\"a\":1,}"));
  EXPECT_FALSE(validJson("{\"a\":1"));
  EXPECT_FALSE(validJson("{'a':1}"));
  EXPECT_FALSE(validJson("{\"a\":01x}"));
}

TEST(StatsJson, EverySimulatorEmitsValidJson) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder}) {
    SCOPED_TRACE(int(Kind));
    FacileSim Sim(Kind, Image);
    // Before any run, after a run, and after a snapshot load (which fills
    // the "snapshot" block with nonzero values).
    EXPECT_TRUE(validJson(Sim.statsJson())) << Sim.statsJson();
    Sim.run(60'000);
    EXPECT_TRUE(validJson(Sim.statsJson())) << Sim.statsJson();

    FacileSim Warm(Kind, Image);
    std::string Err;
    ASSERT_TRUE(Warm.loadCacheBytes(Sim.cacheBytes(), &Err)) << Err;
    ASSERT_TRUE(Warm.loadCheckpointBytes(Sim.checkpointBytes(), &Err)) << Err;
    EXPECT_TRUE(validJson(Warm.statsJson())) << Warm.statsJson();
  }
}

} // namespace
