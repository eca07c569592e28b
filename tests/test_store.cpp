//===- test_store.cpp - Content-addressed mmap-shared cache store ------------===//
//
// The store subsystem's contract, exercised end to end: a promoted action
// cache comes back bit-identical through a read-only mapping (same
// replayed results as the private owned-copy path), generations pick
// the newest compatible file, every corruption is a diagnosed cold start,
// N consumers share one mapping, and — the point of the design — two
// independent processes over one store file compute identical digests
// while the base mapping stays PROT_READ.
//
//===----------------------------------------------------------------------===//

#include "src/sims/SimHarness.h"
#include "src/snapshot/Snapshot.h"
#include "src/store/CacheStore.h"
#include "src/support/JsonValue.h"
#include "src/workload/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace facile;
using namespace facile::sims;

namespace {

workload::WorkloadSpec testSpec() {
  workload::WorkloadSpec Spec = *workload::findSpec("compress");
  Spec.DataKWords = 2;
  return Spec;
}

constexpr uint64_t kBudget = 300'000;

/// Steps that record a cache image of 2-4 KB (Functional, testSpec()).
constexpr uint64_t kSmallImageSteps = 10;

/// cacheBytes() of OutOfOrder gcc (2 KWords of data) after 50 K
/// instructions: its length and whole-buffer CRC-32.
constexpr size_t kPinnedGccBytes = 4929464;
constexpr uint32_t kPinnedGccCrc = 0x76dc5766u;

void removeTree(const std::string &Dir) {
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        ::unlink((Dir + "/" + Name).c_str());
    }
    ::closedir(D);
  }
  ::rmdir(Dir.c_str());
}

/// A per-test store directory under gtest's temp root (promote() creates
/// it on first write).
std::string freshDir(const char *Name) {
  std::string D = ::testing::TempDir() + "facile_store_" + Name + "_" +
                  std::to_string(static_cast<long long>(::getpid()));
  removeTree(D);
  return D;
}

/// The whole file at \p Path; empty when it cannot be read.
std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  std::string Err;
  snapshot::readFileBytes(Path, Bytes, Err);
  return Bytes;
}

bool writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Bytes) {
  std::string Err;
  return snapshot::writeFileBytes(Path, Bytes, Err);
}

/// Finds the /proc/self/maps permission string of the first mapping whose
/// path contains \p PathSub. Empty when not mapped.
std::string mappingPerms(const std::string &PathSub) {
  std::FILE *F = std::fopen("/proc/self/maps", "r");
  if (!F)
    return "";
  char Line[1024];
  std::string Perms;
  while (std::fgets(Line, sizeof(Line), F)) {
    if (std::strstr(Line, PathSub.c_str())) {
      char Addr[64], P[8];
      if (std::sscanf(Line, "%63s %7s", Addr, P) == 2)
        Perms = P;
      break;
    }
  }
  std::fclose(F);
  return Perms;
}

} // namespace

//===----------------------------------------------------------------------===//
// Promote / lookup / attach round trip
//===----------------------------------------------------------------------===//

TEST(CacheStore, PromoteLookupAttachRoundTrip) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Cold(SimKind::OutOfOrder, Image);
  Cold.run(kBudget);

  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);

  std::string Dir = freshDir("roundtrip");
  store::CacheStoreDir Store(Dir);
  uint64_t Gen = 0;
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, &Gen, &Err)) << Err;
  EXPECT_EQ(Gen, 1u);

  uint64_t CK = Builder.sim().compatKey();
  uint32_t NA = static_cast<uint32_t>(Builder.sim().actionCount());
  std::shared_ptr<const store::StoreMap> Map = Store.lookup(CK, NA, &Err);
  ASSERT_TRUE(Map) << Err;
  EXPECT_EQ(Map->compatKey(), CK);
  EXPECT_EQ(Map->generation(), 1u);
  EXPECT_EQ(Map->numActions(), NA);
  EXPECT_GT(Map->arenas().NumNodes, 0u);
  EXPECT_GT(Map->arenas().NumKeys, 0u);
  EXPECT_GT(Map->mappedBytes(), size_t(64));

  // A store-backed run replays the builder's work and finishes exactly
  // like the cold run.
  FacileSim Warm(SimKind::OutOfOrder, Image);
  ASSERT_TRUE(Warm.attachStore(Store, &Err)) << Err;
  EXPECT_TRUE(Warm.snapshotStats().CacheLoaded);
  EXPECT_GT(Warm.snapshotStats().CacheEntriesLoaded, 0u);
  EXPECT_TRUE(Warm.sim().cacheBaseAttached());
  Warm.run(kBudget);
  EXPECT_GT(Warm.sim().stats().FastSteps, 0u);
  EXPECT_EQ(Warm.sim().memory().digest(), Cold.sim().memory().digest());
  EXPECT_EQ(Warm.sim().stats().RetiredTotal, Cold.sim().stats().RetiredTotal);
  EXPECT_EQ(Warm.sim().stats().Cycles, Cold.sim().stats().Cycles);
  removeTree(Dir);
}

TEST(CacheStore, StatsReportAttachAndPromoteTimes) {
  // store.attach_us and store.promote_us are this instance's wall times
  // for attachStore and promoteStore: zero until the call, then set.
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  auto storeGroup = [](const FacileSim &Sim, json::Value &Stats) {
    std::string Err;
    EXPECT_TRUE(json::parse(Sim.statsJson(), Stats, Err)) << Err;
    return Stats.get("store");
  };
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(100'000);
  json::Value Before;
  const json::Value *G = storeGroup(Builder, Before);
  ASSERT_TRUE(G);
  EXPECT_EQ(G->get("attach_us")->intOr(-1), 0);
  EXPECT_EQ(G->get("promote_us")->intOr(-1), 0);

  std::string Dir = freshDir("timing");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
  json::Value Promoted;
  G = storeGroup(Builder, Promoted);
  EXPECT_GT(G->get("promote_us")->intOr(0), 0);
  EXPECT_EQ(G->get("attach_us")->intOr(-1), 0);

  FacileSim Warm(SimKind::OutOfOrder, Image);
  ASSERT_TRUE(Warm.attachStore(Store, &Err)) << Err;
  json::Value Attached;
  G = storeGroup(Warm, Attached);
  EXPECT_TRUE(G->get("attached")->boolOr(false));
  EXPECT_GT(G->get("attach_us")->intOr(0), 0);
  EXPECT_EQ(G->get("promote_us")->intOr(-1), 0);
  removeTree(Dir);
}

TEST(CacheStore, WriteStoreFileIsDeterministic) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);
  rt::ActionCache::FlatImage Img = Builder.sim().cache().compactImage();
  uint64_t CK = Builder.sim().compatKey();

  std::vector<uint8_t> Bytes = store::encodeImage(Img, CK);
  ASSERT_FALSE(Bytes.empty());
  EXPECT_EQ(Bytes, store::encodeImage(Img, CK));
  // One format: a promoted store file and a cache snapshot are these
  // same bytes.
  EXPECT_EQ(Builder.cacheBytes(), Bytes);
  std::string Dir = freshDir("det");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
  EXPECT_EQ(readFileBytes(Dir + "/" + store::CacheStoreDir::fileName(CK, 1)),
            Bytes);
  removeTree(Dir);
}

TEST(CacheStore, GenerationsPickLatest) {
  EXPECT_EQ(store::CacheStoreDir::fileName(0xabcULL, 7),
            "ac-0000000000000abc-g000007.facstore");

  isa::TargetImage Image = workload::generate(testSpec(), 2);
  std::string Dir = freshDir("gens");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  uint64_t Gen = 0;

  FacileSim B1(SimKind::OutOfOrder, Image);
  B1.run(100'000);
  ASSERT_TRUE(B1.promoteStore(Store, &Gen, &Err)) << Err;
  EXPECT_EQ(Gen, 1u);
  FacileSim B2(SimKind::OutOfOrder, Image);
  B2.run(kBudget);
  ASSERT_TRUE(B2.promoteStore(Store, &Gen, &Err)) << Err;
  EXPECT_EQ(Gen, 2u);

  uint64_t CK = B1.sim().compatKey();
  uint32_t NA = static_cast<uint32_t>(B1.sim().actionCount());
  std::shared_ptr<const store::StoreMap> Map = Store.lookup(CK, NA, &Err);
  ASSERT_TRUE(Map) << Err;
  EXPECT_EQ(Map->generation(), 2u);
  // Both generations coexist on disk — live mappings of older ones stay
  // valid after a promote.
  EXPECT_FALSE(readFileBytes(Dir + "/" +
                             store::CacheStoreDir::fileName(CK, 1)).empty());
  removeTree(Dir);
}

//===----------------------------------------------------------------------===//
// Corruption: every flipped byte is a diagnosed cold start
//===----------------------------------------------------------------------===//

TEST(CacheStore, CorruptionIsRejected) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Cold(SimKind::OutOfOrder, Image);
  Cold.run(kBudget);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);

  std::string Dir = freshDir("corrupt");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
  uint64_t CK = Builder.sim().compatKey();
  uint32_t NA = static_cast<uint32_t>(Builder.sim().actionCount());
  std::string Path = Dir + "/" + store::CacheStoreDir::fileName(CK, 1);
  std::vector<uint8_t> Good = readFileBytes(Path);
  ASSERT_GT(Good.size(), size_t(512));

  // Magic, version, first arena byte (CRC-covered), last table byte.
  for (size_t Ofs : {size_t(0), size_t(9), size_t(320), Good.size() - 1}) {
    SCOPED_TRACE("flip at offset " + std::to_string(Ofs));
    std::vector<uint8_t> Bad = Good;
    Bad[Ofs] ^= 0x40;
    ASSERT_TRUE(writeFileBytes(Path, Bad));
    store::CacheStoreDir Fresh(Dir); // fresh handle: no cached mapping
    std::shared_ptr<const store::StoreMap> Map = Fresh.lookup(CK, NA, &Err);
    EXPECT_FALSE(Map);
    EXPECT_FALSE(Err.empty());
  }

  // Harness path: a corrupt store is a counted, diagnosed cold fallback,
  // and the simulation still computes the cold result.
  store::CacheStoreDir Fresh(Dir);
  FacileSim Victim(SimKind::OutOfOrder, Image);
  EXPECT_FALSE(Victim.attachStore(Fresh, &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(Victim.snapshotStats().CorruptInputs, 1u);
  EXPECT_EQ(Victim.snapshotStats().ColdFallbacks, 1u);
  EXPECT_FALSE(Victim.snapshotStats().CacheLoaded);
  Victim.run(kBudget);
  EXPECT_EQ(Victim.sim().memory().digest(), Cold.sim().memory().digest());

  // Restoring the original bytes restores the warm path.
  ASSERT_TRUE(writeFileBytes(Path, Good));
  store::CacheStoreDir Healed(Dir);
  EXPECT_TRUE(Healed.lookup(CK, NA, &Err) != nullptr) << Err;
  removeTree(Dir);
}

TEST(CacheStore, EveryByteAndTheLengthAreChecked) {
  // No byte of a store file is unchecked: each is covered by a CRC or
  // must be zero, and the file must end where its last section does. So
  // a flip anywhere in the header, section table or the sampled payload,
  // a truncation, and appended bytes all make StoreMap::open refuse it.
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(60'000);

  std::string Dir = freshDir("coverage");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
  uint64_t CK = Builder.sim().compatKey();
  uint32_t NA = static_cast<uint32_t>(Builder.sim().actionCount());
  std::string Path = Dir + "/" + store::CacheStoreDir::fileName(CK, 1);
  const std::vector<uint8_t> Good = readFileBytes(Path);
  ASSERT_GT(Good.size(), size_t(1024));

  auto opens = [&](const std::vector<uint8_t> &Bytes) {
    EXPECT_TRUE(writeFileBytes(Path, Bytes));
    std::string OpenErr;
    bool Ok = store::StoreMap::open(Path, CK, NA, OpenErr) != nullptr;
    EXPECT_TRUE(Ok || !OpenErr.empty());
    return Ok;
  };
  std::vector<size_t> Flips;
  for (size_t I = 0; I != 512; ++I)
    Flips.push_back(I);
  for (size_t K = 0; K != 64; ++K)
    Flips.push_back(512 + (Good.size() - 512) * K / 64);
  Flips.push_back(Good.size() - 1);
  for (size_t Pos : Flips) {
    std::vector<uint8_t> Bad = Good;
    Bad[Pos] ^= uint8_t(1u << (Pos % 8));
    EXPECT_FALSE(opens(Bad)) << "flip at byte " << Pos;
  }
  for (size_t Extra : {1, 7, 8, 64}) {
    std::vector<uint8_t> Bad = Good;
    Bad.resize(Good.size() + Extra, 0);
    EXPECT_FALSE(opens(Bad)) << Extra << " appended bytes";
  }
  for (size_t Len : {size_t(1), size_t(8), size_t(31), size_t(32),
                     size_t(256), Good.size() / 2, Good.size() - 8,
                     Good.size() - 1}) {
    std::vector<uint8_t> Bad(Good.begin(), Good.begin() + Len);
    EXPECT_FALSE(opens(Bad)) << "truncated to " << Len << " bytes";
  }
  EXPECT_TRUE(opens(Good));
  removeTree(Dir);
}

TEST(CacheStore, EveryByteFlipOfASmallImageFailsParse) {
  // A container small enough to flip every byte: each section CRC runs
  // over both the 8-byte lanes and the byte-wise tail, so a flip anywhere
  // must surface as a rejection.
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Builder(SimKind::Functional, Image);
  Builder.sim().run(kSmallImageSteps);
  const std::vector<uint8_t> Good = Builder.cacheBytes();
  ASSERT_GE(Good.size(), size_t(2048));
  ASSERT_LE(Good.size(), size_t(4096));
  const uint64_t CK = Builder.sim().compatKey();
  const uint32_t NA = static_cast<uint32_t>(Builder.sim().actionCount());
  rt::ActionCache::BaseArenas View;
  std::string Err;
  ASSERT_EQ(store::parseImage(Good.data(), Good.size(), CK, NA, View, Err),
            snapshot::LoadStatus::Ok)
      << Err;
  std::vector<uint8_t> Bad = Good;
  for (size_t Pos = 0; Pos != Good.size(); ++Pos) {
    Bad[Pos] ^= uint8_t(1u << (Pos % 8));
    EXPECT_NE(store::parseImage(Bad.data(), Bad.size(), CK, NA, View, Err),
              snapshot::LoadStatus::Ok)
        << "flip at byte " << Pos;
    Bad[Pos] = Good[Pos];
  }
}

TEST(CacheStore, NonZeroNodePaddingIsRejected) {
  // The node arena is encoded raw, so its padding is part of the format:
  // a CRC-valid image whose node carries a stray pad byte is refused.
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Builder(SimKind::Functional, Image);
  Builder.sim().run(kSmallImageSteps);
  rt::ActionCache::FlatImage Img = Builder.sim().cache().compactImage();
  ASSERT_FALSE(Img.Nodes.empty());
  Img.Nodes.back().Pad[2] = 1;
  const uint64_t CK = Builder.sim().compatKey();
  const std::vector<uint8_t> Bytes = store::encodeImage(Img, CK);
  rt::ActionCache::BaseArenas View;
  std::string Err;
  EXPECT_EQ(store::parseImage(Bytes.data(), Bytes.size(), CK,
                              static_cast<uint32_t>(
                                  Builder.sim().actionCount()),
                              View, Err),
            snapshot::LoadStatus::Corrupt);
  EXPECT_EQ(Err, "node padding not zero");
}

TEST(CacheStore, CacheBytesArePinned) {
  // The size and whole-buffer CRC of a short deterministic recorded run's
  // image. Any change to the image format, the encoder's bytes or the
  // CRC kernel moves them; store files of earlier builds attach only
  // while they hold.
  workload::WorkloadSpec Spec = *workload::findSpec("gcc");
  Spec.DataKWords = 2;
  isa::TargetImage Image = workload::generate(Spec, 1u << 30);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(50'000);
  const std::vector<uint8_t> Bytes = Builder.cacheBytes();
  EXPECT_EQ(Bytes.size(), kPinnedGccBytes);
  EXPECT_EQ(snapshot::crc32(Bytes.data(), Bytes.size()), kPinnedGccCrc);
}

TEST(CacheStore, ConcurrentPromotesOfOneKeyGetDistinctGenerations) {
  // Threads promoting the same compat key at once each get their own
  // generation, and every one of those files is intact.
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(60'000);
  uint64_t CK = Builder.sim().compatKey();
  uint32_t NA = static_cast<uint32_t>(Builder.sim().actionCount());

  std::string Dir = freshDir("concurrent");
  store::CacheStoreDir Store(Dir);
  constexpr unsigned Threads = 4, Rounds = 5;
  std::vector<uint64_t> Gens;
  for (unsigned R = 0; R != Rounds; ++R) {
    std::vector<uint64_t> RoundGens(Threads, 0);
    std::vector<std::string> Errs(Threads);
    std::vector<int> Ok(Threads, 0);
    std::atomic<unsigned> Ready{0};
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T != Threads; ++T)
      Pool.emplace_back([&, T] {
        ++Ready;
        while (Ready.load() != Threads) {
        }
        Ok[T] = Builder.promoteStore(Store, &RoundGens[T], &Errs[T]);
      });
    for (std::thread &Th : Pool)
      Th.join();
    for (unsigned T = 0; T != Threads; ++T) {
      EXPECT_TRUE(Ok[T]) << Errs[T];
      Gens.push_back(RoundGens[T]);
    }
  }
  std::sort(Gens.begin(), Gens.end());
  for (size_t I = 0; I != Gens.size(); ++I)
    EXPECT_EQ(Gens[I], I + 1) << "generation handed out twice or skipped";
  for (uint64_t G = 1; G <= Threads * Rounds; ++G) {
    std::string Err;
    EXPECT_TRUE(store::StoreMap::open(
        Dir + "/" + store::CacheStoreDir::fileName(CK, G), CK, NA, Err))
        << "generation " << G << ": " << Err;
  }
  removeTree(Dir);
}

TEST(CacheStore, CrossProcessPromotesNeverReplaceAGeneration) {
  // Forked processes promote distinct images of one compat key at once
  // (each image tagged by its recency tick), so several pick the same
  // latest + 1. Every generation a process reports must hold that
  // process's image: a promote must never replace another's file.
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(60'000);
  const uint64_t CK = Builder.sim().compatKey();
  const uint32_t NA = static_cast<uint32_t>(Builder.sim().actionCount());
  const rt::ActionCache::FlatImage Base = Builder.sim().cache().compactImage();

  std::string Dir = freshDir("xproc");
  constexpr unsigned Procs = 4, Rounds = 4;
  struct Report {
    uint64_t Tick = 0;
    uint64_t Gen = 0;
    uint8_t Ok = 0;
  };
  // Children block on Go until the parent closes its write end, so all of
  // them start promoting together.
  int Go[2];
  ASSERT_EQ(::pipe(Go), 0);
  std::vector<pid_t> Pids;
  std::vector<int> Results;
  for (unsigned P = 0; P != Procs; ++P) {
    int Fds[2];
    ASSERT_EQ(::pipe(Fds), 0);
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      ::close(Go[1]);
      ::close(Fds[0]);
      char C;
      bool Ok = ::read(Go[0], &C, 1) == 0;
      store::CacheStoreDir Store(Dir);
      for (unsigned R = 0; R != Rounds && Ok; ++R) {
        rt::ActionCache::FlatImage Img = Base;
        Report Rep;
        Rep.Tick = Img.Tick = 1000 + P * Rounds + R;
        std::string Err;
        Rep.Ok = Store.promote(Img, CK, &Rep.Gen, &Err);
        Ok = ::write(Fds[1], &Rep, sizeof(Rep)) == sizeof(Rep);
      }
      ::_exit(Ok ? 0 : 1);
    }
    ::close(Fds[1]);
    Pids.push_back(Pid);
    Results.push_back(Fds[0]);
  }
  ::close(Go[0]);
  ::close(Go[1]);

  std::vector<Report> Reports;
  for (int Fd : Results) {
    Report Rep;
    while (::read(Fd, &Rep, sizeof(Rep)) == static_cast<ssize_t>(sizeof(Rep)))
      Reports.push_back(Rep);
    ::close(Fd);
  }
  for (pid_t Pid : Pids) {
    int Status = -1;
    ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
  }
  ASSERT_EQ(Reports.size(), Procs * Rounds);
  std::vector<uint64_t> Gens;
  for (const Report &Rep : Reports) {
    SCOPED_TRACE("image " + std::to_string(Rep.Tick));
    EXPECT_EQ(Rep.Ok, 1);
    Gens.push_back(Rep.Gen);
    std::string Err;
    std::shared_ptr<const store::StoreMap> M = store::StoreMap::open(
        Dir + "/" + store::CacheStoreDir::fileName(CK, Rep.Gen), CK, NA, Err);
    ASSERT_TRUE(M) << "generation " << Rep.Gen << ": " << Err;
    EXPECT_EQ(M->arenas().Tick, Rep.Tick)
        << "generation " << Rep.Gen << " holds another process's image";
  }
  std::sort(Gens.begin(), Gens.end());
  EXPECT_TRUE(std::adjacent_find(Gens.begin(), Gens.end()) == Gens.end())
      << "one generation reported twice";
  removeTree(Dir);
}

TEST(CacheStore, OlderVersionIsRefusedBeforeTheHashCheck) {
  // Version 1 files hold FNV-1a key hashes, not hashKey values; version 2
  // files hold node seals without the End node's NextKey; version 3 was
  // the last with a store-only header; version 4 files hold raw 8-byte key
  // words, not width-tagged fields. A file that says any of them under
  // a valid table CRC must be refused for its version, as a diagnosed
  // cold start, and never get as far as the key-hash check.
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);

  std::string Dir = freshDir("oldversion");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
  uint64_t CK = Builder.sim().compatKey();
  uint32_t NA = static_cast<uint32_t>(Builder.sim().actionCount());
  std::string Path = Dir + "/" + store::CacheStoreDir::fileName(CK, 1);
  const std::vector<uint8_t> Current = readFileBytes(Path);
  ASSERT_GT(Current.size(), size_t(64));

  for (uint32_t OldVersion : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(OldVersion);
    // Container layout (docs/INTERNALS.md): version u32 at 8, CRC-32 at
    // 28 of the first 28 bytes and the 9-entry, 24-byte section table.
    std::vector<uint8_t> Bytes = Current;
    std::memcpy(Bytes.data() + 8, &OldVersion, 4);
    const uint32_t Crc = snapshot::crc32(Bytes.data() + 32, 9 * 24,
                                         snapshot::crc32(Bytes.data(), 28));
    std::memcpy(Bytes.data() + 28, &Crc, 4);
    ASSERT_TRUE(writeFileBytes(Path, Bytes));

    {
      store::CacheStoreDir Fresh(Dir);
      EXPECT_FALSE(Fresh.lookup(CK, NA, &Err));
      EXPECT_NE(Err.find("unsupported snapshot format version"),
                std::string::npos)
          << Err;
      EXPECT_EQ(Err.find("key hash mismatch"), std::string::npos) << Err;
    }

    store::CacheStoreDir Fresh(Dir);
    FacileSim Victim(SimKind::OutOfOrder, Image);
    EXPECT_FALSE(Victim.attachStore(Fresh, &Err));
    EXPECT_NE(Err.find("unsupported snapshot format version"), std::string::npos)
        << Err;
    EXPECT_EQ(Victim.snapshotStats().CorruptInputs, 1u);
    EXPECT_EQ(Victim.snapshotStats().ColdFallbacks, 1u);
    EXPECT_FALSE(Victim.snapshotStats().CacheLoaded);
    Victim.run(kBudget);
    EXPECT_EQ(Victim.sim().memory().digest(), Builder.sim().memory().digest());
  }
  removeTree(Dir);
}

TEST(CacheStore, AttachRules) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  std::string Dir = freshDir("rules");

  // A store miss is clean: no error text, no corrupt/fallback counters.
  {
    store::CacheStoreDir Empty(Dir);
    FacileSim Sim(SimKind::OutOfOrder, Image);
    std::string Err = "stale";
    EXPECT_FALSE(Sim.attachStore(Empty, &Err));
    EXPECT_TRUE(Err.empty());
    EXPECT_EQ(Sim.snapshotStats().CorruptInputs, 0u);
    EXPECT_EQ(Sim.snapshotStats().ColdFallbacks, 0u);
  }

  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);
  store::CacheStoreDir Store(Dir);
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;

  // Memoization off changes the compat key, so the promoted file can never
  // match: a clean miss, not an error — the base would never be read.
  {
    rt::Simulation::Options Opts;
    Opts.Memoize = false;
    FacileSim Sim(SimKind::OutOfOrder, Image, Opts);
    Err = "stale";
    EXPECT_FALSE(Sim.attachStore(Store, &Err));
    EXPECT_TRUE(Err.empty());
    EXPECT_FALSE(Sim.sim().cacheBaseAttached());
  }
  // Attach is before-first-step only: a warmed cache refuses a base.
  {
    FacileSim Sim(SimKind::OutOfOrder, Image);
    Sim.run(10'000);
    EXPECT_FALSE(Sim.attachStore(Store, &Err));
    EXPECT_FALSE(Err.empty());
    EXPECT_FALSE(Sim.sim().cacheBaseAttached());
  }
  removeTree(Dir);
}

//===----------------------------------------------------------------------===//
// Sharing: one mapping, many consumers, read-only base
//===----------------------------------------------------------------------===//

TEST(CacheStore, ManySimsShareOneMapping) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Cold(SimKind::OutOfOrder, Image);
  Cold.run(kBudget);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);

  std::string Dir = freshDir("share");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;

  std::vector<std::unique_ptr<FacileSim>> Sims;
  for (int I = 0; I != 4; ++I) {
    auto Sim = std::make_unique<FacileSim>(SimKind::OutOfOrder, Image);
    ASSERT_TRUE(Sim->attachStore(Store, &Err)) << Err;
    Sims.push_back(std::move(Sim));
  }
  // One StoreMap object behind all four sims.
  EXPECT_EQ(Store.mappedCount(), size_t(1));
  for (int I = 1; I != 4; ++I)
    EXPECT_EQ(Sims[I]->storeMapping().get(), Sims[0]->storeMapping().get());

  // The mapping is read-only in this process's address space: new
  // recordings land in private overlays, never in the shared base.
  std::string Perms = mappingPerms(".facstore");
  ASSERT_FALSE(Perms.empty()) << "store file not found in /proc/self/maps";
  EXPECT_EQ(Perms[0], 'r');
  EXPECT_EQ(Perms[1], '-') << "store mapping is writable: " << Perms;

  for (auto &Sim : Sims) {
    Sim->run(kBudget);
    EXPECT_GT(Sim->sim().stats().FastSteps, 0u);
    EXPECT_EQ(Sim->sim().memory().digest(), Cold.sim().memory().digest());
  }
  removeTree(Dir);
}

TEST(CacheStore, CrossProcessRunsAreBitIdentical) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Cold(SimKind::OutOfOrder, Image);
  Cold.run(kBudget);
  uint64_t ColdDigest = Cold.sim().memory().digest();

  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);
  std::string Dir = freshDir("fork");
  {
    store::CacheStoreDir Store(Dir);
    std::string Err;
    ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
  }

  // Two independent processes map the same store file and run the same
  // budget; each reports (attach ok, digest, base read-only in its own
  // /proc/self/maps) over a pipe.
  struct Report {
    uint8_t AttachOk = 0;
    uint8_t ReadOnly = 0;
    uint64_t Digest = 0;
    uint64_t FastSteps = 0;
  };
  Report Reports[2];
  pid_t Pids[2];
  for (int I = 0; I != 2; ++I) {
    int Fds[2];
    ASSERT_EQ(::pipe(Fds), 0);
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      ::close(Fds[0]);
      Report R;
      store::CacheStoreDir Store(Dir);
      FacileSim Sim(SimKind::OutOfOrder, Image);
      std::string Err;
      if (Sim.attachStore(Store, &Err)) {
        R.AttachOk = 1;
        Sim.run(kBudget);
        R.Digest = Sim.sim().memory().digest();
        R.FastSteps = Sim.sim().stats().FastSteps;
        std::string Perms = mappingPerms(".facstore");
        R.ReadOnly = Perms.size() > 1 && Perms[0] == 'r' && Perms[1] == '-';
      }
      ssize_t N = ::write(Fds[1], &R, sizeof(R));
      ::close(Fds[1]);
      ::_exit(N == sizeof(R) ? 0 : 1);
    }
    ::close(Fds[1]);
    ssize_t N = ::read(Fds[0], &Reports[I], sizeof(Reports[I]));
    ::close(Fds[0]);
    ASSERT_EQ(N, static_cast<ssize_t>(sizeof(Reports[I])));
    Pids[I] = Pid;
  }
  for (int I = 0; I != 2; ++I) {
    int Status = -1;
    ASSERT_EQ(::waitpid(Pids[I], &Status, 0), Pids[I]);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
    SCOPED_TRACE("child " + std::to_string(I));
    EXPECT_EQ(Reports[I].AttachOk, 1);
    EXPECT_EQ(Reports[I].ReadOnly, 1);
    EXPECT_GT(Reports[I].FastSteps, 0u);
    EXPECT_EQ(Reports[I].Digest, ColdDigest);
  }
  EXPECT_EQ(Reports[0].Digest, Reports[1].Digest);
  removeTree(Dir);
}

//===----------------------------------------------------------------------===//
// Generation garbage collection
//===----------------------------------------------------------------------===//

TEST(CacheStore, GcKeepsNewestGenerationsPerKey) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);

  std::string Dir = freshDir("gc");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  for (int I = 0; I != 3; ++I)
    ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
  uint64_t CK = Builder.sim().compatKey();
  for (uint64_t G = 1; G <= 3; ++G)
    EXPECT_EQ(::access((Dir + "/" + store::CacheStoreDir::fileName(CK, G))
                           .c_str(),
                       F_OK),
              0);

  // keep=2 collects only the oldest; keep=1 (and the 0 alias) leaves
  // exactly the newest, which must still be mappable afterwards.
  EXPECT_EQ(Store.gc(2, &Err), 1u) << Err;
  EXPECT_TRUE(Err.empty());
  EXPECT_NE(::access((Dir + "/" + store::CacheStoreDir::fileName(CK, 1))
                         .c_str(),
                     F_OK),
            0);
  EXPECT_EQ(Store.gc(0, &Err), 1u) << Err; // 0 means keep the newest
  EXPECT_EQ(::access((Dir + "/" + store::CacheStoreDir::fileName(CK, 3))
                         .c_str(),
                     F_OK),
            0);
  EXPECT_EQ(Store.gc(1, &Err), 0u); // already collected: idempotent

  uint32_t NA = static_cast<uint32_t>(Builder.sim().actionCount());
  std::shared_ptr<const store::StoreMap> Map = Store.lookup(CK, NA, &Err);
  ASSERT_TRUE(Map) << Err;
  EXPECT_EQ(Map->generation(), 3u);
  Map.reset();
  removeTree(Dir);
}

TEST(CacheStore, GcIsSafeWhileGenerationIsMapped) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Cold(SimKind::OutOfOrder, Image);
  Cold.run(kBudget);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);

  std::string Dir = freshDir("gc_mapped");
  store::CacheStoreDir Store(Dir);
  std::string Err;
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;

  // Attach generation 1, then promote a newer one and collect: POSIX keeps
  // the mapped pages alive after the unlink, so the attached run must
  // finish exactly like the cold one even though its file is gone.
  FacileSim Warm(SimKind::OutOfOrder, Image);
  ASSERT_TRUE(Warm.attachStore(Store, &Err)) << Err;
  EXPECT_EQ(Warm.storeMapping()->generation(), 1u);
  ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;
  EXPECT_EQ(Store.gc(1, &Err), 1u) << Err;
  uint64_t CK = Builder.sim().compatKey();
  EXPECT_NE(::access((Dir + "/" + store::CacheStoreDir::fileName(CK, 1))
                         .c_str(),
                     F_OK),
            0);

  Warm.run(kBudget);
  EXPECT_GT(Warm.sim().stats().FastSteps, 0u);
  EXPECT_EQ(Warm.sim().memory().digest(), Cold.sim().memory().digest());
  removeTree(Dir);
}

TEST(CacheStore, GcOnMissingDirectoryIsANoOp) {
  store::CacheStoreDir Store("/nonexistent/facile-gc-nowhere");
  std::string Err;
  EXPECT_EQ(Store.gc(1, &Err), 0u);
  EXPECT_TRUE(Err.empty());
}
