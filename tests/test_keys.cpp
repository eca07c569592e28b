//===- test_keys.cpp - Width-tagged step keys ----------------------------------===//
//
// The step key's layout (docs/INTERNALS.md, "Step keys"): a raw head of the
// compared init globals, then each key-static init global as a width byte
// and its words at that width. ooo.fac never leaves width 1, so a small
// program here walks its key-static fields through every width boundary
// and checks the layout, memo on/off, interpreter/JIT and cold/warm. Then
// cache images whose keys are malformed are loaded and replayed: each
// ends in a structured CacheCorrupt fault or runs exactly as cold.
//
//===----------------------------------------------------------------------===//

#include "src/facile/Compiler.h"
#include "src/isa/Assembler.h"
#include "src/runtime/Simulation.h"
#include "src/sims/SimHarness.h"
#include "src/snapshot/Snapshot.h"
#include "src/store/CacheStore.h"
#include "src/support/Hashing.h"
#include "src/workload/Workloads.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace facile;
using namespace facile::rt;

namespace {

CompiledProgram compileOk(const char *Source) {
  DiagnosticEngine Diag;
  auto P = compileFacile(Source, Diag);
  EXPECT_TRUE(P.has_value()) << Diag.str();
  if (!P)
    std::abort();
  return std::move(*P);
}

/// Key-static scalar s and array a step through the signed width
/// boundaries of 1, 2, 4 and 8 bytes; i is the key-static counter that
/// picks the values; pc is compared (dynamic on one path into Ret), so
/// the key has a head.
const char *wideFieldSource() {
  return R"(
    extern probe(int) : int;
    init val pc = 0;
    init val i = 0;
    init val s = 0;
    init val a = array(3){0};
    fun edge(k) {
      if (k == 0) return 0;
      if (k == 1) return 127;
      if (k == 2) return 0 - 128;
      if (k == 3) return 128;
      if (k == 4) return 0 - 129;
      if (k == 5) return 32767;
      if (k == 6) return 0 - 32767;
      if (k == 7) return 0 - 32768;
      if (k == 8) return 32768;
      if (k == 9) return 2147483647;
      if (k == 10) return 0 - 2147483648;
      if (k == 11) return 2147483648;
      if (k == 12) return 0 - 2147483649;
      if (k == 13) return 0x8000000000000000;
      return 0x7fffffffffffffff;
    }
    fun main() {
      s = edge(i);
      a[i % 3] = edge((i * 4 + 1) % 15);
      if (probe(pc) % 3 == 0) pc = probe(pc + 1) % 4;
      else pc = (pc + 1) % 4;
      i = (i + 1) % 15;
    }
  )";
}

/// A pure function of its argument.
int64_t probe(const int64_t *A, size_t) { return (A[0] * 7 + 3) % 11; }

isa::TargetImage emptyImage() { return *isa::assemble("main:\n halt\n"); }

/// The narrowest signed width holding \p V, by range compare.
unsigned widthOf(int64_t V) {
  if (V >= std::numeric_limits<int8_t>::min() &&
      V <= std::numeric_limits<int8_t>::max())
    return 1;
  if (V >= std::numeric_limits<int16_t>::min() &&
      V <= std::numeric_limits<int16_t>::max())
    return 2;
  if (V >= std::numeric_limits<int32_t>::min() &&
      V <= std::numeric_limits<int32_t>::max())
    return 4;
  return 8;
}

/// pc, i, s, a[0..2]: every global of the wide-field program.
std::vector<int64_t> wideState(const Simulation &Sim) {
  std::vector<int64_t> Out;
  for (const char *G : {"pc", "i", "s"})
    Out.push_back(Sim.getGlobal(G));
  for (uint32_t E = 0; E != 3; ++E)
    Out.push_back(Sim.getGlobalElem("a", E));
  return Out;
}

constexpr int WideSteps = 400;

Simulation::Options wideOptions(bool Memo, BackendKind Backend) {
  Simulation::Options Opts;
  Opts.Memoize = Memo;
  Opts.Backend = Backend;
  Opts.JitThreshold = 1;
  return Opts;
}

/// The state after each step (plus the memory digest at the end).
std::vector<std::vector<int64_t>> runWide(Simulation &Sim) {
  std::vector<std::vector<int64_t>> States;
  for (int I = 0; I != WideSteps; ++I) {
    EXPECT_NE(Sim.step(), StepEngine::Faulted) << "step " << I;
    States.push_back(wideState(Sim));
  }
  States.push_back({static_cast<int64_t>(Sim.memory().digest())});
  return States;
}

} // namespace

TEST(StepKeys, WideFieldsRoundTripOnEveryEngine) {
  CompiledProgram P = compileOk(wideFieldSource());
  for (const char *G : {"i", "s", "a"})
    ASSERT_TRUE(P.KeyStatic[P.GlobalIndex.at(G)]) << G;
  ASSERT_FALSE(P.KeyStatic[P.GlobalIndex.at("pc")]);
  isa::TargetImage Img = emptyImage();

  Simulation Ref(P, Img, wideOptions(false, BackendKind::Interpret));
  Ref.registerExtern("probe", probe);
  // Every state a step starts from, for checking the decoded keys below.
  std::set<std::vector<int64_t>> StartStates = {wideState(Ref)};
  const auto RefStates = runWide(Ref);
  for (size_t I = 0; I + 1 < RefStates.size(); ++I)
    StartStates.insert(RefStates[I]);

  for (BackendKind B : {BackendKind::Interpret, BackendKind::Jit}) {
    SCOPED_TRACE(backendKindName(B));
    Simulation NoMemo(P, Img, wideOptions(false, B));
    NoMemo.registerExtern("probe", probe);
    EXPECT_EQ(runWide(NoMemo), RefStates);

    Simulation Memo(P, Img, wideOptions(true, B));
    Memo.registerExtern("probe", probe);
    EXPECT_EQ(runWide(Memo), RefStates);
    EXPECT_GT(Memo.stats().FastSteps, WideSteps / 2u);

    // Cold = warm: the cache image this run recorded, loaded the way
    // FacileSim::loadCacheBytes loads it, replays to the same states.
    std::vector<uint8_t> Bytes =
        store::encodeImage(Memo.cache().compactImage(), Memo.compatKey());
    Simulation Warm(P, Img, wideOptions(true, B));
    Warm.registerExtern("probe", probe);
    ActionCache::BaseArenas View;
    std::string Err;
    ASSERT_EQ(store::parseImage(Bytes.data(), Bytes.size(), Warm.compatKey(),
                                Warm.actionCount(), View, Err),
              snapshot::LoadStatus::Ok)
        << Err;
    Warm.adoptCacheImage(store::ownedImage(View));
    EXPECT_EQ(runWide(Warm), RefStates);
    EXPECT_GT(Warm.stats().FastSteps, Memo.stats().FastSteps);
  }

  // Every interned key decodes, by the documented layout, to a state some
  // step started from; each field's width is the narrowest that holds its
  // widest word, so the key length follows it.
  Simulation Memo(P, Img, wideOptions(true, BackendKind::Interpret));
  Memo.registerExtern("probe", probe);
  runWide(Memo);
  const ActionCache &C = Memo.cache();
  ASSERT_GT(C.keyCount(), 15u);
  std::set<unsigned> WidthsSeen[2]; // s, a
  for (KeyId K = 0; K != C.keyCount(); ++K) {
    SCOPED_TRACE(K);
    const char *D = C.keyData(K);
    const size_t Len = C.keyLen(K);
    ASSERT_GE(Len, 8u);
    int64_t Pc;
    std::memcpy(&Pc, D, 8);
    size_t Pos = 8, Expect = 8;
    std::vector<int64_t> State = {Pc};
    for (uint32_t G : P.InitGlobals) {
      if (!P.KeyStatic[G])
        continue;
      const uint32_t Words = P.Globals[G].IsArray ? P.Globals[G].Size : 1;
      ASSERT_LT(Pos, Len);
      const unsigned W = static_cast<uint8_t>(D[Pos++]);
      ASSERT_TRUE(W == 1 || W == 2 || W == 4 || W == 8) << W;
      ASSERT_LE(Pos + Words * W, Len);
      unsigned Widest = 1;
      for (uint32_t I = 0; I != Words; ++I, Pos += W) {
        uint64_t U = 0;
        std::memcpy(&U, D + Pos, W);
        const unsigned Shift = 64 - 8 * W;
        const int64_t V = static_cast<int64_t>(U << Shift) >> Shift;
        Widest = std::max(Widest, widthOf(V));
        State.push_back(V);
      }
      EXPECT_EQ(W, Widest) << P.Globals[G].Name;
      Expect += 1 + Words * Widest;
      if (P.Globals[G].Name == "s")
        WidthsSeen[0].insert(W);
      if (P.Globals[G].Name == "a")
        WidthsSeen[1].insert(W);
    }
    EXPECT_EQ(Len, Expect);
    EXPECT_EQ(Pos, Len);
    // InitGlobals order is pc, i, s, a; wideState's is the same.
    EXPECT_TRUE(StartStates.count(State)) << "key decodes to no start state";
  }
  const std::set<unsigned> All = {1, 2, 4, 8};
  EXPECT_EQ(WidthsSeen[0], All);
  EXPECT_EQ(WidthsSeen[1], All);
}

namespace {

workload::WorkloadSpec testSpec() {
  workload::WorkloadSpec Spec = *workload::findSpec("compress");
  Spec.DataKWords = 2;
  return Spec;
}

constexpr uint64_t kBudget = 60'000;

/// How a malformed key is built from a well-formed ooo.fac key (every
/// ooo.fac field is at width 1, so the key is at the layout's minimum).
enum class Malform {
  IllegalWidth, ///< the first field's width byte is 3
  Truncated,    ///< the first field claims width 8: the key is too short
  Trailing,     ///< one byte appended after the last field
};

const char *malformName(Malform M) {
  switch (M) {
  case Malform::IllegalWidth:
    return "illegal-width";
  case Malform::Truncated:
    return "truncated";
  case Malform::Trailing:
    return "trailing";
  }
  return "?";
}

/// Rewrites key \p K of \p Img in place (same id, so every seal over it
/// stays valid): the new bytes go to the end of the pool and the record
/// takes their span and hash.
void malformKey(ActionCache::FlatImage &Img, KeyId K, Malform M,
                uint32_t HeadLen) {
  ActionCache::KeyRecord &R = Img.Keys[K];
  std::vector<char> Key(Img.KeyPool.begin() + R.Ofs,
                        Img.KeyPool.begin() + R.Ofs + R.Len);
  ASSERT_EQ(Key[HeadLen], 1) << "expected a width-1 first field";
  switch (M) {
  case Malform::IllegalWidth:
    Key[HeadLen] = 3;
    break;
  case Malform::Truncated:
    Key[HeadLen] = 8;
    break;
  case Malform::Trailing:
    Key.push_back(0);
    break;
  }
  R.Ofs = static_cast<uint32_t>(Img.KeyPool.size());
  R.Len = static_cast<uint32_t>(Key.size());
  R.Hash = hashKey(Key.data(), Key.size());
  Img.KeyPool.insert(Img.KeyPool.end(), Key.begin(), Key.end());
}

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

} // namespace

TEST(StepKeys, MalformedKeysFaultOrRunCold) {
  // A CRC-valid image whose key bytes are malformed passes the loader
  // (which knows no key layout); the runtime must then either raise
  // CacheCorrupt at the step that decodes the key or never use it — in
  // which case the run equals the cold reference exactly.
  using sims::FacileSim;
  using sims::SimKind;
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Builder(SimKind::OutOfOrder, Image);
  Builder.run(kBudget);
  ASSERT_FALSE(Builder.faulted());
  const ActionCache::FlatImage Base = Builder.sim().cache().compactImage();
  const uint64_t CK = Builder.sim().compatKey();

  FacileSim Cold(SimKind::OutOfOrder, Image);
  Cold.run(2 * kBudget);
  ASSERT_FALSE(Cold.faulted());
  const uint64_t ColdDigest = Cold.sim().memory().digest();

  // ooo.fac compares only PC: an 8-byte head.
  const CompiledProgram &P = sims::simulatorProgram(SimKind::OutOfOrder);
  uint32_t HeadLen = 0;
  for (uint32_t G : P.InitGlobals)
    if (!P.KeyStatic[G])
      HeadLen += 8 * (P.Globals[G].IsArray ? P.Globals[G].Size : 1);
  ASSERT_EQ(HeadLen, 8u);

  // The second step's key: the NextKey of the first End node recorded.
  KeyId Second = NoId;
  for (const ActionNode &N : Base.Nodes)
    if (N.K == ActionNode::Kind::End) {
      Second = N.NextKey;
      break;
    }
  ASSERT_NE(Second, NoId);
  ASSERT_NE(Base.KeyToEntry[Second], NoId);

  for (Malform M :
       {Malform::IllegalWidth, Malform::Truncated, Malform::Trailing}) {
    // Entry dropped: the chained step records cold, which decodes the
    // key it ended on. Entry kept: the key names a replayable entry and is
    // decoded only if a replay of it misses.
    for (bool DropEntry : {true, false}) {
      ActionCache::FlatImage Img = Base;
      malformKey(Img, Second, M, HeadLen);
      if (DropEntry)
        Img.KeyToEntry[Second] = NoId;
      const std::vector<uint8_t> Bytes = store::encodeImage(Img, CK);

      for (bool Mapped : {false, true}) {
        SCOPED_TRACE(std::string(malformName(M)) +
                     (DropEntry ? " next-key" : " entry-key") +
                     (Mapped ? " store" : " loadCacheBytes"));
        FacileSim Warm(SimKind::OutOfOrder, Image);
        std::string Err;
        const std::string Dir = ::testing::TempDir() + "facile_keys_" +
                                std::to_string(::getpid());
        if (Mapped) {
          removeTree(Dir);
          ::mkdir(Dir.c_str(), 0755);
          ASSERT_TRUE(snapshot::writeFileBytes(
              Dir + "/" + store::CacheStoreDir::fileName(CK, 1), Bytes, Err))
              << Err;
          store::CacheStoreDir Store(Dir);
          ASSERT_TRUE(Warm.attachStore(Store, &Err)) << Err;
        } else {
          ASSERT_TRUE(Warm.loadCacheBytes(Bytes, &Err)) << Err;
        }
        Warm.run(2 * kBudget);
        if (Warm.faulted()) {
          EXPECT_EQ(Warm.fault().Kind, FaultKind::CacheCorrupt);
          EXPECT_EQ(Warm.fault().Detail, "step key is malformed");
        } else {
          EXPECT_FALSE(DropEntry) << "the malformed key was never decoded";
          EXPECT_EQ(Warm.sim().memory().digest(), ColdDigest);
          EXPECT_EQ(Warm.sim().stats().Cycles, Cold.sim().stats().Cycles);
          EXPECT_EQ(Warm.sim().stats().RetiredTotal,
                    Cold.sim().stats().RetiredTotal);
        }
        removeTree(Dir);
      }
    }
  }
}
