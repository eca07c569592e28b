//===- test_jit_arena.cpp - Packed trace arena and its budget --------------===//
//
// Entry traces are appended into shared 64 KB chunks instead of a page
// each. Every append re-flips the tail page, so these tests publish many
// small stubs and hold the arena to its contract: each stub still returns
// its own value after later appends, no mapping of the process is ever
// writable and executable at once, codeBytes() reports the mapped chunk
// bytes, and the trace budget pins entries to the interpreter once spent.
//
//===----------------------------------------------------------------------===//

#include "src/jit/JitArena.h"
#include "src/jit/JitEmitter.h"
#include "src/jit/JitTrace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

using namespace facile;
using namespace facile::jit;

namespace {

/// x86-64 code returning \p Value, padded with \p Pad leading nops so
/// stubs straddle page boundaries.
std::vector<uint8_t> stub(int32_t Value, size_t Pad) {
  std::vector<uint8_t> Code(Pad, 0x90);
  const uint8_t MovRax[] = {0x48, 0xC7, 0xC0}; // mov rax, imm32
  Code.insert(Code.end(), MovRax, MovRax + 3);
  for (int B = 0; B != 4; ++B)
    Code.push_back(static_cast<uint8_t>(static_cast<uint32_t>(Value) >> (8 * B)));
  Code.push_back(0xC3); // ret
  return Code;
}

int64_t call(const uint8_t *Code) {
  JitFn Fn = reinterpret_cast<JitFn>(reinterpret_cast<uintptr_t>(Code));
  return Fn(nullptr, nullptr);
}

/// Counts mappings of this process that are writable and executable.
unsigned rwxMappings() {
  std::ifstream Maps("/proc/self/maps");
  std::string Range, Perms, Rest;
  unsigned N = 0;
  while (Maps >> Range >> Perms && std::getline(Maps, Rest))
    if (Perms.size() >= 3 && Perms[1] == 'w' && Perms[2] == 'x')
      ++N;
  return N;
}

} // namespace

TEST(JitArena, PackedUnitsShareChunksAndStayCallable) {
  if (!available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  const unsigned RwxBefore = rwxMappings();
  JitArena A(JitArena::Layout::Packed);
  std::vector<const uint8_t *> Fns;
  uint64_t Bytes = 0;
  for (int32_t I = 0; I != 400; ++I) {
    // 600-900 B, like typical traces, so appends cross page boundaries.
    std::vector<uint8_t> Code = stub(I * 7 - 100, 600 + (I * 37) % 300);
    const uint64_t Expected = A.mappedBytesAfter(Code.size());
    const uint8_t *P = A.publish(Code.data(), Code.size());
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % JitArena::UnitAlign, 0u);
    EXPECT_EQ(A.mappedBytes(), Expected);
    Bytes += Code.size();
    Fns.push_back(P);
    if (I % 16 == 0)
      ASSERT_EQ(rwxMappings(), RwxBefore) << "after publish " << I;
  }
  EXPECT_EQ(rwxMappings(), RwxBefore);
  EXPECT_TRUE(A.intact());
  // Packed: whole chunks, far fewer bytes than a page per unit.
  EXPECT_EQ(A.mappedBytes() % JitArena::ChunkBytes, 0u);
  EXPECT_LT(A.mappedBytes(), Bytes + JitArena::ChunkBytes);
  for (int32_t I = 0; I != 400; ++I)
    EXPECT_EQ(call(Fns[static_cast<size_t>(I)]), I * 7 - 100);

  // A unit larger than a chunk gets a chunk of its own, rounded to pages.
  std::vector<uint8_t> Big = stub(4242, JitArena::ChunkBytes + 100);
  const uint8_t *P = A.publish(Big.data(), Big.size());
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(call(P), 4242);
  EXPECT_EQ(call(Fns.back()), 399 * 7 - 100);
  EXPECT_EQ(rwxMappings(), RwxBefore);
}

TEST(JitArena, PagePerUnitRoundsEachUnit) {
  if (!available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  JitArena A;
  std::vector<uint8_t> Code = stub(9, 100);
  const uint8_t *P = A.publish(Code.data(), Code.size());
  ASSERT_NE(P, nullptr);
  const uint64_t Page = A.mappedBytes();
  EXPECT_GE(Page, Code.size());
  const uint8_t *Q = A.publish(Code.data(), Code.size());
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(A.mappedBytes(), 2 * Page);
  EXPECT_EQ(call(P), 9);
  EXPECT_EQ(call(Q), 9);
}

TEST(JitTraceCache, BudgetCountsChunksAndPinsEntries) {
  if (!available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  JitTraceCache C;
  std::vector<std::vector<uint8_t>> Codes;
  uint32_t Published = 0;
  uint32_t Entry = 0;
  for (;; ++Entry) {
    ASSERT_TRUE(C.shouldCompile(Entry, 1, 0)) << "entry " << Entry;
    std::vector<uint8_t> Code = stub(static_cast<int32_t>(Entry), 700);
    if (!C.publish(Entry, JitTraceCache::Trace(), Code))
      break;
    ++Published;
    // Every published trace is found and still returns its own value.
    ASSERT_NE(C.find(Entry, 0), nullptr);
    ASSERT_LT(Published, 10'000u) << "budget never reached";
  }
  EXPECT_EQ(C.compiledTraces(), Published);
  // The budget counts whole chunks and is reached exactly.
  EXPECT_EQ(C.codeBytes(), JitTraceCache::MaxCodeBytes);
  EXPECT_EQ(C.codeBytes() % JitArena::ChunkBytes, 0u);
  // Packing: ~700 B traces, not one 4 KB page each.
  EXPECT_GT(Published, JitTraceCache::MaxCodeBytes / 1024);
  EXPECT_EQ(C.find(Entry, 0), nullptr);
  for (uint32_t E = 0; E != Published; ++E) {
    JitTraceCache::Trace *T = C.find(E, 0);
    ASSERT_NE(T, nullptr);
    EXPECT_EQ(T->Fn(nullptr, nullptr), static_cast<int64_t>(E));
  }
  // Spent: fresh entries and the refused one are pinned to the interpreter.
  EXPECT_FALSE(C.shouldCompile(Entry, 1, 0));
  EXPECT_FALSE(C.shouldCompile(Entry + 1, 1, 0));
  EXPECT_FALSE(C.shouldCompile(Entry + 1, 1, 0));
  EXPECT_EQ(C.compiledTraces(), Published);

  // A reset (arena rebuild) frees the chunks and restores the budget.
  C.reset();
  EXPECT_EQ(C.codeBytes(), 0u);
  EXPECT_TRUE(C.shouldCompile(Entry + 1, 1, 0));
}
