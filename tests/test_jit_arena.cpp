//===- test_jit_arena.cpp - Packed trace arena and its budget --------------===//
//
// Trace shapes are appended into shared 64 KB chunks instead of a page
// each. Every append re-flips the tail page, so these tests publish many
// small stubs and hold the arena to its contract: each stub still returns
// its own value after later appends, no mapping of the process is ever
// writable and executable at once, codeBytes() reports the mapped chunk
// bytes, and once the trace budget is spent no new shape compiles while
// entries of compiled shapes still bind.
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
  JitTraceFn Fn =
      reinterpret_cast<JitTraceFn>(reinterpret_cast<uintptr_t>(Code));
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
    if (I % 16 == 0) {
      ASSERT_EQ(rwxMappings(), RwxBefore) << "after publish " << I;
    }
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
  // One-node shapes told apart by action id; the code is a stub returning
  // the shape's number, bound to an entry of the same number.
  auto shapeOf = [](uint32_t I) {
    std::vector<TraceNodeDesc> Nodes(1);
    Nodes[0].ActionId = static_cast<int32_t>(I);
    Nodes[0].Kind = 2;
    return Nodes;
  };
  auto run = [](JitTraceCache::Bound B) { return B.S->Fn(nullptr, B.Table); };
  const TraceBind Bind;
  JitTraceCache C;
  uint32_t Published = 0;
  uint32_t Entry = 0;
  for (;; ++Entry) {
    ASSERT_TRUE(C.shouldCompile(Entry, 1, 0)) << "entry " << Entry;
    std::vector<uint8_t> Code = stub(static_cast<int32_t>(Entry), 700);
    const JitTraceCache::Shape *S = C.addShape(shapeOf(Entry), {}, Code, 0);
    if (!S) {
      C.noCompile(Entry);
      break;
    }
    C.bind(Entry, *S, &Bind, 0);
    ++Published;
    ASSERT_NE(C.find(Entry, 0).S, nullptr);
    ASSERT_LT(Published, 10'000u) << "budget never reached";
  }
  EXPECT_TRUE(C.budgetSpent());
  EXPECT_EQ(C.compiledTraces(), Published);
  EXPECT_EQ(C.bindings(), Published);
  // The budget counts whole chunks and is reached exactly.
  EXPECT_EQ(C.codeBytes(), JitTraceCache::MaxCodeBytes);
  EXPECT_EQ(C.codeBytes() % JitArena::ChunkBytes, 0u);
  // Packing: ~700 B shapes, not one 4 KB page each.
  EXPECT_GT(Published, JitTraceCache::MaxCodeBytes / 1024);
  EXPECT_EQ(C.find(Entry, 0).S, nullptr);
  for (uint32_t E = 0; E != Published; ++E) {
    const JitTraceCache::Bound B = C.find(E, 0);
    ASSERT_NE(B.S, nullptr);
    EXPECT_EQ(run(B), static_cast<int64_t>(E));
    // Keyed by the full descriptor sequence.
    EXPECT_EQ(C.findShape(shapeOf(E)), B.S);
    std::vector<TraceNodeDesc> Longer = shapeOf(E);
    Longer[0].DataLen = 1;
    EXPECT_EQ(C.findShape(Longer), nullptr);
    // A moved epoch hides the binding until the entry re-binds.
    EXPECT_EQ(C.find(E, 1).S, nullptr);
  }
  // Spent: the refused entry stays pinned; a later candidate with a new
  // shape is refused and pinned too, while one whose shape is compiled
  // still binds.
  EXPECT_FALSE(C.shouldCompile(Entry, 1, 0));
  ASSERT_TRUE(C.shouldCompile(Entry + 1, 1, 0));
  EXPECT_EQ(C.addShape(shapeOf(Entry + 1), {}, stub(0, 700), 0), nullptr);
  C.noCompile(Entry + 1);
  EXPECT_FALSE(C.shouldCompile(Entry + 1, 1, 0));
  ASSERT_TRUE(C.shouldCompile(Entry + 2, 1, 0));
  C.bind(Entry + 2, *C.findShape(shapeOf(7)), &Bind, 0);
  EXPECT_EQ(run(C.find(Entry + 2, 0)), 7);
  EXPECT_EQ(C.compiledTraces(), Published);
  EXPECT_EQ(C.codeBytes(), JitTraceCache::MaxCodeBytes);

  // Dropping bindings (a cache rebuild) keeps every shape and its chunks;
  // entries trip afresh and re-bind without compiling.
  C.dropBindings();
  EXPECT_EQ(C.find(3, 0).S, nullptr);
  EXPECT_EQ(C.codeBytes(), JitTraceCache::MaxCodeBytes);
  ASSERT_TRUE(C.shouldCompile(3, 1, 5));
  C.bind(3, *C.findShape(shapeOf(3)), &Bind, 5);
  EXPECT_EQ(run(C.find(3, 5)), 3);
  EXPECT_EQ(C.compiledTraces(), Published);
}
