//===- test_jit_arena.cpp - Packed code arena and the shape budget ---------===//
//
// Code units are appended into shared 64 KB chunks, each mapped twice: a
// write view and an execute view whose protection never changes. These
// tests publish many small stubs and hold the arena to its contract: each
// stub still returns its own value after later appends, even while
// another thread keeps calling it; no mapping of the process is ever
// writable and executable at once; the plan's shape budget counts mapped
// chunk bytes; and once it is spent no new shape compiles while entries
// of compiled shapes still bind.
//
//===----------------------------------------------------------------------===//

#include "src/facile/Compiler.h"
#include "src/isa/TargetImage.h"
#include "src/jit/JitArena.h"
#include "src/jit/JitEmitter.h"
#include "src/jit/JitTrace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <string>
#include <thread>
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
  JitArena A;
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

TEST(JitArena, PublishingNeverStopsRunningCode) {
  if (!available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  // One thread keeps calling the first stub while this one appends into
  // the same chunk and beyond: an execute view never changes protection,
  // so the caller never faults and never reads a wrong value.
  JitArena A;
  std::vector<uint8_t> First = stub(77, 40);
  const uint8_t *P = A.publish(First.data(), First.size());
  ASSERT_NE(P, nullptr);
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Calls{0}, Wrong{0};
  std::thread Runner([&] {
    while (!Done.load(std::memory_order_relaxed)) {
      if (call(P) != 77)
        Wrong.fetch_add(1, std::memory_order_relaxed);
      Calls.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<const uint8_t *> Fns;
  for (int32_t I = 0; I != 300; ++I) {
    std::vector<uint8_t> Code = stub(I, 500 + (I * 53) % 400);
    const uint8_t *Q = A.publish(Code.data(), Code.size());
    ASSERT_NE(Q, nullptr);
    Fns.push_back(Q);
  }
  while (Calls.load(std::memory_order_relaxed) < 1000)
    std::this_thread::yield();
  Done.store(true);
  Runner.join();
  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_GT(A.mappedBytes(), JitArena::ChunkBytes); // crossed chunks
  for (int32_t I = 0; I != 300; ++I)
    EXPECT_EQ(call(Fns[static_cast<size_t>(I)]), I);
}

TEST(JitTraceCache, BudgetCountsChunksAndPinsEntries) {
  if (!available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  // One-node shapes told apart by action id; the code is a stub returning
  // the shape's number, bound to an entry of the same number. The plan's
  // code cache holds the shapes and their budget, the session's trace
  // cache the bindings and pins.
  auto shapeOf = [](uint32_t I) {
    std::vector<TraceNodeDesc> Nodes(1);
    Nodes[0].ActionId = static_cast<int32_t>(I);
    Nodes[0].Kind = 2;
    return Nodes;
  };
  auto add = [](JitCache &J, const std::vector<TraceNodeDesc> &Nodes,
                const std::vector<uint8_t> &Code) {
    return J.addShape(Nodes, JitCache::shapeHash(Nodes), {}, Code, 0, 0);
  };
  auto find = [](JitCache &J, const std::vector<TraceNodeDesc> &Nodes) {
    // Every stub below emitted fine, so shape() only finds.
    bool Compiled = true;
    const TraceShape *S = J.shape(Nodes, JitCache::shapeHash(Nodes), Compiled);
    EXPECT_FALSE(Compiled);
    return S;
  };
  auto run = [](JitTraceCache::Bound B) { return B.S->Fn(nullptr, B.Table); };
  const CompiledProgram Prog;
  const rt::ExecPlan Plan;
  const isa::TargetImage Image;
  JitCache J(Prog, Plan, Image, JitRuntimeHooks());
  const TraceBind Bind;
  JitTraceCache C;
  uint32_t Published = 0;
  uint32_t Entry = 0;
  for (;; ++Entry) {
    ASSERT_TRUE(C.shouldCompile(Entry, 1, 0)) << "entry " << Entry;
    std::vector<uint8_t> Code = stub(static_cast<int32_t>(Entry), 700);
    const TraceShape *S = add(J, shapeOf(Entry), Code);
    if (!S) {
      C.noCompile(Entry);
      break;
    }
    C.bind(Entry, *S, &Bind, 0);
    ++Published;
    ASSERT_NE(C.find(Entry, 0).S, nullptr);
    ASSERT_LT(Published, 10'000u) << "budget never reached";
  }
  EXPECT_TRUE(J.shapeBudgetSpent());
  EXPECT_EQ(J.shapeCount(), Published);
  EXPECT_EQ(C.bindings(), Published);
  // The budget counts whole chunks and is reached exactly.
  EXPECT_EQ(J.traceCodeBytes(), JitCache::MaxCodeBytes);
  EXPECT_EQ(J.traceCodeBytes() % JitArena::ChunkBytes, 0u);
  // Packing: ~700 B shapes, not one 4 KB page each.
  EXPECT_GT(Published, JitCache::MaxCodeBytes / 1024);
  EXPECT_EQ(C.find(Entry, 0).S, nullptr);
  for (uint32_t E = 0; E != Published; ++E) {
    const JitTraceCache::Bound B = C.find(E, 0);
    ASSERT_NE(B.S, nullptr);
    EXPECT_EQ(run(B), static_cast<int64_t>(E));
    // Keyed by the full descriptor sequence; an equal shape is never
    // published twice.
    EXPECT_EQ(find(J, shapeOf(E)), B.S);
    EXPECT_EQ(add(J, shapeOf(E), stub(-1, 700)), B.S);
    std::vector<TraceNodeDesc> Longer = shapeOf(E);
    Longer[0].DataLen = 1;
    EXPECT_EQ(add(J, Longer, stub(-1, 700)), nullptr);
    // A moved epoch hides the binding until the entry re-binds.
    EXPECT_EQ(C.find(E, 1).S, nullptr);
  }
  // Spent: the refused entry stays pinned; a later candidate with a new
  // shape is refused and pinned too, while one whose shape is compiled
  // still binds.
  EXPECT_FALSE(C.shouldCompile(Entry, 1, 0));
  ASSERT_TRUE(C.shouldCompile(Entry + 1, 1, 0));
  EXPECT_EQ(add(J, shapeOf(Entry + 1), stub(0, 700)), nullptr);
  C.noCompile(Entry + 1);
  EXPECT_FALSE(C.shouldCompile(Entry + 1, 1, 0));
  ASSERT_TRUE(C.shouldCompile(Entry + 2, 1, 0));
  C.bind(Entry + 2, *find(J, shapeOf(7)), &Bind, 0);
  EXPECT_EQ(run(C.find(Entry + 2, 0)), 7);
  EXPECT_EQ(J.shapeCount(), Published);
  EXPECT_EQ(J.traceCodeBytes(), JitCache::MaxCodeBytes);

  // Dropping bindings (a cache rebuild) keeps every shape and its chunks;
  // entries trip afresh and re-bind without compiling. So does a second
  // session's trace cache over the same plan.
  C.dropBindings();
  EXPECT_EQ(C.find(3, 0).S, nullptr);
  EXPECT_EQ(J.traceCodeBytes(), JitCache::MaxCodeBytes);
  ASSERT_TRUE(C.shouldCompile(3, 1, 5));
  C.bind(3, *find(J, shapeOf(3)), &Bind, 5);
  EXPECT_EQ(run(C.find(3, 5)), 3);
  JitTraceCache Other;
  ASSERT_TRUE(Other.shouldCompile(9, 1, 0));
  Other.bind(9, *find(J, shapeOf(4)), &Bind, 0);
  EXPECT_EQ(run(Other.find(9, 0)), 4);
  EXPECT_EQ(J.shapeCount(), Published);
}
