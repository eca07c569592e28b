//===- JitArena.cpp - W^X executable-memory arena --------------------------===//

#include "src/jit/JitArena.h"

#include <algorithm>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define FACILE_JIT_HAVE_MMAP 1
#endif

using namespace facile;
using namespace facile::jit;

namespace {

#if FACILE_JIT_HAVE_MMAP
size_t pageSize() {
  static const size_t Page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return Page;
}

size_t pageRound(size_t Bytes) {
  const size_t Page = pageSize();
  return (Bytes + Page - 1) & ~(Page - 1);
}
#endif

size_t alignUnit(size_t Ofs) {
  return (Ofs + JitArena::UnitAlign - 1) & ~(JitArena::UnitAlign - 1);
}

} // namespace

JitArena::~JitArena() {
#if FACILE_JIT_HAVE_MMAP
  for (const Chunk &C : Chunks)
    ::munmap(C.Base, C.Size);
#endif
}

uint64_t JitArena::mappedBytesAfter(size_t Size) const {
#if FACILE_JIT_HAVE_MMAP
  if (L == Layout::PagePerUnit)
    return Mapped + pageRound(Size);
  if (!Chunks.empty() && alignUnit(Tail) + Size <= Chunks.back().Size)
    return Mapped;
  return Mapped + std::max(ChunkBytes, pageRound(Size));
#else
  (void)Size;
  return Mapped;
#endif
}

const uint8_t *JitArena::publish(const uint8_t *Code, size_t Size) {
#if FACILE_JIT_HAVE_MMAP
  if (Size == 0)
    return nullptr;
  if (L == Layout::Packed)
    return append(Code, Size);
  size_t Rounded = pageRound(Size);
  void *Base = ::mmap(nullptr, Rounded, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Base == MAP_FAILED)
    return nullptr;
  std::memcpy(Base, Code, Size);
  if (::mprotect(Base, Rounded, PROT_READ | PROT_EXEC) != 0) {
    ::munmap(Base, Rounded);
    return nullptr;
  }
  Chunks.push_back({static_cast<uint8_t *>(Base), Rounded});
  Mapped += Rounded;
  return static_cast<const uint8_t *>(Base);
#else
  (void)Code;
  (void)Size;
  return nullptr;
#endif
}

const uint8_t *JitArena::append(const uint8_t *Code, size_t Size) {
#if FACILE_JIT_HAVE_MMAP
  if (!Intact)
    return nullptr;
  size_t Ofs = alignUnit(Tail);
  if (Chunks.empty() || Ofs + Size > Chunks.back().Size) {
    // Fresh chunks start inaccessible; pages become RX as appends reach
    // them, so a jump past the last unit faults instead of running zeros.
    const size_t Bytes = std::max(ChunkBytes, pageRound(Size));
    void *Base = ::mmap(nullptr, Bytes, PROT_NONE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (Base == MAP_FAILED)
      return nullptr;
    Chunks.push_back({static_cast<uint8_t *>(Base), Bytes});
    Mapped += Bytes;
    Tail = Ofs = 0;
  }
  const Chunk &C = Chunks.back();
  const size_t Lo = Ofs & ~(pageSize() - 1);
  const size_t Len = pageRound(Ofs + Size) - Lo;
  uint8_t *Pages = C.Base + Lo;
  if (::mprotect(Pages, Len, PROT_READ | PROT_WRITE) != 0) {
    // The flip may have applied to part of the range: restore RX over all
    // of it before giving up on this unit.
    if (::mprotect(Pages, Len, PROT_READ | PROT_EXEC) != 0)
      Intact = false;
    return nullptr;
  }
  std::memcpy(C.Base + Ofs, Code, Size);
  if (::mprotect(Pages, Len, PROT_READ | PROT_EXEC) != 0) {
    Intact = false;
    return nullptr;
  }
  Tail = Ofs + Size;
  return C.Base + Ofs;
#else
  (void)Code;
  (void)Size;
  return nullptr;
#endif
}
