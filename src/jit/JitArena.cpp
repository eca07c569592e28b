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
  for (const Chunk &C : Chunks) {
    ::munmap(C.Exec, C.Size);
    if (C.Write)
      ::munmap(C.Write, C.Size);
  }
#endif
}

uint64_t JitArena::mappedBytesAfter(size_t Size) const {
#if FACILE_JIT_HAVE_MMAP
  if (!DualViews)
    return Mapped + pageRound(Size);
  if (!Chunks.empty() && Chunks.back().Write &&
      alignUnit(Tail) + Size <= Chunks.back().Size)
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
  size_t Ofs = alignUnit(Tail);
  if (DualViews && (Chunks.empty() || !Chunks.back().Write ||
                    Ofs + Size > Chunks.back().Size)) {
    if (newChunk(std::max(ChunkBytes, pageRound(Size))))
      Ofs = 0;
    else
      DualViews = false;
  }
  if (!DualViews)
    return publishUnit(Code, Size);
  const Chunk &C = Chunks.back();
  // The executable view of these pages may be running earlier units on
  // another thread; only bytes no published address reaches change.
  std::memcpy(C.Write + Ofs, Code, Size);
  Tail = Ofs + Size;
  return C.Exec + Ofs;
#else
  (void)Code;
  (void)Size;
  return nullptr;
#endif
}

/// Maps a fresh dual-view chunk of \p Bytes and retires the write view of
/// the previous one. False when the platform cannot share memory between
/// two views.
bool JitArena::newChunk(size_t Bytes) {
#if FACILE_JIT_HAVE_MMAP && defined(__linux__)
  const int Fd = ::memfd_create("facile-jit", MFD_CLOEXEC);
  if (Fd < 0)
    return false;
  void *W = MAP_FAILED, *X = MAP_FAILED;
  if (::ftruncate(Fd, static_cast<off_t>(Bytes)) == 0) {
    W = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE, MAP_SHARED, Fd, 0);
    X = ::mmap(nullptr, Bytes, PROT_READ | PROT_EXEC, MAP_SHARED, Fd, 0);
  }
  ::close(Fd); // the mappings keep the object alive
  if (W == MAP_FAILED || X == MAP_FAILED) {
    if (W != MAP_FAILED)
      ::munmap(W, Bytes);
    if (X != MAP_FAILED)
      ::munmap(X, Bytes);
    return false;
  }
  if (!Chunks.empty() && Chunks.back().Write) {
    ::munmap(Chunks.back().Write, Chunks.back().Size);
    Chunks.back().Write = nullptr;
  }
  Chunks.push_back(
      {static_cast<uint8_t *>(X), static_cast<uint8_t *>(W), Bytes});
  Mapped += Bytes;
  return true;
#else
  (void)Bytes;
  return false;
#endif
}

/// The fallback: one page-rounded private mapping per unit, filled while
/// read-write and flipped to read-execute before anyone can call it.
const uint8_t *JitArena::publishUnit(const uint8_t *Code, size_t Size) {
#if FACILE_JIT_HAVE_MMAP
  const size_t Rounded = pageRound(Size);
  void *Base = ::mmap(nullptr, Rounded, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Base == MAP_FAILED)
    return nullptr;
  std::memcpy(Base, Code, Size);
  if (::mprotect(Base, Rounded, PROT_READ | PROT_EXEC) != 0) {
    ::munmap(Base, Rounded);
    return nullptr;
  }
  Chunks.push_back({static_cast<uint8_t *>(Base), nullptr, Rounded});
  Mapped += Rounded;
  return static_cast<const uint8_t *>(Base);
#else
  (void)Code;
  (void)Size;
  return nullptr;
#endif
}
