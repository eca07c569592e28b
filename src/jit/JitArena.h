//===- JitArena.h - W^X executable-memory arena -----------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executable memory for compiled code under a strict W^X discipline: no
/// page is ever writable and executable at once. Two layouts serve the two
/// JIT tiers:
///
///  - PagePerUnit (the per-plan JitCache, shared across threads): each
///    published unit gets its own page-rounded mmap, filled while the
///    mapping is read-write and mprotect-flipped to read-execute before the
///    entry pointer is ever published. Units are never flipped back, reused
///    or freed until arena destruction, so a page that other threads may be
///    executing is never writable again — publication is a single
///    release-store of the function pointer done by the caller.
///  - Packed (the per-session JitTraceCache's trace shapes): units are
///    appended 16-byte aligned into 64 KB chunks. An append flips only the
///    page(s) it touches read-write, copies, and flips them back to
///    read-execute, so earlier code sharing the tail page is briefly not
///    executable. That is legal only because the owner is single-threaded
///    and never appends while its own code is mid-flight. Packing matters
///    because a trace averages well under 1 KB: one page each spent ~80 %
///    of the budget on page rounding.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_JIT_JITARENA_H
#define FACILE_JIT_JITARENA_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace facile {
namespace jit {

class JitArena {
public:
  enum class Layout : uint8_t { PagePerUnit, Packed };

  /// Packed chunk size and unit alignment.
  static constexpr size_t ChunkBytes = 64u << 10;
  static constexpr size_t UnitAlign = 16;

  explicit JitArena(Layout L = Layout::PagePerUnit) : L(L) {}
  ~JitArena();
  JitArena(const JitArena &) = delete;
  JitArena &operator=(const JitArena &) = delete;

  /// Copies \p Size bytes of machine code into the arena and returns its
  /// executable address, or null when the platform has no executable
  /// memory (or mapping failed) — the caller treats that as "cannot
  /// compile", never as an error. A Packed arena that returned null may
  /// have left earlier code unexecutable (see intact()).
  const uint8_t *publish(const uint8_t *Code, size_t Size);

  /// What mappedBytes() would read after publishing \p Size bytes, so a
  /// caller can hold a budget before committing to a new chunk.
  uint64_t mappedBytesAfter(size_t Size) const;

  /// Total bytes of executable memory held: page-rounded units, or whole
  /// chunks when Packed.
  uint64_t mappedBytes() const { return Mapped; }

  /// False once a Packed append failed to flip its pages back to
  /// read-execute: code published earlier must not run again.
  bool intact() const { return Intact; }

private:
  const uint8_t *append(const uint8_t *Code, size_t Size);

  struct Chunk {
    uint8_t *Base;
    size_t Size;
  };
  std::vector<Chunk> Chunks;
  size_t Tail = 0; ///< Packed: bytes used in Chunks.back()
  uint64_t Mapped = 0;
  Layout L;
  bool Intact = true;
};

} // namespace jit
} // namespace facile

#endif // FACILE_JIT_JITARENA_H
