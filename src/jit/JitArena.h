//===- JitArena.h - W^X executable-memory arena -----------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executable memory for compiled code under a strict W^X discipline: no
/// mapping is ever writable and executable at once, and a mapping that
/// holds published code never changes protection again, so publishing
/// never disturbs code another thread may be running.
///
/// Units are appended 16-byte aligned into 64 KB chunks. Each chunk is one
/// anonymous shared-memory object mapped twice: a read-write view the
/// arena copies code into and a read-execute view the code runs from.
/// Packing matters because a trace shape averages well under 1 KB: one
/// page each spent ~80 % of the trace budget on page rounding, and a
/// shape-diverse program (575 shapes on m88ksim) would not fit its budget
/// at all. The write view of a chunk is unmapped once a later chunk takes
/// over, so only the tail chunk is mapped twice.
///
/// Where the platform has no anonymous shared memory (or creating it
/// fails), each unit falls back to a page-rounded private mapping filled
/// read-write and flipped to read-execute before its address is returned.
///
/// The arena is not synchronized; its owner (jit::JitCache) publishes
/// under its own mutex.
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
  /// Chunk size and unit alignment.
  static constexpr size_t ChunkBytes = 64u << 10;
  static constexpr size_t UnitAlign = 16;

  JitArena() = default;
  ~JitArena();
  JitArena(const JitArena &) = delete;
  JitArena &operator=(const JitArena &) = delete;

  /// Copies \p Size bytes of machine code into the arena and returns its
  /// executable address, or null when the platform has no executable
  /// memory (or mapping failed) — the caller treats that as "cannot
  /// compile", never as an error. Code published earlier stays valid
  /// either way.
  const uint8_t *publish(const uint8_t *Code, size_t Size);

  /// What mappedBytes() would read after publishing \p Size bytes, so a
  /// caller can hold a budget before committing to a new chunk.
  uint64_t mappedBytesAfter(size_t Size) const;

  /// Total bytes of executable memory held: whole chunks, plus
  /// page-rounded units on the fallback path.
  uint64_t mappedBytes() const { return Mapped; }

private:
  const uint8_t *publishUnit(const uint8_t *Code, size_t Size);
  bool newChunk(size_t Bytes);

  struct Chunk {
    uint8_t *Exec;  ///< read-execute view
    uint8_t *Write; ///< read-write view; null once retired or unit-mapped
    size_t Size;
  };
  std::vector<Chunk> Chunks;
  size_t Tail = 0; ///< bytes used in the current (write-mapped) chunk
  uint64_t Mapped = 0;
  bool DualViews = true; ///< false once shared memory proved unavailable
};

} // namespace jit
} // namespace facile

#endif // FACILE_JIT_JITARENA_H
