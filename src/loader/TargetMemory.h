//===- TargetMemory.h - Sparse simulated memory -----------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sparse, paged memory for the simulated target. One instance holds the
/// functional (architectural) memory state of a running program. All
/// simulators — the Facile-generated ones, the hand-coded FastSim analogue
/// and the SimpleScalar-like baseline — share this implementation so their
/// architectural results are directly comparable.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_LOADER_TARGETMEMORY_H
#define FACILE_LOADER_TARGETMEMORY_H

#include "src/isa/TargetImage.h"

#include <cstdint>
#include <memory>
#include <unordered_map>

namespace facile {

namespace snapshot {
class Writer;
class Reader;
} // namespace snapshot

/// Byte-addressable sparse memory. Pages are allocated on first touch and
/// zero-initialised; reads of untouched memory return zero, matching a
/// freshly mmapped BSS.
class TargetMemory {
public:
  static constexpr uint32_t PageBits = 12;
  static constexpr uint32_t PageSize = 1u << PageBits;

  TargetMemory() = default;

  /// Copies the image's text and data segments into memory. Text is also
  /// kept readable so that self-inspecting code and the fetch path agree.
  void loadImage(const isa::TargetImage &Image);

  uint8_t read8(uint32_t Addr) const;
  void write8(uint32_t Addr, uint8_t Value);

  /// 32-bit accesses are little-endian and need not be aligned.
  uint32_t read32(uint32_t Addr) const;
  void write32(uint32_t Addr, uint32_t Value);

  /// Number of resident pages (for footprint reporting).
  size_t residentPages() const { return Pages.size(); }

  /// Caps the number of resident pages. A wild store pattern in the target
  /// (e.g. a corrupted pointer walking the whole 4 GB address space) would
  /// otherwise allocate host memory without bound. 0 means unlimited.
  /// Writes that would allocate past the budget are dropped and latch
  /// budgetExceeded(); the simulation owner turns that into a
  /// MemoryBudgetExceeded fault.
  void setPageBudget(size_t MaxPages) {
    PageBudget = MaxPages == 0 ? SIZE_MAX : MaxPages;
  }
  size_t pageBudget() const { return PageBudget == SIZE_MAX ? 0 : PageBudget; }
  /// Sticky: latched by the first dropped write, cleared explicitly.
  bool budgetExceeded() const { return BudgetHit; }
  /// Where budgetExceeded() reads from, for native code that checks it.
  const bool *budgetLatch() const { return &BudgetHit; }
  void clearBudgetExceeded() { BudgetHit = false; }

  /// FNV digest of the logical memory contents: non-zero pages hashed in
  /// ascending address order. All-zero pages are skipped so two memories
  /// with the same contents digest equal regardless of which untouched
  /// pages happen to be resident (differential-test oracle).
  uint64_t digest() const;

  /// Checkpoint hook: writes the non-zero pages in ascending address
  /// order. All-zero pages are skipped (same normalization as digest()),
  /// so a reloaded memory digests equal to its source.
  void serialize(snapshot::Writer &W) const;

  /// Checkpoint hook: replaces the current contents with the serialized
  /// pages. Returns false — leaving this memory untouched — on short,
  /// corrupt or structurally invalid input.
  bool deserialize(snapshot::Reader &R);

private:
  const uint8_t *pageFor(uint32_t Addr) const;
  uint8_t *pageForWrite(uint32_t Addr);

  mutable std::unordered_map<uint32_t, std::unique_ptr<uint8_t[]>> Pages;
  size_t PageBudget = SIZE_MAX;
  bool BudgetHit = false;
};

} // namespace facile

#endif // FACILE_LOADER_TARGETMEMORY_H
