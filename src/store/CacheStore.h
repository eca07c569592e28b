//===- CacheStore.h - Content-addressed, mmap-shared cache store -*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed on-disk store of sealed action caches, designed to
/// be memory-mapped read-only and shared by any number of processes and
/// sessions. The action cache is relocatable by construction (every link
/// is an arena index — see ActionCache.h), so a store file is simply the
/// arenas in their in-memory layout inside a snapshot container
/// (Snapshot.h): mapping one costs no deserialization, no rehash and no
/// per-session copies of the node, seal, data or key arenas. Each consumer
/// layers a private copy-on-write overlay (ActionCache::attachBase) over
/// the mapping; the base is never written.
///
/// A *cache image* is an ActionCache-kind container with the sections
/// listed below, in order. It is both what a store file holds and what
/// FacileSim::cacheBytes() returns, so a saved cache snapshot is a valid
/// store file and vice versa. parseImage() is the one validator for both:
/// container checks first, then the structural rules replay relies on
/// (links, spans, key spans, key→entry consistency, recomputed key hashes,
/// and the persisted probe table: power-of-two size, every key findable
/// from its home slot). Any failure is a diagnosed cold start, never UB.
///
/// Files are keyed by Simulation::compatKey() — the hash binding a cache
/// to the exact compiled program, options, ISA revision and target image —
/// and carry a monotonically increasing *generation* in their name:
/// promoting a session's warmed cache writes the next generation beside
/// the old one (published with link(), which never replaces an existing
/// name), so live mappings of earlier generations stay valid.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_STORE_CACHESTORE_H
#define FACILE_STORE_CACHESTORE_H

#include "src/runtime/ActionCache.h"
#include "src/snapshot/Snapshot.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace facile {
namespace store {

/// Cache image section tags (ASCII fourcc), in file order.
inline constexpr uint32_t SecTick = 0x4b434954u;       // "TICK"
inline constexpr uint32_t SecNodes = 0x45444f4eu;      // "NODE"
inline constexpr uint32_t SecSeals = 0x4c414553u;      // "SEAL"
inline constexpr uint32_t SecData = 0x41544144u;       // "DATA"
inline constexpr uint32_t SecKeyPool = 0x4c4f504bu;    // "KPOL"
inline constexpr uint32_t SecKeyRecs = 0x4345524bu;    // "KREC"
inline constexpr uint32_t SecKeyToEntry = 0x0045324bu; // "K2E\0"
inline constexpr uint32_t SecEntries = 0x52544e45u;    // "ENTR"
inline constexpr uint32_t SecKeyTable = 0x4241544bu;   // "KTAB"

/// Encodes \p Img as a cache image bound to \p CompatKey. Equal images
/// encode to identical bytes.
std::vector<uint8_t> encodeImage(const rt::ActionCache::FlatImage &Img,
                                 uint64_t CompatKey);

/// Validates the cache image in [\p Data, \p Data + \p Len) for a
/// consumer with \p CompatKey and \p NumActions actions, and on success
/// points \p Out at its arenas (views into \p Data, which must be 8-byte
/// aligned and outlive them). On failure \p Out is unspecified and \p Err
/// says why.
snapshot::LoadStatus parseImage(const uint8_t *Data, size_t Len,
                                uint64_t CompatKey, uint32_t NumActions,
                                rt::ActionCache::BaseArenas &Out,
                                std::string &Err);

/// An owned copy of the arenas \p A views, for ActionCache::adoptImage.
rt::ActionCache::FlatImage ownedImage(const rt::ActionCache::BaseArenas &A);

/// One validated, read-only mapping of a store file. Immutable and
/// thread-safe after open; shared as std::shared_ptr<const StoreMap> so a
/// mapping outlives every cache attached over it (the shared_ptr doubles
/// as the ActionCache keepalive). The destructor unmaps.
class StoreMap {
public:
  StoreMap(const StoreMap &) = delete;
  StoreMap &operator=(const StoreMap &) = delete;
  ~StoreMap();

  /// Maps \p Path and validates it with parseImage(). \p CompatKey and
  /// \p NumActions are the consumer's — mismatch is a rejection, not a
  /// fault. Returns null with \p Err set on any failure.
  static std::shared_ptr<const StoreMap> open(const std::string &Path,
                                              uint64_t CompatKey,
                                              uint32_t NumActions,
                                              std::string &Err);

  /// A base-layer view into the mapping, ready for
  /// ActionCache::attachBase. Valid for this StoreMap's lifetime.
  const rt::ActionCache::BaseArenas &arenas() const { return Arenas; }

  uint64_t compatKey() const { return CompatKeyV; }
  /// The generation in the file name (0 when it is not a store name).
  uint64_t generation() const { return GenerationV; }
  uint32_t numActions() const { return NumActionsV; }
  /// The mapped extent — what N sessions share instead of N copies.
  size_t mappedBytes() const { return MapLen; }

private:
  StoreMap() = default;

  void *Map = nullptr;
  size_t MapLen = 0;
  uint64_t CompatKeyV = 0;
  uint64_t GenerationV = 0;
  uint32_t NumActionsV = 0;
  rt::ActionCache::BaseArenas Arenas;
};

/// A directory of store files, one per (compat key, generation). The
/// handle caches live mappings by file name, so every lookup of the same
/// generation — across all sessions of a process — shares one StoreMap.
/// Thread-safe.
class CacheStoreDir {
public:
  explicit CacheStoreDir(std::string Dir) : Dir(std::move(Dir)) {}

  const std::string &path() const { return Dir; }

  /// The store file name for (\p CompatKey, \p Generation).
  static std::string fileName(uint64_t CompatKey, uint64_t Generation);

  /// Maps the highest-generation store file for \p CompatKey. A clean
  /// miss (no file) returns null with \p Err empty; a validation or I/O
  /// failure returns null with \p Err set.
  std::shared_ptr<const StoreMap> lookup(uint64_t CompatKey,
                                         uint32_t NumActions,
                                         std::string *Err = nullptr);

  /// Writes \p Img as the next generation for \p CompatKey (one past the
  /// highest present; 1 when none). Existing mappings are untouched —
  /// promotion is additive. Creates the directory if needed. Concurrent
  /// promotes of one key, from threads or processes, get distinct
  /// generations: a file is published with link(), never over another.
  /// On success *\p OutGeneration (when non-null) receives the new
  /// generation.
  bool promote(const rt::ActionCache::FlatImage &Img, uint64_t CompatKey,
               uint64_t *OutGeneration, std::string *Err);

  /// Number of distinct live mappings held through this handle — the "N
  /// sessions, one mapping" observability hook (expired cache slots are
  /// pruned first).
  size_t mappedCount() const;

  /// Generation GC: unlinks every store file that is not among the newest
  /// \p KeepPerKey generations of its compat key. POSIX unlink semantics
  /// make this safe while any generation — including an unlinked one — is
  /// mapped: the pages stay valid until the last mapping drops. Returns
  /// the number of files unlinked; \p KeepPerKey of 0 is treated as 1
  /// (never delete the newest generation).
  size_t gc(size_t KeepPerKey, std::string *Err = nullptr);

private:
  uint64_t latestGeneration(uint64_t CompatKey) const;

  std::string Dir;
  mutable std::mutex Mu;
  /// file name -> mapping; weak so an unused generation can unmap.
  mutable std::map<std::string, std::weak_ptr<const StoreMap>> Maps;
};

} // namespace store
} // namespace facile

#endif // FACILE_STORE_CACHESTORE_H
