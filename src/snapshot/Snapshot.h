//===- Snapshot.h - Versioned, checksummed snapshot container ---*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one on-disk container for persisted simulation state. The paper's
/// whole premise is that simulation work is redundant; persisting the
/// action cache and full simulation checkpoints extends that memoization
/// from intra-run to inter-run, so a process can warm-start instead of
/// paying slow-simulator warmup again.
///
/// One container holds one payload kind:
///
///  - **Checkpoint** — complete dynamic simulation state (target memory,
///    globals/arrays/slots, cycle and retired counters, extern-unit state)
///    so a run can stop and resume bit-identically;
///  - **ActionCache** — a cache image: the flat arenas of rt::ActionCache
///    (src/store/CacheStore.h lists the sections). A cache snapshot and a
///    shared store file are the same bytes.
///
/// Layout (host-endian: a file is read back on hosts of the byte order
/// that wrote it):
///
///   header (32 B):  magic (8) | format version u32 | payload kind u32
///                   | compat key u64 | section count u32 | table CRC-32 u32
///   section table:  per section (24 B) tag u32 | payload CRC-32 u32
///                   | file offset u64 | byte length u64
///   sections:       payloads in table order, each at the first 8-aligned
///                   offset after the previous one, zero padding between
///
/// Every byte is checked: the table CRC covers the header's first 28
/// bytes and the whole section table, each payload has its own CRC, the
/// padding must be zero, and the file ends exactly where the last section
/// does. Section offsets are canonical (fully determined by the lengths),
/// so a parse can hand out aligned views into the input and copy nothing:
/// the store maps a file and replays straight out of the mapping.
///
/// The compat key binds a payload to the exact producer configuration — a
/// hash of the compiled program's ExecPlan fingerprint, the ISA revision,
/// Simulation::Options and the target image digest (Simulation::compatKey).
/// Readers reject on any mismatch, and every parse error is a clean,
/// diagnosable failure — mismatch and corruption degrade to a cold start,
/// never an abort or UB.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_SNAPSHOT_SNAPSHOT_H
#define FACILE_SNAPSHOT_SNAPSHOT_H

#include "src/snapshot/Serializer.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace facile {
namespace snapshot {

/// The container magic: the first 8 file bytes, and the "format" the
/// server reports for snapshot payloads.
inline constexpr std::string_view Magic = "FACSNAP3";

/// Bumped whenever the container or any payload layout changes, the key
/// hash or the seal derivation included. Version 4: checkpoints and cache
/// images share this container (versions up to 3 were two formats).
inline constexpr uint32_t FormatVersion = 4;

/// What a container holds.
enum class PayloadKind : uint32_t {
  Checkpoint = 1,  ///< full dynamic simulation state
  ActionCache = 2, ///< cache image for warm-start replay and the store
};

/// Checkpoint section tags (ASCII fourcc, little-endian in the table).
inline constexpr uint32_t SecSimState = 0x4d495353u;  // "SSIM"
inline constexpr uint32_t SecMemory = 0x4d454d53u;    // "SMEM"
inline constexpr uint32_t SecBranchUnit = 0x55504253u; // "SBPU"
inline constexpr uint32_t SecMemHier = 0x52484d53u;   // "SMHR"

/// One payload to write: \p Len bytes at \p Data under \p Tag.
struct Section {
  uint32_t Tag = 0;
  const void *Data = nullptr;
  size_t Len = 0;
};

/// One parsed payload: a view into the container bytes, 8-byte aligned.
struct SectionView {
  const uint8_t *Data = nullptr;
  size_t Len = 0;
};

/// Why a load failed (Ok means it did not).
enum class LoadStatus {
  Ok,
  BadFormat,      ///< not a snapshot, wrong version, or wrong payload kind
  CompatMismatch, ///< valid container produced under a different config
  Corrupt,        ///< truncated, CRC mismatch, or inconsistent framing
};

/// Serializes \p Sections, in order, into one container image.
std::vector<uint8_t> buildContainer(PayloadKind Kind, uint64_t CompatKey,
                                    const std::vector<Section> &Sections);

/// Parses a container image whose sections must be exactly \p Tags, in
/// order. Verifies magic, version, table CRC, kind, compat key, framing,
/// padding and every section CRC before filling \p Out[I] with a view of
/// section I; the views point into \p Data, which must be 8-byte aligned.
/// On failure \p Out is untouched and \p Err describes the problem.
LoadStatus parseContainer(const uint8_t *Data, size_t Len, PayloadKind Kind,
                          uint64_t CompatKey, const uint32_t *Tags,
                          size_t NumTags, SectionView *Out, std::string &Err);

/// Writes \p Bytes to a fresh temporary file next to \p Path, named for
/// this process and call so concurrent writers never share one, and
/// returns its path in \p Tmp. Returns false with \p Err set (and nothing
/// left behind) on I/O failure.
bool writeTempFile(const std::string &Path, const std::vector<uint8_t> &Bytes,
                   std::string &Tmp, std::string &Err);

/// Writes \p Bytes to \p Path atomically: to a temporary file
/// (writeTempFile), then renamed over \p Path, so a reader sees the old
/// file or the complete new one. Returns false with \p Err set on I/O
/// failure.
bool writeFileBytes(const std::string &Path, const std::vector<uint8_t> &Bytes,
                    std::string &Err);

/// Reads the whole file at \p Path. Returns false with \p Err set when the
/// file cannot be opened or read.
bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Out,
                   std::string &Err);

} // namespace snapshot
} // namespace facile

#endif // FACILE_SNAPSHOT_SNAPSHOT_H
