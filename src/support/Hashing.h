//===- Hashing.h - Deterministic hashing utilities --------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic hashes, kept independent of std::hash so that digests and
/// cache statistics are reproducible across standard libraries. Two
/// families with different jobs:
///
///  - hashBytes/hashCombine (FNV-1a, one dependent multiply per byte) for
///    digests and compatibility keys: memory digests, Simulation::compatKey,
///    node seals, FastSim's pipeline-state key. Their values are part of the
///    bit-identical contract and must never change.
///  - hashKey (xxHash64, four independent 64-bit lanes) for the action
///    cache's key tables, where one ~1.5 KB step key is hashed per recorded
///    step. Its values are persisted only in FACSTOR1 store files (key
///    records and probe table), which is why those files carry a version.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_SUPPORT_HASHING_H
#define FACILE_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace facile {

inline constexpr uint64_t FNVOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t FNVPrime = 0x100000001b3ULL;

/// Hashes \p Size bytes starting at \p Data, continuing from \p Seed.
inline uint64_t hashBytes(const void *Data, size_t Size,
                          uint64_t Seed = FNVOffset) {
  const auto *P = static_cast<const unsigned char *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I != Size; ++I) {
    H ^= P[I];
    H *= FNVPrime;
  }
  return H;
}

/// Mixes one 64-bit value into a running hash.
inline uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  return hashBytes(&Value, sizeof(Value), Seed);
}

namespace detail {

inline constexpr uint64_t KeyPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr uint64_t KeyPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr uint64_t KeyPrime3 = 0x165667B19E3779F9ULL;
inline constexpr uint64_t KeyPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr uint64_t KeyPrime5 = 0x27D4EB2F165667C5ULL;

inline uint64_t rotl64(uint64_t V, int R) { return (V << R) | (V >> (64 - R)); }

inline uint64_t load64(const unsigned char *P) {
  uint64_t V;
  std::memcpy(&V, P, 8);
  return V;
}

inline uint32_t load32(const unsigned char *P) {
  uint32_t V;
  std::memcpy(&V, P, 4);
  return V;
}

inline uint64_t keyRound(uint64_t Acc, uint64_t In) {
  Acc += In * KeyPrime2;
  return rotl64(Acc, 31) * KeyPrime1;
}

inline uint64_t keyMerge(uint64_t Acc, uint64_t V) {
  Acc ^= keyRound(0, V);
  return Acc * KeyPrime1 + KeyPrime4;
}

} // namespace detail

/// Hashes \p Size bytes at \p Data for a key table: xxHash64 with seed 0.
/// 32-byte stripes feed four independent lanes, so the multiplies overlap
/// instead of forming one chain per byte; the final avalanche makes every
/// input bit reach the low bits a table index (H & Mask) keeps. Loads go
/// through memcpy, so \p Data may be unaligned. Assumes a little-endian
/// host, like the store files that persist these values.
inline uint64_t hashKey(const void *Data, size_t Size) {
  using namespace detail;
  const auto *P = static_cast<const unsigned char *>(Data);
  const unsigned char *End = P + Size;
  uint64_t H;
  if (Size >= 32) {
    uint64_t V1 = KeyPrime1 + KeyPrime2, V2 = KeyPrime2, V3 = 0,
             V4 = 0 - KeyPrime1;
    const unsigned char *Limit = End - 32;
    do {
      V1 = keyRound(V1, load64(P));
      V2 = keyRound(V2, load64(P + 8));
      V3 = keyRound(V3, load64(P + 16));
      V4 = keyRound(V4, load64(P + 24));
      P += 32;
    } while (P <= Limit);
    H = rotl64(V1, 1) + rotl64(V2, 7) + rotl64(V3, 12) + rotl64(V4, 18);
    H = keyMerge(H, V1);
    H = keyMerge(H, V2);
    H = keyMerge(H, V3);
    H = keyMerge(H, V4);
  } else {
    H = KeyPrime5;
  }
  H += static_cast<uint64_t>(Size);

  // Tail: whole words, then a half word, then single bytes.
  for (; P + 8 <= End; P += 8)
    H = rotl64(H ^ keyRound(0, load64(P)), 27) * KeyPrime1 + KeyPrime4;
  if (P + 4 <= End) {
    H = rotl64(H ^ (static_cast<uint64_t>(load32(P)) * KeyPrime1), 23) *
            KeyPrime2 +
        KeyPrime3;
    P += 4;
  }
  for (; P != End; ++P)
    H = rotl64(H ^ (*P * KeyPrime5), 11) * KeyPrime1;

  // Avalanche.
  H ^= H >> 33;
  H *= KeyPrime2;
  H ^= H >> 29;
  H *= KeyPrime3;
  H ^= H >> 32;
  return H;
}

} // namespace facile

#endif // FACILE_SUPPORT_HASHING_H
