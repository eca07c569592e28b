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
///    cache's key tables, where one step key is hashed per recorded step
///    — by a KeyHasher fed while the key is serialized. Its values are
///    persisted in cache images (key records and probe table), which is
///    why the snapshot container carries a version.
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

/// Mixes one 64-bit value into a running hash: hashBytes over its eight
/// bytes in little-endian order (the order hashBytes reads a uint64_t in
/// on every host this project runs on), usable in constant expressions.
constexpr uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  for (unsigned I = 0; I != 8; ++I) {
    Seed ^= (Value >> (8 * I)) & 0xff;
    Seed *= FNVPrime;
  }
  return Seed;
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

/// hashKey computed while the hashed buffer is written front to back:
/// feed() runs every whole 32-byte stripe below the write cursor through
/// the four lanes, so finish() has only the tail left to mix. Feeding is
/// optional and any number of times; the value always equals hashKey's.
class KeyHasher {
public:
  explicit KeyHasher(const void *Data)
      : Begin(static_cast<const unsigned char *>(Data)), Next(Begin) {}

  /// Hashes the whole stripes of [Data, \p Upto) not yet hashed. The
  /// lanes run in locals: the byte loads may alias any member.
  void feed(const void *Upto) {
    using namespace detail;
    const auto *U = static_cast<const unsigned char *>(Upto);
    if (U - Next < 32)
      return;
    const unsigned char *P = Next;
    uint64_t A = V1, B = V2, C = V3, D = V4;
    do {
      A = keyRound(A, load64(P));
      B = keyRound(B, load64(P + 8));
      C = keyRound(C, load64(P + 16));
      D = keyRound(D, load64(P + 24));
      P += 32;
    } while (U - P >= 32);
    V1 = A, V2 = B, V3 = C, V4 = D;
    Next = P;
  }

  /// The hash of [Data, \p End).
  uint64_t finish(const void *End) {
    using namespace detail;
    feed(End);
    const auto *E = static_cast<const unsigned char *>(End);
    const unsigned char *P = Next;
    const auto Size = static_cast<uint64_t>(E - Begin);
    uint64_t H;
    if (Size >= 32) {
      H = rotl64(V1, 1) + rotl64(V2, 7) + rotl64(V3, 12) + rotl64(V4, 18);
      H = keyMerge(H, V1);
      H = keyMerge(H, V2);
      H = keyMerge(H, V3);
      H = keyMerge(H, V4);
    } else {
      H = KeyPrime5;
    }
    H += Size;

    // Tail: whole words, then a half word, then single bytes.
    for (; P + 8 <= E; P += 8)
      H = rotl64(H ^ keyRound(0, load64(P)), 27) * KeyPrime1 + KeyPrime4;
    if (P + 4 <= E) {
      H = rotl64(H ^ (static_cast<uint64_t>(load32(P)) * KeyPrime1), 23) *
              KeyPrime2 +
          KeyPrime3;
      P += 4;
    }
    for (; P != E; ++P)
      H = rotl64(H ^ (*P * KeyPrime5), 11) * KeyPrime1;

    // Avalanche.
    H ^= H >> 33;
    H *= KeyPrime2;
    H ^= H >> 29;
    H *= KeyPrime3;
    H ^= H >> 32;
    return H;
  }

private:
  const unsigned char *Begin;
  const unsigned char *Next; ///< first byte not yet run through the lanes
  uint64_t V1 = detail::KeyPrime1 + detail::KeyPrime2;
  uint64_t V2 = detail::KeyPrime2;
  uint64_t V3 = 0;
  uint64_t V4 = 0 - detail::KeyPrime1;
};

/// Hashes \p Size bytes at \p Data for a key table: xxHash64 with seed 0.
/// 32-byte stripes feed four independent lanes, so the multiplies overlap
/// instead of forming one chain per byte; the final avalanche makes every
/// input bit reach the low bits a table index (H & Mask) keeps. Loads go
/// through memcpy, so \p Data may be unaligned. Assumes a little-endian
/// host, like the store files that persist these values.
inline uint64_t hashKey(const void *Data, size_t Size) {
  return KeyHasher(Data).finish(static_cast<const unsigned char *>(Data) +
                                Size);
}

} // namespace facile

#endif // FACILE_SUPPORT_HASHING_H
