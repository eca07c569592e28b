//===- Serializer.cpp - Bounds-checked binary (de)serialization ------------===//

#include "src/snapshot/Serializer.h"

namespace facile {
namespace snapshot {

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial. T[0] is the
/// classic byte table; T[S][B] is the CRC contribution of byte B followed
/// by S zero bytes, so eight table lookups fold eight input bytes at once.
struct Crc32Tables {
  uint32_t T[8][256];
  constexpr Crc32Tables() : T() {
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
      T[0][I] = C;
    }
    for (int S = 1; S != 8; ++S)
      for (uint32_t I = 0; I != 256; ++I)
        T[S][I] = T[0][T[S - 1][I] & 0xffu] ^ (T[S - 1][I] >> 8);
  }
};

constexpr Crc32Tables Tables;

/// Little-endian 32-bit load from any alignment (one mov on x86-64).
uint32_t load32le(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

} // namespace

uint32_t crc32(const void *Data, size_t Len, uint32_t Seed) {
  const auto &T = Tables.T;
  const auto *P = static_cast<const uint8_t *>(Data);
  uint32_t C = Seed ^ 0xffffffffu;
  for (; Len >= 8; P += 8, Len -= 8) {
    const uint32_t Lo = load32le(P) ^ C;
    const uint32_t Hi = load32le(P + 4);
    C = T[7][Lo & 0xffu] ^ T[6][(Lo >> 8) & 0xffu] ^
        T[5][(Lo >> 16) & 0xffu] ^ T[4][Lo >> 24] ^ T[3][Hi & 0xffu] ^
        T[2][(Hi >> 8) & 0xffu] ^ T[1][(Hi >> 16) & 0xffu] ^ T[0][Hi >> 24];
  }
  for (; Len != 0; ++P, --Len)
    C = T[0][(C ^ *P) & 0xffu] ^ (C >> 8);
  return C ^ 0xffffffffu;
}

} // namespace snapshot
} // namespace facile
