//===- Snapshot.cpp - Versioned, checksummed snapshot container ------------===//

#include "src/snapshot/Snapshot.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

namespace facile {
namespace snapshot {

namespace {

/// magic + version + kind + compat key + section count + table CRC.
constexpr size_t HeaderSize = 32;
/// The table CRC field; the CRC covers the header bytes before it.
constexpr size_t TableCrcOfs = 28;
/// tag + CRC + offset + length.
constexpr size_t EntrySize = 24;
/// A container never carries more sections than this; bounds the table
/// against corrupt counts.
constexpr uint32_t MaxSections = 64;

size_t align8(size_t N) { return (N + 7) & ~size_t(7); }

void putU32(uint8_t *P, uint32_t V) { std::memcpy(P, &V, 4); }
void putU64(uint8_t *P, uint64_t V) { std::memcpy(P, &V, 8); }
uint32_t getU32(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, 4);
  return V;
}
uint64_t getU64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, 8);
  return V;
}

/// CRC of the header before its CRC field, continued over the table.
uint32_t tableCrc(const uint8_t *Data, size_t TableEnd) {
  return crc32(Data + HeaderSize, TableEnd - HeaderSize,
               crc32(Data, TableCrcOfs));
}

} // namespace

std::vector<uint8_t> buildContainer(PayloadKind Kind, uint64_t CompatKey,
                                    const std::vector<Section> &Sections) {
  const size_t TableEnd = HeaderSize + Sections.size() * EntrySize;
  size_t Total = TableEnd;
  for (const Section &S : Sections)
    Total = align8(Total) + S.Len;

  // Only the header, the table and the alignment padding are zeroed;
  // each section is copied once, straight after its padding.
  std::vector<uint8_t> Buf;
  Buf.reserve(Total);
  Buf.resize(TableEnd, 0);
  for (size_t I = 0; I != Sections.size(); ++I) {
    const Section &S = Sections[I];
    Buf.resize(align8(Buf.size()), 0);
    const size_t Pos = Buf.size();
    if (S.Len != 0) {
      const auto *Data = static_cast<const uint8_t *>(S.Data);
      Buf.insert(Buf.end(), Data, Data + S.Len);
    }
    uint8_t *E = Buf.data() + HeaderSize + I * EntrySize;
    putU32(E, S.Tag);
    putU32(E + 4, crc32(Buf.data() + Pos, S.Len));
    putU64(E + 8, Pos);
    putU64(E + 16, S.Len);
  }
  uint8_t *B = Buf.data();
  std::memcpy(B, Magic.data(), Magic.size());
  putU32(B + 8, FormatVersion);
  putU32(B + 12, static_cast<uint32_t>(Kind));
  putU64(B + 16, CompatKey);
  putU32(B + 24, static_cast<uint32_t>(Sections.size()));
  putU32(B + TableCrcOfs, tableCrc(B, TableEnd));
  return Buf;
}

LoadStatus parseContainer(const uint8_t *Data, size_t Len, PayloadKind Kind,
                          uint64_t CompatKey, const uint32_t *Tags,
                          size_t NumTags, SectionView *Out, std::string &Err) {
  if (Len < Magic.size() ||
      std::memcmp(Data, Magic.data(), Magic.size()) != 0) {
    Err = "not a Facile snapshot (bad magic)";
    return LoadStatus::BadFormat;
  }
  if (Len < HeaderSize) {
    Err = "truncated snapshot header";
    return LoadStatus::Corrupt;
  }
  if (uint32_t Version = getU32(Data + 8); Version != FormatVersion) {
    Err = "unsupported snapshot format version " + std::to_string(Version);
    return LoadStatus::BadFormat;
  }
  if (reinterpret_cast<uintptr_t>(Data) % 8 != 0) {
    Err = "snapshot bytes are not 8-byte aligned in memory";
    return LoadStatus::BadFormat;
  }
  const uint32_t NumSections = getU32(Data + 24);
  if (NumSections > MaxSections) {
    Err = "implausible section count " + std::to_string(NumSections);
    return LoadStatus::Corrupt;
  }
  const size_t TableEnd = HeaderSize + NumSections * EntrySize;
  if (TableEnd > Len) {
    Err = "truncated snapshot section table";
    return LoadStatus::Corrupt;
  }
  if (tableCrc(Data, TableEnd) != getU32(Data + TableCrcOfs)) {
    Err = "snapshot header checksum mismatch";
    return LoadStatus::Corrupt;
  }
  if (uint32_t FileKind = getU32(Data + 12);
      FileKind != static_cast<uint32_t>(Kind)) {
    Err = "snapshot holds payload kind " + std::to_string(FileKind) +
          ", expected " + std::to_string(static_cast<uint32_t>(Kind));
    return LoadStatus::BadFormat;
  }
  if (getU64(Data + 16) != CompatKey) {
    Err = "snapshot compatibility key mismatch (stale program, options or "
          "target image)";
    return LoadStatus::CompatMismatch;
  }
  if (NumSections != NumTags) {
    Err = "snapshot holds " + std::to_string(NumSections) +
          " sections, expected " + std::to_string(NumTags);
    return LoadStatus::Corrupt;
  }

  std::vector<SectionView> Views(NumTags);
  auto corrupt = [&](uint32_t I, const char *What) {
    Err = "snapshot section " + std::to_string(I) + What;
    return LoadStatus::Corrupt;
  };
  size_t Pos = TableEnd;
  for (uint32_t I = 0; I != NumSections; ++I) {
    // Padding up to the section's aligned start must be zero.
    for (const size_t Start = align8(Pos); Pos != Start; ++Pos)
      if (Pos == Len || Data[Pos] != 0)
        return corrupt(I, ": bad padding");
    const uint8_t *E = Data + HeaderSize + I * EntrySize;
    const uint64_t SLen = getU64(E + 16);
    if (getU32(E) != Tags[I])
      return corrupt(I, " has an unexpected tag");
    if (getU64(E + 8) != Pos)
      return corrupt(I, " is not at its canonical offset");
    if (SLen > Len - Pos)
      return corrupt(I, " runs past the end of the file");
    if (crc32(Data + Pos, static_cast<size_t>(SLen)) != getU32(E + 4))
      return corrupt(I, " checksum mismatch");
    Views[I] = {Data + Pos, static_cast<size_t>(SLen)};
    Pos += static_cast<size_t>(SLen);
  }
  if (Pos != Len) {
    Err = "trailing bytes after final snapshot section";
    return LoadStatus::Corrupt;
  }
  std::copy(Views.begin(), Views.end(), Out);
  return LoadStatus::Ok;
}

bool writeTempFile(const std::string &Path, const std::vector<uint8_t> &Bytes,
                   std::string &Tmp, std::string &Err) {
  // A temporary per process and per call: two threads or two processes
  // writing the same path never interleave into one temporary.
  static std::atomic<uint64_t> Serial{0};
  Tmp = Path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(Serial.fetch_add(1));
  std::FILE *File = std::fopen(Tmp.c_str(), "wb");
  if (!File) {
    Err = "cannot open '" + Tmp + "' for writing: " + std::strerror(errno);
    return false;
  }
  size_t N = Bytes.empty()
                 ? 0
                 : std::fwrite(Bytes.data(), 1, Bytes.size(), File);
  bool CloseOk = std::fclose(File) == 0;
  if (N != Bytes.size() || !CloseOk) {
    std::remove(Tmp.c_str());
    Err = "short write to '" + Tmp + "'";
    return false;
  }
  return true;
}

bool writeFileBytes(const std::string &Path, const std::vector<uint8_t> &Bytes,
                    std::string &Err) {
  std::string Tmp;
  if (!writeTempFile(Path, Bytes, Tmp, Err))
    return false;
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Err = "cannot rename '" + Tmp + "' to '" + Path +
          "': " + std::strerror(errno);
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Out,
                   std::string &Err) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    Err = "cannot open '" + Path + "'";
    return false;
  }
  std::vector<uint8_t> Bytes;
  uint8_t Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), File)) != 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  bool ReadOk = std::ferror(File) == 0;
  std::fclose(File);
  if (!ReadOk) {
    Err = "read error on '" + Path + "'";
    return false;
  }
  Out = std::move(Bytes);
  return true;
}

} // namespace snapshot
} // namespace facile
