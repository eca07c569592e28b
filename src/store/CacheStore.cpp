//===- CacheStore.cpp - Content-addressed, mmap-shared cache store ---------===//

#include "src/store/CacheStore.h"

#include "src/support/Hashing.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace facile;
using namespace facile::rt;
using namespace facile::store;

//===----------------------------------------------------------------------===//
// Cache images
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t ImageTags[] = {SecTick,    SecNodes,      SecSeals,
                                  SecData,    SecKeyPool,    SecKeyRecs,
                                  SecKeyToEntry, SecEntries, SecKeyTable};
constexpr size_t NumImageSections = sizeof(ImageTags) / sizeof(ImageTags[0]);

template <typename T>
snapshot::Section section(uint32_t Tag, const std::vector<T> &V) {
  return {Tag, V.data(), V.size() * sizeof(T)};
}

} // namespace

std::vector<uint8_t> facile::store::encodeImage(
    const ActionCache::FlatImage &Img, uint64_t CompatKey) {
  // Stage the nodes with padding bytes forced to zero: the arena is
  // written (and CRC'd) raw, and ActionNode has 3 padding bytes after the
  // kind whose values a copy would otherwise leak — images of equal
  // content must be bit-identical.
  std::vector<ActionNode> Nodes(Img.Nodes.size());
  if (!Nodes.empty())
    std::memset(static_cast<void *>(Nodes.data()), 0,
                Nodes.size() * sizeof(ActionNode));
  for (size_t I = 0; I != Nodes.size(); ++I) {
    const ActionNode &S = Img.Nodes[I];
    ActionNode &D = Nodes[I];
    D.ActionId = S.ActionId;
    D.K = S.K;
    D.DataOfs = S.DataOfs;
    D.DataLen = S.DataLen;
    D.Next = S.Next;
    D.OnValue[0] = S.OnValue[0];
    D.OnValue[1] = S.OnValue[1];
    D.NextKey = S.NextKey;
  }
  std::vector<uint32_t> Table = ActionCache::buildProbeTable(Img.Keys);
  return snapshot::buildContainer(
      snapshot::PayloadKind::ActionCache, CompatKey,
      {{SecTick, &Img.Tick, sizeof(Img.Tick)},
       section(SecNodes, Nodes),
       section(SecSeals, Img.Seals),
       section(SecData, Img.Data),
       section(SecKeyPool, Img.KeyPool),
       section(SecKeyRecs, Img.Keys),
       section(SecKeyToEntry, Img.KeyToEntry),
       section(SecEntries, Img.Entries),
       section(SecKeyTable, Table)});
}

namespace {

/// The structural rules replay relies on, applied to the arenas of a
/// container that passed its CRCs, before any replay walks them.
bool validateArenas(const ActionCache::BaseArenas &A, uint32_t NumActions,
                    std::string &Err) {
  for (uint32_t K = 0; K != A.NumKeys; ++K) {
    const ActionCache::KeyRecord &R = A.Keys[K];
    if (static_cast<uint64_t>(R.Ofs) + R.Len > A.KeyPoolBytes) {
      Err = "key span out of pool bounds";
      return false;
    }
    if (R.Hash != hashKey(A.KeyPool + R.Ofs, R.Len)) {
      Err = "key hash mismatch";
      return false;
    }
  }
  for (uint32_t I = 0; I != A.NumNodes; ++I) {
    const ActionNode &N = A.Nodes[I];
    if (N.ActionId < 0 || static_cast<uint32_t>(N.ActionId) >= NumActions) {
      Err = "node action id out of range";
      return false;
    }
    if (static_cast<uint8_t>(N.K) > static_cast<uint8_t>(ActionNode::Kind::End)) {
      Err = "bad node kind";
      return false;
    }
    if (static_cast<uint64_t>(N.DataOfs) + N.DataLen > A.DataWords) {
      Err = "node data span out of pool bounds";
      return false;
    }
    if (N.Next != ActionNode::NoNode && N.Next >= A.NumNodes) {
      Err = "node Next link out of bounds";
      return false;
    }
    for (int V = 0; V != 2; ++V)
      if (N.OnValue[V] != ActionNode::NoNode && N.OnValue[V] >= A.NumNodes) {
        Err = "node OnValue link out of bounds";
        return false;
      }
    if (N.NextKey != NoId && N.NextKey >= A.NumKeys) {
      Err = "node NextKey out of bounds";
      return false;
    }
    if (N.K == ActionNode::Kind::Plain && N.Next == ActionNode::NoNode) {
      Err = "dangling Plain node";
      return false;
    }
  }
  for (uint32_t E = 0; E != A.NumEntries; ++E) {
    const CacheEntry &C = A.Entries[E];
    if (C.Key == NoId || C.Key >= A.NumKeys) {
      Err = "entry key out of bounds";
      return false;
    }
    if (C.Head != ActionNode::NoNode && C.Head >= A.NumNodes) {
      Err = "entry head out of bounds";
      return false;
    }
  }
  for (uint32_t K = 0; K != A.NumKeys; ++K) {
    uint32_t E = A.KeyToEntry[K];
    if (E == NoId)
      continue;
    if (E >= A.NumEntries || A.Entries[E].Key != K) {
      Err = "key-to-entry map inconsistent";
      return false;
    }
  }
  // The persisted probe table: power-of-two sized, slots hold valid key
  // ids, and every key is findable from its hash's home slot (probing is
  // trusted raw on the intern path).
  if (A.TableSize == 0 || (A.TableSize & (A.TableSize - 1)) != 0) {
    Err = "probe table size not a power of two";
    return false;
  }
  for (uint64_t I = 0; I != A.TableSize; ++I)
    if (A.Table[I] != NoId && A.Table[I] >= A.NumKeys) {
      Err = "probe table slot out of bounds";
      return false;
    }
  uint64_t Mask = A.TableSize - 1;
  for (uint32_t K = 0; K != A.NumKeys; ++K) {
    uint64_t I = A.Keys[K].Hash & Mask;
    uint64_t Probes = 0;
    for (;; I = (I + 1) & Mask) {
      if (A.Table[I] == K)
        break;
      if (A.Table[I] == NoId || ++Probes > A.TableSize) {
        Err = "key not findable in probe table";
        return false;
      }
    }
  }
  return true;
}

} // namespace

snapshot::LoadStatus facile::store::parseImage(const uint8_t *Data, size_t Len,
                                               uint64_t CompatKey,
                                               uint32_t NumActions,
                                               ActionCache::BaseArenas &A,
                                               std::string &Err) {
  snapshot::SectionView V[NumImageSections];
  snapshot::LoadStatus St = snapshot::parseContainer(
      Data, Len, snapshot::PayloadKind::ActionCache, CompatKey, ImageTags,
      NumImageSections, V, Err);
  if (St != snapshot::LoadStatus::Ok)
    return St;

  // Element-size framing, then the arena views.
  const snapshot::SectionView &Tk = V[0], &Nd = V[1], &Sl = V[2], &Dt = V[3],
                              &Kp = V[4], &Kr = V[5], &K2 = V[6], &En = V[7],
                              &Kt = V[8];
  auto corrupt = [&](const char *Why) {
    Err = Why;
    return snapshot::LoadStatus::Corrupt;
  };
  if (Tk.Len != 8 || Nd.Len % sizeof(ActionNode) != 0 ||
      Kr.Len % sizeof(ActionCache::KeyRecord) != 0 ||
      En.Len % sizeof(CacheEntry) != 0 || Dt.Len % 8 != 0 || K2.Len % 4 != 0 ||
      Kt.Len % 4 != 0)
    return corrupt("cache section length not a multiple of its element size");
  uint64_t NumNodes = Nd.Len / sizeof(ActionNode);
  uint64_t NumKeys = Kr.Len / sizeof(ActionCache::KeyRecord);
  uint64_t NumEntries = En.Len / sizeof(CacheEntry);
  if (NumNodes >= ActionNode::NoNode || NumKeys >= NoId || NumEntries >= NoId)
    return corrupt("cache arena count overflows its id space");
  if (Sl.Len != NumNodes * 8)
    return corrupt("seal array does not match the node arena");
  if (K2.Len != NumKeys * 4)
    return corrupt("key-to-entry map does not match the key table");

  std::memcpy(&A.Tick, Tk.Data, 8);
  A.Nodes = reinterpret_cast<const ActionNode *>(Nd.Data);
  A.NumNodes = static_cast<uint32_t>(NumNodes);
  A.Seals = reinterpret_cast<const uint64_t *>(Sl.Data);
  A.Data = reinterpret_cast<const int64_t *>(Dt.Data);
  A.DataWords = Dt.Len / 8;
  A.KeyPool = reinterpret_cast<const char *>(Kp.Data);
  A.KeyPoolBytes = Kp.Len;
  A.Keys = reinterpret_cast<const ActionCache::KeyRecord *>(Kr.Data);
  A.NumKeys = static_cast<uint32_t>(NumKeys);
  A.Table = reinterpret_cast<const uint32_t *>(Kt.Data);
  A.TableSize = Kt.Len / 4;
  A.Entries = reinterpret_cast<const CacheEntry *>(En.Data);
  A.NumEntries = static_cast<uint32_t>(NumEntries);
  A.KeyToEntry = reinterpret_cast<const uint32_t *>(K2.Data);
  if (!validateArenas(A, NumActions, Err))
    return snapshot::LoadStatus::Corrupt;
  return snapshot::LoadStatus::Ok;
}

ActionCache::FlatImage
facile::store::ownedImage(const ActionCache::BaseArenas &A) {
  ActionCache::FlatImage Img;
  Img.Tick = A.Tick;
  Img.KeyPool.assign(A.KeyPool, A.KeyPool + A.KeyPoolBytes);
  Img.Keys.assign(A.Keys, A.Keys + A.NumKeys);
  Img.KeyToEntry.assign(A.KeyToEntry, A.KeyToEntry + A.NumKeys);
  Img.Entries.assign(A.Entries, A.Entries + A.NumEntries);
  Img.Nodes.assign(A.Nodes, A.Nodes + A.NumNodes);
  Img.Seals.assign(A.Seals, A.Seals + A.NumNodes);
  Img.Data.assign(A.Data, A.Data + A.DataWords);
  return Img;
}

//===----------------------------------------------------------------------===//
// StoreMap
//===----------------------------------------------------------------------===//

StoreMap::~StoreMap() {
  if (Map)
    ::munmap(Map, MapLen);
}

namespace {

/// Generations one promote tries before giving up: far more than the
/// promoters of one key that can collide at once.
constexpr int MaxPromoteAttempts = 64;

/// Parses "ac-<16 hex>-g<decimal>.facstore". Returns false otherwise.
bool parseFileName(const char *Name, uint64_t &Key, uint64_t &Gen) {
  if (std::strncmp(Name, "ac-", 3) != 0)
    return false;
  char *End = nullptr;
  Key = std::strtoull(Name + 3, &End, 16);
  if (End != Name + 19 || std::strncmp(End, "-g", 2) != 0)
    return false;
  Gen = std::strtoull(End + 2, &End, 10);
  return End != nullptr && std::strcmp(End, ".facstore") == 0;
}

} // namespace

std::shared_ptr<const StoreMap> StoreMap::open(const std::string &Path,
                                               uint64_t CompatKey,
                                               uint32_t NumActions,
                                               std::string &Err) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0) {
    Err = "cannot open '" + Path + "': " + std::strerror(errno);
    return nullptr;
  }
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size <= 0) {
    Err = "cannot stat '" + Path + "' or it is empty";
    ::close(Fd);
    return nullptr;
  }
  size_t Len = static_cast<size_t>(St.st_size);
  void *M = ::mmap(nullptr, Len, PROT_READ, MAP_SHARED, Fd, 0);
  ::close(Fd); // the mapping keeps the file alive
  if (M == MAP_FAILED) {
    Err = "cannot map '" + Path + "': " + std::strerror(errno);
    return nullptr;
  }

  // From here every failure unmaps via the owning object.
  std::shared_ptr<StoreMap> SM(new StoreMap());
  SM->Map = M;
  SM->MapLen = Len;
  if (parseImage(static_cast<const uint8_t *>(M), Len, CompatKey, NumActions,
                 SM->Arenas, Err) != snapshot::LoadStatus::Ok) {
    Err = "'" + Path + "': " + Err;
    return nullptr;
  }
  SM->CompatKeyV = CompatKey;
  SM->NumActionsV = NumActions;
  size_t Slash = Path.rfind('/');
  uint64_t NameKey;
  if (!parseFileName(Path.c_str() + (Slash == std::string::npos ? 0 : Slash + 1),
                     NameKey, SM->GenerationV))
    SM->GenerationV = 0;
  return SM;
}

//===----------------------------------------------------------------------===//
// CacheStoreDir
//===----------------------------------------------------------------------===//

std::string CacheStoreDir::fileName(uint64_t CompatKey, uint64_t Generation) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "ac-%016llx-g%06llu.facstore",
                static_cast<unsigned long long>(CompatKey),
                static_cast<unsigned long long>(Generation));
  return Buf;
}


uint64_t CacheStoreDir::latestGeneration(uint64_t CompatKey) const {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  uint64_t Latest = 0;
  while (struct dirent *E = ::readdir(D)) {
    uint64_t Key, Gen;
    if (parseFileName(E->d_name, Key, Gen) && Key == CompatKey)
      Latest = std::max(Latest, Gen);
  }
  ::closedir(D);
  return Latest;
}

std::shared_ptr<const StoreMap>
CacheStoreDir::lookup(uint64_t CompatKey, uint32_t NumActions,
                      std::string *Err) {
  if (Err)
    Err->clear();
  // The generation readdir surfaces can be unlinked by a concurrent gc
  // sweep before we open it (promote + sweep on another thread retires
  // old generations). When the file is simply gone, rescan: either a
  // newer generation exists or the key is a clean miss now. Bounded so a
  // pathological promote/sweep storm cannot spin us forever.
  for (int Attempt = 0; Attempt != 4; ++Attempt) {
    uint64_t Gen = latestGeneration(CompatKey);
    if (Gen == 0)
      return nullptr; // clean miss: no store for this configuration yet
    std::string Name = fileName(CompatKey, Gen);
    std::string Path = Dir + "/" + Name;

    std::string OpenErr;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      auto It = Maps.find(Name);
      // A cached mapping was validated for its first consumer's action
      // count; reuse it only for the same count.
      if (It != Maps.end())
        if (std::shared_ptr<const StoreMap> M = It->second.lock();
            M && M->numActions() == NumActions)
          return M;
      std::shared_ptr<const StoreMap> M =
          StoreMap::open(Path, CompatKey, NumActions, OpenErr);
      if (M) {
        Maps[Name] = M;
        return M;
      }
    }
    if (::access(Path.c_str(), F_OK) != 0 && errno == ENOENT)
      continue; // swept between readdir and open — rescan
    if (Err)
      *Err = OpenErr;
    return nullptr;
  }
  if (Err)
    *Err = "store generations for this key kept vanishing mid-lookup";
  return nullptr;
}

bool CacheStoreDir::promote(const ActionCache::FlatImage &Img,
                            uint64_t CompatKey, uint64_t *OutGeneration,
                            std::string *Err) {
  if (::mkdir(Dir.c_str(), 0777) != 0 && errno != EEXIST) {
    if (Err)
      *Err = "cannot create store directory '" + Dir +
             "': " + std::strerror(errno);
    return false;
  }
  std::vector<uint8_t> Bytes = encodeImage(Img, CompatKey);
  std::string Tmp, E;
  if (!snapshot::writeTempFile(Dir + "/" + fileName(CompatKey, 0), Bytes, Tmp,
                               E)) {
    if (Err)
      *Err = E;
    return false;
  }
  // Promotes of one key — from threads or from other processes — can all
  // pick the same latest + 1. link() never replaces an existing name, so
  // whoever loses that race moves on to the next generation instead of
  // silently clobbering the winner's file as a rename would.
  uint64_t Gen = latestGeneration(CompatKey) + 1;
  int LinkErrno = EEXIST;
  for (int Attempt = 0; Attempt != MaxPromoteAttempts; ++Attempt) {
    const std::string Path = Dir + "/" + fileName(CompatKey, Gen);
    if (::link(Tmp.c_str(), Path.c_str()) == 0) {
      LinkErrno = 0;
      break;
    }
    LinkErrno = errno;
    if (LinkErrno != EEXIST)
      break;
    Gen = std::max(Gen, latestGeneration(CompatKey)) + 1;
  }
  ::unlink(Tmp.c_str());
  if (LinkErrno != 0) {
    if (Err)
      *Err = "cannot publish a new generation in '" + Dir + "': " +
             (LinkErrno == EEXIST ? std::string("every candidate was taken")
                                  : std::strerror(LinkErrno));
    return false;
  }
  if (OutGeneration)
    *OutGeneration = Gen;
  return true;
}

size_t CacheStoreDir::gc(size_t KeepPerKey, std::string *Err) {
  if (Err)
    Err->clear();
  if (KeepPerKey == 0)
    KeepPerKey = 1; // the newest generation is never collected
  DIR *D = ::opendir(Dir.c_str());
  if (!D) {
    // A store directory that was never created has nothing to collect.
    if (errno != ENOENT && Err)
      *Err = "cannot open store directory '" + Dir +
             "': " + std::strerror(errno);
    return 0;
  }
  std::map<uint64_t, std::vector<uint64_t>> Generations;
  while (struct dirent *E = ::readdir(D)) {
    uint64_t Key, Gen;
    if (parseFileName(E->d_name, Key, Gen))
      Generations[Key].push_back(Gen);
  }
  ::closedir(D);

  size_t Unlinked = 0;
  for (auto &KV : Generations) {
    std::vector<uint64_t> &Gens = KV.second;
    if (Gens.size() <= KeepPerKey)
      continue;
    std::sort(Gens.begin(), Gens.end());
    for (size_t I = 0; I + KeepPerKey < Gens.size(); ++I) {
      std::string Path = Dir + "/" + fileName(KV.first, Gens[I]);
      if (::unlink(Path.c_str()) == 0)
        ++Unlinked;
      else if (errno != ENOENT && Err && Err->empty())
        // ENOENT means a concurrent sweep (the daemon's periodic gc and a
        // client-driven store-gc can overlap) collected this generation
        // between our readdir and the unlink — the file is gone, which is
        // exactly the outcome we wanted, so it is not an error. Neither
        // sweep counts it: Unlinked reports what *this* call removed.
        *Err = "cannot unlink '" + Path + "': " + std::strerror(errno);
    }
  }
  // Drop cache slots whose mappings already expired so a future lookup of
  // a collected name cannot hit a dead weak_ptr.
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto It = Maps.begin(); It != Maps.end();)
    It = It->second.expired() ? Maps.erase(It) : std::next(It);
  return Unlinked;
}

size_t CacheStoreDir::mappedCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = 0;
  for (auto It = Maps.begin(); It != Maps.end();) {
    if (It->second.expired()) {
      It = Maps.erase(It);
    } else {
      ++N;
      ++It;
    }
  }
  return N;
}
