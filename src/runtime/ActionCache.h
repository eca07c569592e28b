//===- ActionCache.h - The specialized action cache -------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The specialized action cache of a fast-forwarding simulator (paper §2,
/// Figure 2), laid out for replay speed. Three flat stores back every
/// entry:
///
///  - the *key table*: every serialized run-time static input is interned
///    once into a shared byte pool and addressed by a fixed-width KeyId.
///    Entry keys and the next-step keys recorded in End nodes share the
///    same pool, so a key is stored exactly once no matter how many End
///    nodes chain to it, and key equality is an integer compare;
///  - the *node arena*: one contiguous array of 32-byte ActionNodes for
///    the whole cache. Nodes link by arena index, so replay is a pointer
///    chase over dense memory with no per-entry allocation;
///  - the *data pool*: one contiguous array of memoized placeholder words,
///    addressed by [DataOfs, DataOfs+DataLen) spans in each node;
///  - the *seal array*: one 64-bit integrity seal per node, computed for
///    free while recording (an xor accumulated as placeholder words are
///    pushed, mixed with the node's identity fields and a tag of the link
///    it hangs from). Replay re-derives the seal from what it
///    actually read and walked; any flipped byte in a node, its data span
///    or the links leading to it surfaces as a mismatch instead of a
///    silently divergent step (see Simulation's CacheCorrupt fault).
///
/// Every link is an *arena index*, never a pointer, which makes the whole
/// cache relocatable: a sealed cache can be written out flat and mapped
/// back at any address. The cache exploits this with a two-level layout:
/// an optional immutable *base* (BaseArenas — typically a read-only
/// memory-mapped store file shared by many processes, see src/store/)
/// occupies global ids [0, BaseN) of every id space, and the private
/// *overlay* arenas continue above it. Base nodes are never written:
/// recording appends overlay nodes, and extending a base Test node's
/// missing successor goes through a private edge-patch table consulted
/// only on the replay miss path, so the hot replay loop stays flat.
/// Eviction with a base attached degenerates to "reset to base" — the
/// overlay is dropped, the mapping is untouched.
///
/// Memory is budgeted under the paper's wholesale clear-on-full policy,
/// which §6.1-§6.2 report costs little performance at 1/10 the footprint.
/// The byte account is derived from the container sizes in one place
/// (bytes()), and with a base attached counts only the private overlay,
/// so overBudget() always reflects the real per-session footprint.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_RUNTIME_ACTIONCACHE_H
#define FACILE_RUNTIME_ACTIONCACHE_H

#include "src/support/Hashing.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

namespace facile {

namespace telemetry {
class MetricSink;
class MetricsRegistry;
} // namespace telemetry

namespace rt {

/// Index of an interned key in the key table.
using KeyId = uint32_t;
/// Index of a cache entry.
using EntryId = uint32_t;
/// Sentinel for "no key" / "no entry".
inline constexpr uint32_t NoId = ~0u;

/// One recorded action. Kind determines which link fields are meaningful.
/// Links are node-arena indices; NextKey is an interned key id — the node
/// carries no heap-allocated state.
struct ActionNode {
  static constexpr uint32_t NoNode = ~0u;

  enum class Kind : uint8_t {
    Plain, ///< dynamic basic block; control continues at Next
    Test,  ///< dynamic-result test; control continues at OnValue[result]
    End,   ///< end of step (INDEX): NextKey identifies the next entry
  };

  int32_t ActionId = -1;
  Kind K = Kind::Plain;
  uint32_t DataOfs = 0; ///< placeholder span in the cache-wide data pool
  uint32_t DataLen = 0;
  uint32_t Next = NoNode;                 ///< Plain
  uint32_t OnValue[2] = {NoNode, NoNode}; ///< Test: successor per 0/1 result
  KeyId NextKey = NoId;                   ///< End: interned next key
};

static_assert(sizeof(ActionNode) == 32, "replay nodes must stay dense");

/// One cache entry: the recorded behaviour of the step function for one
/// run-time static input. The node graph and placeholder data live in the
/// cache-wide arenas; the entry is just the head index plus bookkeeping.
struct CacheEntry {
  uint32_t Head = ActionNode::NoNode; ///< node-arena index of the first node
  KeyId Key = NoId;                   ///< the interned entry key
  uint64_t LastUse = 0;               ///< recency tick (entryHit)
};

static_assert(sizeof(CacheEntry) == 16, "entries are stored flat on disk");

/// The key-indexed store of specialized actions.
class ActionCache {
public:
  /// One interned key: a span of the shared key pool plus its cached hash.
  /// Public (and stored flat on disk) so a store file can carry the key
  /// table verbatim.
  struct KeyRecord {
    uint32_t Ofs = 0;
    uint32_t Len = 0;
    uint64_t Hash = 0;
  };
  static_assert(sizeof(KeyRecord) == 16, "key records are stored flat");

  /// A read-only view of a sealed cache image used as the immutable base
  /// layer under this cache's private overlay — typically sections of a
  /// memory-mapped store file (store::StoreMap), which is why every field
  /// is a raw pointer + count rather than a container. The view must stay
  /// valid (and unmodified) for as long as it is attached; the cache never
  /// writes through it. Entries and KeyToEntry are *copied* at attach
  /// (they carry mutable recency/detach state), so those two arrays are
  /// read once; everything else is referenced in place.
  struct BaseArenas {
    const ActionNode *Nodes = nullptr;
    uint32_t NumNodes = 0;
    const uint64_t *Seals = nullptr;   ///< parallel to Nodes
    const int64_t *Data = nullptr;
    uint64_t DataWords = 0;
    const char *KeyPool = nullptr;
    uint64_t KeyPoolBytes = 0;
    const KeyRecord *Keys = nullptr;
    uint32_t NumKeys = 0;
    const uint32_t *Table = nullptr;   ///< probe table: slot -> KeyId or NoId
    uint64_t TableSize = 0;            ///< power of two (or 0 with no keys)
    const CacheEntry *Entries = nullptr;
    uint32_t NumEntries = 0;
    const uint32_t *KeyToEntry = nullptr; ///< per key: entry or NoId
    uint64_t Tick = 0;                 ///< recency clock at seal time
  };

  /// A self-contained, owned flat image of a cache: the promotion /
  /// compaction output format. Produced by compactImage() without
  /// mutating the cache; consumed by adoptImage() and by
  /// store::encodeImage (written to disk verbatim).
  struct FlatImage {
    uint64_t Tick = 0;
    std::vector<char> KeyPool;
    std::vector<KeyRecord> Keys;
    std::vector<EntryId> KeyToEntry;
    std::vector<CacheEntry> Entries;
    std::vector<ActionNode> Nodes;
    std::vector<uint64_t> Seals;
    std::vector<int64_t> Data;
  };

  struct Stats {
    uint64_t Lookups = 0;
    uint64_t Hits = 0;
    uint64_t EntriesCreated = 0;
    uint64_t KeysInterned = 0;
    uint64_t Clears = 0; ///< wholesale clears
    uint64_t PeakBytes = 0;
    uint64_t ProbeTotal = 0; ///< key-table probes beyond the home slot
    uint64_t ProbeMax = 0;   ///< longest probe sequence seen
    /// Steps that followed the previous step's End node to their key
    /// (hits) or found its dynamic key words changed and re-interned.
    uint64_t IndexChainHits = 0;
    uint64_t IndexChainMisses = 0;

    /// Pushes the bookkeeping counters into \p Sink (RuntimeMetrics.cpp).
    /// peak_bytes is appended by ActionCache::exportMetrics after the
    /// geometry, matching the statsJson() key order.
    void exportMetrics(telemetry::MetricSink &Sink) const;
  };

  explicit ActionCache(size_t BudgetBytes) : Budget(BudgetBytes) {}

  //===-- Base layer ---------------------------------------------------------

  /// Attaches \p B as the immutable base layer. The cache must be empty
  /// (freshly constructed or detachBase()'d); returns false otherwise.
  /// Base entries and the key→entry map are copied into private storage
  /// (their recency and detach state are per-session); every other arena
  /// is referenced in place, so N caches over one mapping share it.
  bool attachBase(const BaseArenas &B);

  /// Drops the base layer AND the overlay: overlay ids are relative to the
  /// base extent, so neither survives without the other. The cache is left
  /// empty and owned, as if freshly constructed (statistics retained).
  void detachBase();

  bool hasBase() const { return HasBase; }
  uint32_t baseNodeCount() const { return Base.NumNodes; }
  uint32_t baseKeyCount() const { return Base.NumKeys; }
  uint64_t baseDataWords() const { return Base.DataWords; }

  /// The footprint of the attached base image (shared, not per-session).
  size_t baseBytes() const {
    return static_cast<size_t>(Base.NumNodes) * (sizeof(ActionNode) + 8) +
           static_cast<size_t>(Base.DataWords) * 8 + Base.KeyPoolBytes +
           static_cast<size_t>(Base.NumKeys) * (sizeof(KeyRecord) + 4) +
           static_cast<size_t>(Base.NumEntries) * sizeof(CacheEntry) +
           static_cast<size_t>(Base.TableSize) * 4;
  }
  /// The private per-session footprint (same as bytes()).
  size_t overlayBytes() const { return bytes(); }

  //===-- Key interning ----------------------------------------------------

  /// Interns \p Len bytes at \p Data, returning the id of the existing or
  /// freshly created key. Probes the read-only base table first, then the
  /// private overlay table; new keys copy their bytes into the private
  /// key pool. \p Hash, when given, must be hashKey(Data, Len).
  KeyId internKey(const char *Data, size_t Len) {
    return internKey(Data, Len, hashKey(Data, Len));
  }
  KeyId internKey(const char *Data, size_t Len, uint64_t Hash);

  /// The id of the key with exactly the bytes [\p Data, \p Len), or NoId.
  /// Probes like internKey (and counts the probes the same way) but never
  /// interns: a miss leaves the key pool and both tables untouched.
  KeyId findKey(const char *Data, size_t Len) {
    return findKey(Data, Len, hashKey(Data, Len));
  }
  KeyId findKey(const char *Data, size_t Len, uint64_t Hash);

  /// Interns a key that findKey(\p Data, \p Len, \p Hash) just missed,
  /// without probing for it again: a new key's probes are counted once,
  /// by that findKey. Nothing may be interned in between.
  KeyId internAbsent(const char *Data, size_t Len, uint64_t Hash);

  /// True when interned key \p K has exactly the bytes [\p Data, \p Len).
  bool keyEquals(KeyId K, const char *Data, size_t Len) const {
    return keyLen(K) == Len && std::memcmp(keyData(K), Data, Len) == 0;
  }

  const char *keyData(KeyId K) const {
    return K < Base.NumKeys ? Base.KeyPool + Base.Keys[K].Ofs
                            : KeyPool.data() + Keys[K - Base.NumKeys].Ofs;
  }
  uint32_t keyLen(KeyId K) const {
    return K < Base.NumKeys ? Base.Keys[K].Len : Keys[K - Base.NumKeys].Len;
  }
  uint64_t keyHash(KeyId K) const {
    return K < Base.NumKeys ? Base.Keys[K].Hash : Keys[K - Base.NumKeys].Hash;
  }
  size_t keyCount() const { return Base.NumKeys + Keys.size(); }
  size_t keyPoolBytes() const { return Base.KeyPoolBytes + KeyPool.size(); }

  //===-- Entries ----------------------------------------------------------

  /// Finds the entry for key \p K, counting a lookup (and a hit on
  /// success) and refreshing the entry's recency. Returns NoId on miss.
  EntryId lookup(KeyId K) {
    ++S.Lookups;
    EntryId E = KeyToEntry[K];
    if (E == NoId)
      return NoId;
    ++S.Hits;
    Entries[E].LastUse = ++Tick;
    return E;
  }

  /// Counts a lookup of a key that was never interned (findKey missed):
  /// a lookup without a hit.
  void noteLookupMiss() { ++S.Lookups; }

  /// Creates an (empty) entry for key \p K. The caller records into it.
  /// \p K must not already have an entry.
  EntryId create(KeyId K);

  /// True once entry \p E was hit (looked up, or entered by a chain jump)
  /// since it was created or loaded: its recency moved past the tick it
  /// was born with.
  bool entryHit(EntryId E) const { return Entries[E].LastUse != BornTick[E]; }
  /// Live entries (recorded, not detached) never hit since they were
  /// created or loaded.
  uint64_t neverHitEntries() const;

  /// Unmaps entry \p E from its key and drops its head, making its node
  /// graph unreachable (the arena space is reclaimed at the next eviction).
  /// Used when recording was abandoned mid-step or replay found the
  /// entry's recording corrupt: the next lookup of the key misses and
  /// re-records cold. Entries are private even over a base, so this works
  /// uniformly (a detached base entry's nodes stay in the mapping, merely
  /// unreachable from this session).
  /// The key is marked in the first-touch filter, so a second-touch
  /// admission policy re-records it on its next visit too.
  void detachEntry(EntryId E) {
    CacheEntry &C = Entries[E];
    if (C.Key != NoId && C.Key < KeyToEntry.size() && KeyToEntry[C.Key] == E)
      KeyToEntry[C.Key] = NoId;
    if (C.Key < keyCount())
      touchKey(keyHash(C.Key));
    C.Head = ActionNode::NoNode;
  }

  //===-- First-touch filter -------------------------------------------------
  //
  // One bit per slot of a bitmap indexed by the top bits of a key's
  // hashKey value: set once a key was seen without being recorded. A
  // second-touch admission policy (Simulation::step) records a key only
  // when its bit is already set, so a key seen once never enters the key
  // pool. Collisions only admit a key early. The bitmap is allocated on
  // first use, sized from the budget, outside bytes() (it is a fixed
  // per-session overhead, not cache content) and emptied with the cache:
  // clear() and every rebuild. Never persisted.

  /// Marks \p Hash as seen; returns whether it already was.
  bool touchKey(uint64_t Hash) {
    if (Seen.empty())
      Seen.assign(filterWords(), 0);
    const uint64_t Slot = Hash >> SeenShift;
    uint64_t &W = Seen[Slot >> 6];
    const uint64_t Bit = uint64_t(1) << (Slot & 63);
    const bool Was = (W & Bit) != 0;
    W |= Bit;
    return Was;
  }
  /// Bits set in the filter (tests and diagnostics).
  uint64_t seenKeyBits() const;

  CacheEntry &entry(EntryId E) { return Entries[E]; }
  const CacheEntry &entry(EntryId E) const { return Entries[E]; }

  //===-- Node arena and data pool ------------------------------------------

  /// Allocates a node in the overlay arena with its data span starting at
  /// the current end of the (global) data pool. Returns the node's global
  /// id. The caller links it.
  uint32_t appendNode(int32_t ActionId) {
    uint32_t Idx = static_cast<uint32_t>(Base.NumNodes + NodeArena.size());
    NodeArena.emplace_back();
    NodeArena.back().ActionId = ActionId;
    NodeArena.back().DataOfs = dataSize();
    NodeSeal.push_back(0);
    VerifyMark.push_back(0);
    PendingXor = 0;
    notePeak();
    return Idx;
  }

  /// Mutable access is overlay-only: base nodes are never written (the
  /// backing mapping is typically PROT_READ).
  ActionNode &node(uint32_t I) {
    assert(I >= Base.NumNodes && "base nodes are immutable");
    return NodeArena[I - Base.NumNodes];
  }
  const ActionNode &node(uint32_t I) const {
    return I < Base.NumNodes ? Base.Nodes[I] : NodeArena[I - Base.NumNodes];
  }
  size_t nodeCount() const { return Base.NumNodes + NodeArena.size(); }
  size_t overlayNodeCount() const { return NodeArena.size(); }

  /// Raw arena bases for the replay loop (invalidated by recording): the
  /// loop resolves a global id I as I < baseNodeCount() ? baseNodes()[I]
  /// : overlayNodes()[I - baseNodeCount()], which the detached case
  /// (baseNodeCount() == 0) reduces to the plain arena walk.
  const ActionNode *baseNodes() const { return Base.Nodes; }
  const ActionNode *overlayNodes() const { return NodeArena.data(); }
  const uint64_t *baseSeals() const { return Base.Seals; }
  const uint64_t *overlaySeals() const { return NodeSeal.data(); }
  const int64_t *baseData() const { return Base.Data; }
  const int64_t *overlayData() const { return DataPool.data(); }

  //===-- Links --------------------------------------------------------------

  /// Links \p Child as \p Parent's fall-through successor. Plain parents
  /// are always freshly recorded overlay nodes (a complete Plain node
  /// already has a Next, and store validation enforces it), so this writes
  /// the arena directly.
  void setNext(uint32_t Parent, uint32_t Child) { node(Parent).Next = Child; }

  /// Links \p Child as \p Parent's successor for test outcome \p Edge.
  /// Overlay parents are written in place. A base parent is never
  /// mutated: the link goes into the private edge-patch table, which
  /// replay consults only when it finds OnValue[Edge] == NoNode (the path
  /// that would otherwise miss) — the hot replay walk never pays for it.
  void setTestSuccessor(uint32_t Parent, int Edge, uint32_t Child) {
    if (Parent >= Base.NumNodes) {
      assert(node(Parent).OnValue[Edge] == ActionNode::NoNode &&
             "successor already recorded");
      node(Parent).OnValue[Edge] = Child;
      return;
    }
    assert(Base.Nodes[Parent].OnValue[Edge] == ActionNode::NoNode &&
           "successor already recorded in the base");
    uint64_t Tag = edgeTag(Parent, Edge);
    assert(!Patches.count(Tag) && "successor already patched");
    Patches.emplace(Tag, Child);
  }

  /// \p Parent's successor for test outcome \p Edge, patches applied.
  uint32_t testSuccessor(uint32_t Parent, int Edge) const {
    uint32_t Succ = node(Parent).OnValue[Edge];
    if (Succ == ActionNode::NoNode && Parent < Base.NumNodes)
      return patchedSuccessor(edgeTag(Parent, Edge));
    return Succ;
  }

  /// Patch-table lookup by pre-computed edge tag (the replay loop already
  /// has the tag in hand on the miss path). NoNode when unpatched.
  uint32_t patchedSuccessor(uint64_t Tag) const {
    auto It = Patches.find(Tag);
    return It == Patches.end() ? ActionNode::NoNode : It->second;
  }

  void pushData(int64_t V) {
    DataPool.push_back(V);
    PendingXor ^= static_cast<uint64_t>(V);
    notePeak();
  }
  /// Bulk pushData: appends [V, V+N) in one insert and folds the whole
  /// span into the pending seal xor. Equivalent to N pushData calls —
  /// the pool grows monotonically, so one peak sample at the end sees
  /// the same maximum. The JIT's block-capture flush is the hot caller.
  void pushDataSpan(const int64_t *V, size_t N) {
    DataPool.insert(DataPool.end(), V, V + N);
    uint64_t X = 0;
    for (size_t I = 0; I != N; ++I)
      X ^= static_cast<uint64_t>(V[I]);
    PendingXor ^= X;
    notePeak();
  }
  /// Global pool size: base words below, overlay words above. A node's
  /// span never straddles the boundary (overlay nodes allocate at the
  /// global end; base spans are validated against the base extent).
  uint32_t dataSize() const {
    return static_cast<uint32_t>(Base.DataWords + DataPool.size());
  }
  /// Raw pool base for owned caches (asserts no base is attached —
  /// absolute pool indexing is only meaningful over a single arena).
  const int64_t *data() const {
    assert(!HasBase && "use spanData() with a base attached");
    return DataPool.data();
  }
  /// Resolves a span base pointer for [Ofs, Ofs+Len): relative indexing
  /// off the returned pointer replaces absolute pool indexing on replay.
  const int64_t *spanData(uint32_t Ofs) const {
    return Ofs < Base.DataWords ? Base.Data + Ofs
                                : DataPool.data() + (Ofs - Base.DataWords);
  }
  /// Mutable overlay pool base for fault injection only
  /// (inject::FaultInjector) — indices are overlay-relative. Invalidates
  /// verification marks: every overlay node re-verifies on next replay.
  int64_t *mutableData() {
    noteExternalMutation();
    return DataPool.data();
  }
  size_t overlayDataWords() const { return DataPool.size(); }
  /// Mutable overlay seal base for fault injection only
  /// (inject::FaultInjector) — indices are overlay-relative.
  uint64_t *mutableSeals() {
    noteExternalMutation();
    return NodeSeal.data();
  }

  //===-- Integrity seals ----------------------------------------------------

  /// Tag of the link a node hangs from: the entry head (bound to the
  /// entry's key) or an edge of an already-recorded parent (Edge -1 =
  /// Next, 0/1 = OnValue). Folding the incoming link into each node's seal
  /// makes link corruption — a Next/OnValue index flipped onto some other
  /// valid node — detectable at replay time, not just out-of-bounds links.
  /// Tags are injective by construction (kind bits below the shifted id),
  /// which detection only needs — a seal compare is exact, not
  /// probabilistic, so there is no reason to pay for hash mixing here.
  /// Tags are computed over *global* ids, so an overlay child hanging off
  /// a patched base edge seals identically to any other child — no
  /// re-homing at attach or promote time.
  static uint64_t headTag(KeyId K) { return static_cast<uint64_t>(K) << 2; }
  static uint64_t edgeTag(uint32_t Parent, int Edge) {
    return (static_cast<uint64_t>(Parent) << 2) |
           static_cast<uint64_t>(Edge + 2); // Edge -1/0/1 -> 1/2/3, head 0
  }
  /// The node-identity component of a seal: fields replay dispatches on,
  /// plus the End node's NextKey. The INDEX chain compares only the
  /// dynamic key words against NextKey and the key-static rest is restored
  /// from it, so a NextKey flipped onto another key must fail the seal.
  static uint64_t identityMix(const ActionNode &N) {
    return hashCombine(
        hashCombine(hashCombine(FNVOffset, static_cast<uint32_t>(N.ActionId)),
                    static_cast<uint64_t>(N.K)),
        N.NextKey);
  }

  /// Closes node \p I's seal: the placeholder-data xor accumulated since
  /// the node was appended, mixed with its identity and incoming link.
  /// Call exactly once per node, after its kind and data span are final.
  /// Overlay-only (base nodes were sealed by whoever recorded them).
  void sealNode(uint32_t I, uint64_t LinkTag) {
    NodeSeal[I - Base.NumNodes] = PendingXor ^ identityMix(node(I)) ^ LinkTag;
    PendingXor = 0;
  }
  uint64_t nodeSeal(uint32_t I) const {
    return I < Base.NumNodes ? Base.Seals[I] : NodeSeal[I - Base.NumNodes];
  }

  //===-- Verification epochs ------------------------------------------------
  //
  // Re-deriving a seal means xoring the node's whole placeholder span —
  // cheap once, expensive every replay (bulk Sync spans dominate). The
  // guarded replay therefore verifies each overlay node once per
  // *mutation epoch*: a counter bumped by every channel that can corrupt
  // the arenas (eviction compaction, snapshot loads, the mutable
  // injection accessors). A verified mark is bound to the incoming link
  // tag, so arriving at a node through a flipped-but-in-bounds edge never
  // matches a stale mark and forces full re-verification. Structural
  // bounds checks still run on every replay; only the data sweep is
  // epoch-gated.
  //
  // Base nodes use a simpler scheme: one byte per node, set on first
  // successful verification and never cleared. The base mapping is
  // read-only, CRC-checked and structurally validated at open, and no
  // runtime channel can flip its links or data, so one full seal sweep
  // per (session, node) is the honest cost.

  /// Invalidates all overlay verification marks. Call after mutating the
  /// node arena, seal array or data pool through any out-of-band channel.
  void noteExternalMutation() { ++Epoch; }

  /// The current mutation epoch. Consumers that cache derived views of the
  /// arenas (the JIT's trace bindings) record this when they bind and
  /// treat any change as invalidation.
  uint64_t mutationEpoch() const { return Epoch; }

  /// True when node \p I already passed seal verification (this epoch and
  /// through the same link, for overlay nodes).
  bool nodeVerified(uint32_t I, uint64_t IncomingTag) const {
    if (I < Base.NumNodes)
      return BaseVerified[I] != 0;
    return VerifyMark[I - Base.NumNodes] == (IncomingTag ^ epochMix());
  }
  void markVerified(uint32_t I, uint64_t IncomingTag) {
    if (I < Base.NumNodes)
      BaseVerified[I] = 1;
    else
      VerifyMark[I - Base.NumNodes] = IncomingTag ^ epochMix();
  }

  //===-- Budget and eviction ------------------------------------------------

  /// The real private footprint, derived from the backing containers in
  /// one place: key pool and table, entry vector, node arena, data pool
  /// and the edge-patch table. The attached base (shared, read-only) is
  /// deliberately excluded — budgeting evicts what this session owns.
  size_t bytes() const {
    return KeyPool.size() + Keys.size() * sizeof(KeyRecord) +
           KeyToEntry.size() * sizeof(EntryId) +
           Table.size() * sizeof(uint32_t) +
           Entries.size() * sizeof(CacheEntry) +
           NodeArena.size() * sizeof(ActionNode) +
           NodeSeal.size() * sizeof(uint64_t) +
           DataPool.size() * sizeof(int64_t) +
           Patches.size() * (sizeof(uint64_t) + sizeof(uint32_t) + 12);
  }

  /// True when the budget is exhausted; the owner should clear().
  bool overBudget() const { return bytes() > Budget; }

  /// Notes the peak footprint, then drops every entry, key and node (the
  /// paper's clear-on-full policy). With a base attached this resets to
  /// the base image instead: the overlay is dropped and the entry table
  /// re-seeded from the store. Any outstanding EntryIds, KeyIds and node
  /// indices become invalid.
  void clear();

  size_t entryCount() const { return Entries.size(); }
  const Stats &stats() const { return S; }
  void noteIndexChain(bool Hit) {
    ++(Hit ? S.IndexChainHits : S.IndexChainMisses);
  }
  /// Counts \p N steps that native code entered by an INDEX-chain hit:
  /// each one is a chain hit and a lookup hit.
  void noteChainedHits(uint64_t N) {
    S.IndexChainHits += N;
    S.Lookups += N;
    S.Hits += N;
  }
  /// For the native chain stub (JitAbi.h), which refreshes an entered
  /// entry's recency exactly as lookup() does: the entry table (it moves
  /// on create() and every rebuild) and the recency tick; and the
  /// mutation epoch it checks targets against.
  CacheEntry *entryTable() { return Entries.data(); }
  uint64_t *recencyTick() { return &Tick; }
  const uint64_t *epochCounter() const { return &Epoch; }

  //===-- Compaction ----------------------------------------------------------

  /// Copies the live portion of the cache — every entry whose recording
  /// is not detached, with base and overlay merged and edge patches
  /// applied — into a fresh, self-contained flat image, without mutating
  /// this cache. Node and key ids are renumbered densely and the
  /// integrity seals re-homed onto the new link tags, so the image
  /// validates stand-alone. Store promotion and snapshot compaction use
  /// it.
  FlatImage compactImage() const;

  /// Builds the open-addressed probe table (power-of-two, load < 2/3, at
  /// least \p MinSize slots) for \p Keys, whose ids start at \p FirstId.
  /// The incremental grower uses it, and the store writer persists its
  /// output so mapping a file costs no rehash.
  static std::vector<uint32_t>
  buildProbeTable(const std::vector<KeyRecord> &Keys, size_t MinSize = 0,
                  KeyId FirstId = 0);

  /// Replaces this cache's contents with \p Img, which must be a valid
  /// image (compactImage() output, or a cache image store::parseImage
  /// accepted). The cache comes back owned: any attached base is dropped.
  /// Statistics are preserved; outstanding EntryIds, KeyIds and node
  /// indices are invalidated.
  void adoptImage(FlatImage Img);

  //===-- Telemetry ----------------------------------------------------------

  /// Pushes the bookkeeping counters plus the live geometry (entries,
  /// keys, nodes, bytes, key_pool_bytes, peak_bytes, and the base/overlay
  /// split when a base is attached) into \p Sink, in the statsJson()
  /// "cache" key order (RuntimeMetrics.cpp).
  void exportMetrics(telemetry::MetricSink &Sink) const;
  /// Installs exportMetrics as a provider under \p Group.
  void registerMetrics(telemetry::MetricsRegistry &R,
                       std::string Group) const;

private:
  void notePeak() {
    size_t B = bytes();
    if (B > S.PeakBytes)
      S.PeakBytes = B;
  }

  void growTable();
  /// Empties the first-touch filter and re-bases the entries' birth ticks:
  /// every rebuild of the entry table calls it.
  void resetEntryHistory();
  /// Filter words: one bit per 64 budget bytes, a power of two between
  /// 2^12 and 2^24 bits; SeenShift picks the matching top hash bits.
  size_t filterWords();
  /// Drops the overlay and re-seeds entries/key→entry from the base.
  void resetToBase();

  size_t Budget;
  uint64_t Tick = 0;

  // The immutable base layer (all-zero when detached, so every threshold
  // compare degenerates to the plain owned-cache path).
  BaseArenas Base;
  bool HasBase = false;

  // Key table: open-addressed, power-of-two sized, linear probing. With a
  // base attached, Keys/KeyPool/Table hold only overlay keys (Table slots
  // store *global* ids); base keys are probed in the mapped base table.
  std::vector<char> KeyPool;
  std::vector<KeyRecord> Keys;      ///< overlay KeyId -> span + hash
  std::vector<EntryId> KeyToEntry;  ///< global KeyId -> entry or NoId
  std::vector<uint32_t> Table;      ///< slot -> global KeyId or NoId

  std::vector<CacheEntry> Entries;  ///< global (base copied at attach)
  /// Per entry: its LastUse when created or loaded (entryHit). Not in
  /// bytes(): bookkeeping, like the verification marks.
  std::vector<uint64_t> BornTick;
  std::vector<uint64_t> Seen; ///< the first-touch filter
  unsigned SeenShift = 64;
  std::vector<ActionNode> NodeArena;
  uint64_t epochMix() const { return Epoch * 0x9e3779b97f4a7c15ULL; }

  std::vector<uint64_t> NodeSeal; ///< parallel to NodeArena
  // Verification scratch (not part of bytes(): a guard overlay, not cache
  // content).
  std::vector<uint64_t> VerifyMark; ///< tag ^ epochMix() when verified
  std::vector<uint8_t> BaseVerified; ///< per base node: seal checked once
  uint64_t Epoch = 1;               ///< current mutation epoch
  std::vector<int64_t> DataPool;
  uint64_t PendingXor = 0; ///< data xor of the node being recorded

  /// Successors recorded for base Test nodes: edgeTag(Parent, Edge) ->
  /// overlay child. Consulted only when replay finds OnValue == NoNode.
  std::unordered_map<uint64_t, uint32_t> Patches;

  Stats S;
};

} // namespace rt
} // namespace facile

#endif // FACILE_RUNTIME_ACTIONCACHE_H
