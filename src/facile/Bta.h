//===- Bta.h - Binding-time analysis for Facile IR --------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binding-time analysis at the heart of the Facile compiler (paper
/// §4.1): a forward, flow-sensitive abstract interpretation over the
/// lowered step function that labels every instruction *run-time static*
/// (computable from the action-cache key alone, along the recorded control
/// path) or *dynamic* (must re-execute during fast replay).
///
/// Seeds follow the paper: literals and the simulated text segment are
/// rt-static; `init` globals are rt-static at step entry (they are the
/// key); all other globals are dynamic at entry; extern calls and dynamic
/// builtins are dynamic. Merges join towards dynamic, which bounds the
/// lattice chains and guarantees termination (paper §4.1's argument).
///
/// Arrays carry a single whole-array binding time, resolved by a restart
/// loop: an array is rt-static only if it is an `init` global (or a local
/// array) and *every* access uses rt-static indices/values; any violating
/// access demotes the array and the scalar analysis reruns.
///
/// Where a merge demotes an rt-static slot or global to dynamic, the edge
/// is split and a Sync instruction materialises the memoized value into
/// dynamic state. Before Ret, rt-static globals are flushed the same way
/// (the paper's §6.3-item-3 rt-static→dynamic flush) — except *key-static*
/// ones: `init` globals rt-static at every reachable Ret. Their end-of-step
/// value is fixed by the key and the recorded path, so the End node's next
/// key already holds it; the runtime restores them from that key instead
/// and compares only the other key words along the INDEX chain.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_FACILE_BTA_H
#define FACILE_FACILE_BTA_H

#include "src/facile/Lower.h"

#include <vector>

namespace facile {

/// Aggregate results of the analysis, reported for tests and EXPERIMENTS.md.
struct BtaStats {
  unsigned StaticInsts = 0;
  unsigned DynamicInsts = 0;
  unsigned SyncInsts = 0;
  unsigned SplitEdges = 0;
  unsigned ArrayRestarts = 0;
  unsigned KeyStaticWords = 0; ///< key words of key-static init globals
};

/// Runs BTA over \p LP in place: labels every instruction (Inst::Dynamic,
/// Inst::StaticOperands), decides array binding times, splits demoting
/// edges and inserts Sync instructions. Returns analysis statistics.
///
/// \p DynArrays / \p DynLocalArrays receive one flag per global / local
/// array: true when the array is dynamic (lives in the runtime store).
/// \p KeyStatic, when non-null, receives one flag per global: true for
/// key-static init globals, which get no Ret flush.
BtaStats annotateStepFunction(LoweredProgram &LP,
                              std::vector<bool> *DynArrays,
                              std::vector<bool> *DynLocalArrays,
                              std::vector<bool> *KeyStatic = nullptr);

} // namespace facile

#endif // FACILE_FACILE_BTA_H
