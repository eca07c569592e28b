//===- KeyStaticMix.h - Shared Facile program for key-static tests -*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One Facile program with every Ret-flush case, shared by the BTA test
/// that pins which globals are flushed (test_compiler.cpp) and the runtime
/// tests that run it on every engine (test_runtime2.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_TESTS_KEYSTATICMIX_H
#define FACILE_TESTS_KEYSTATICMIX_H

namespace facile {
namespace testprog {

/// Key-static scalar n and array q; init scalar pc, rt-static on one path
/// into Ret and dynamic on the other; demoted init array d; non-init
/// global last, rt-static at Ret. `probe` is a host extern.
inline const char *keyStaticMixSource() {
  return R"(
    extern probe(int) : int;
    init val pc = 0;
    init val n = 0;
    init val q = array(4){0};
    init val d = array(4){0};
    val last = 0;
    fun main() {
      q[n % 4] = (q[n % 4] + 1) % 3;
      d[n % 4] = probe(n);
      if (probe(pc) % 3 == 0) pc = probe(pc + 1) % 8;
      else pc = (pc + 1) % 8;
      last = n * 2;
      n = (n + 1) % 5;
    }
  )";
}

} // namespace testprog
} // namespace facile

#endif // FACILE_TESTS_KEYSTATICMIX_H
