//===- FaultInjector.cpp - Seeded fault-injection campaigns ---------------===//

#include "src/inject/FaultInjector.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

using namespace facile;
using namespace facile::inject;

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

static bool parseRatePpm(const std::string &V, uint32_t &Out) {
  char *End = nullptr;
  double D = std::strtod(V.c_str(), &End);
  // Negated so NaN, which compares false both ways, is rejected too.
  if (End == V.c_str() || *End != '\0' || !(D >= 0.0 && D <= 1.0))
    return false;
  Out = static_cast<uint32_t>(D * 1'000'000.0 + 0.5);
  return true;
}

bool InjectSpec::parse(const std::string &Text, InjectSpec &Out,
                       std::string &Err) {
  InjectSpec S;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Comma = Text.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Text.size();
    std::string Field = Text.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Field.empty())
      continue;
    size_t Colon = Field.find(':');
    if (Colon == std::string::npos) {
      Err = "field '" + Field + "' is not key:value";
      return false;
    }
    std::string Key = Field.substr(0, Colon);
    std::string Val = Field.substr(Colon + 1);
    bool Ok;
    if (Key == "seed") {
      char *End = nullptr;
      S.Seed = std::strtoull(Val.c_str(), &End, 10);
      Ok = End != Val.c_str() && *End == '\0';
    } else if (Key == "mem") {
      Ok = parseRatePpm(Val, S.MemPpm);
    } else if (Key == "cache") {
      Ok = parseRatePpm(Val, S.CachePpm);
    } else if (Key == "extern") {
      Ok = parseRatePpm(Val, S.ExternPpm);
    } else if (Key == "plan") {
      Ok = parseRatePpm(Val, S.PlanPpm);
    } else {
      Err = "unknown key '" + Key + "'";
      return false;
    }
    if (!Ok) {
      Err = "bad value for '" + Key + "': " + Val;
      return false;
    }
  }
  Out = S;
  return true;
}

//===----------------------------------------------------------------------===//
// Injection
//===----------------------------------------------------------------------===//

void FaultInjector::arm() {
  Sim.setExternFaultHook([this](uint32_t) {
    if (Spec.ExternPpm != 0 && R.chance(Spec.ExternPpm, 1'000'000)) {
      ++C.ExternFails;
      return true;
    }
    return false;
  });
}

void FaultInjector::inject() {
  if (Spec.MemPpm != 0 && R.chance(Spec.MemPpm, 1'000'000))
    flipMemoryBit();
  if (Spec.CachePpm != 0 && R.chance(Spec.CachePpm, 1'000'000))
    flipCacheBit();
  if (Spec.PlanPpm != 0 && R.chance(Spec.PlanPpm, 1'000'000))
    truncatePlan();
}

void FaultInjector::flipMemoryBit() {
  const isa::TargetImage &Img = Sim.image();
  // Aim at the segments the workload actually touches; a flip in untouched
  // space would be a no-op and dilute the campaign.
  uint32_t Base = 0, Size = 0;
  uint32_t TextSize = static_cast<uint32_t>(Img.Text.size()) * 4;
  uint32_t DataSize = static_cast<uint32_t>(Img.Data.size());
  uint32_t Pick = static_cast<uint32_t>(R.below(TextSize + DataSize + 4096));
  if (Pick < TextSize) {
    Base = Img.TextBase;
    Size = TextSize;
  } else if (Pick < TextSize + DataSize) {
    Base = Img.DataBase;
    Size = DataSize;
  } else {
    Base = 0; // low memory: stack and scratch space
    Size = 4096;
  }
  uint32_t Addr = Base + static_cast<uint32_t>(R.below(Size));
  TargetMemory &Mem = Sim.memory();
  uint8_t V = Mem.read8(Addr);
  Mem.write8(Addr, static_cast<uint8_t>(V ^ (1u << R.below(8))));
  ++C.MemFlips;
}

void FaultInjector::flipCacheBit() {
  rt::ActionCache &AC = Sim.mutableCache();
  // Only the private overlay is writable: with a store base attached the
  // base arenas live in a PROT_READ mapping, so the campaign corrupts
  // what this session owns (which is also the honest model — the base is
  // CRC-checked at open and immutable thereafter).
  size_t N = AC.overlayNodeCount();
  if (N == 0)
    return;
  switch (R.below(3)) {
  case 0: { // node record: links, action id, kind, data span
    uint32_t Idx =
        static_cast<uint32_t>(AC.baseNodeCount() + R.below(N));
    auto *Bytes = reinterpret_cast<uint8_t *>(&AC.node(Idx));
    Bytes[R.below(sizeof(rt::ActionNode))] ^=
        static_cast<uint8_t>(1u << R.below(8));
    // node() is the runtime's own recording accessor and does not bump
    // the mutation epoch; an out-of-band corruption must.
    AC.noteExternalMutation();
    ++C.CacheNodeFlips;
    break;
  }
  case 1: { // integrity seal itself (overlay-relative index)
    AC.mutableSeals()[R.below(N)] ^= 1ULL << R.below(64);
    ++C.CacheSealFlips;
    break;
  }
  default: { // placeholder data pool (overlay-relative index)
    if (AC.overlayDataWords() == 0)
      return;
    AC.mutableData()[R.below(AC.overlayDataWords())] ^= 1LL << R.below(64);
    ++C.CachePoolFlips;
    break;
  }
  }
}

void FaultInjector::truncatePlan() {
  rt::ExecPlan &P = Sim.mutablePlan();
  // Drop tail instructions from one of the packed streams; the plan's
  // shape check (ExecPlan::shapeOk) no longer frames and the next step
  // raises PlanCorrupt.
  if (R.below(2) == 0) {
    if (P.Code.empty())
      return;
    P.Code.resize(P.Code.size() - 1 - R.below(std::min<size_t>(4, P.Code.size())));
  } else {
    if (P.Fast.empty())
      return;
    P.Fast.resize(P.Fast.size() - 1 - R.below(std::min<size_t>(4, P.Fast.size())));
  }
  ++C.PlanTruncations;
}
