//===- Protocol.cpp - facilesimd wire protocol helpers ---------------------===//

#include "src/server/Protocol.h"

#include <array>

using namespace facile;
using namespace facile::server;

static const char B64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

std::string server::base64Encode(const uint8_t *Data, size_t N) {
  std::string Out;
  Out.reserve((N + 2) / 3 * 4);
  size_t I = 0;
  for (; I + 3 <= N; I += 3) {
    uint32_t V = (static_cast<uint32_t>(Data[I]) << 16) |
                 (static_cast<uint32_t>(Data[I + 1]) << 8) | Data[I + 2];
    Out.push_back(B64Alphabet[(V >> 18) & 63]);
    Out.push_back(B64Alphabet[(V >> 12) & 63]);
    Out.push_back(B64Alphabet[(V >> 6) & 63]);
    Out.push_back(B64Alphabet[V & 63]);
  }
  if (I + 1 == N) {
    uint32_t V = static_cast<uint32_t>(Data[I]) << 16;
    Out.push_back(B64Alphabet[(V >> 18) & 63]);
    Out.push_back(B64Alphabet[(V >> 12) & 63]);
    Out.push_back('=');
    Out.push_back('=');
  } else if (I + 2 == N) {
    uint32_t V = (static_cast<uint32_t>(Data[I]) << 16) |
                 (static_cast<uint32_t>(Data[I + 1]) << 8);
    Out.push_back(B64Alphabet[(V >> 18) & 63]);
    Out.push_back(B64Alphabet[(V >> 12) & 63]);
    Out.push_back(B64Alphabet[(V >> 6) & 63]);
    Out.push_back('=');
  }
  return Out;
}

bool server::base64Decode(std::string_view Text, std::vector<uint8_t> &Out) {
  if (Text.size() % 4 != 0)
    return false;
  // Inverse alphabet; 0xff marks illegal bytes.
  static const auto Inv = [] {
    std::array<uint8_t, 256> T{};
    T.fill(0xff);
    for (unsigned I = 0; I != 64; ++I)
      T[static_cast<unsigned char>(B64Alphabet[I])] = static_cast<uint8_t>(I);
    return T;
  }();
  Out.clear();
  Out.reserve(Text.size() / 4 * 3);
  for (size_t I = 0; I < Text.size(); I += 4) {
    unsigned Pad = 0;
    uint32_t V = 0;
    for (unsigned J = 0; J != 4; ++J) {
      unsigned char C = static_cast<unsigned char>(Text[I + J]);
      if (C == '=') {
        // Padding only in the last two positions of the final quad.
        if (I + 4 != Text.size() || J < 2)
          return false;
        ++Pad;
        V <<= 6;
        continue;
      }
      if (Pad != 0 || Inv[C] == 0xff)
        return false;
      V = (V << 6) | Inv[C];
    }
    Out.push_back(static_cast<uint8_t>((V >> 16) & 0xff));
    if (Pad < 2)
      Out.push_back(static_cast<uint8_t>((V >> 8) & 0xff));
    if (Pad < 1)
      Out.push_back(static_cast<uint8_t>(V & 0xff));
  }
  return true;
}

void server::writeRequestId(json::Writer &W, const json::Value *Id) {
  W.key("id");
  if (!Id) {
    W.null();
    return;
  }
  switch (Id->kind()) {
  case json::Value::Kind::Int:
    W.value(Id->intOr(0));
    break;
  case json::Value::Kind::Str:
    W.value(std::string_view(Id->str()));
    break;
  case json::Value::Kind::Double:
    W.value(Id->doubleOr(0.0));
    break;
  default:
    W.null();
    break;
  }
}

std::string server::errorResponse(const json::Value *Id, const char *Code,
                                  std::string_view Message,
                                  uint64_t RetryAfterMs) {
  json::Writer W;
  W.beginObject();
  writeRequestId(W, Id);
  W.field("ok", false);
  W.objectField("error")
      .field("code", std::string_view(Code))
      .field("message", Message);
  if (std::string_view(Code) == ErrCode::Overloaded)
    W.field("retry_after_ms", RetryAfterMs);
  W.endObject();
  W.endObject();
  return W.take();
}

void server::beginOkResponse(json::Writer &W, const json::Value *Id) {
  W.beginObject();
  writeRequestId(W, Id);
  W.field("ok", true);
}
