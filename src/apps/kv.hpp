// Key-value request codec shared by the KV apps (Redis/SSDB models) and
// the validation clients.
//
// A request payload is a sequence of operations; values are generated
// deterministically from a seed so the client can verify a GET response
// against what it previously SET without storing the bytes itself. One key
// maps to one page in the app's KV region, so SET/GET traffic exercises
// the real content-page checkpoint path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nlc::apps {

enum class KvOpType : std::uint8_t { kSet = 1, kGet = 2 };

struct KvOp {
  KvOpType op = KvOpType::kSet;
  std::uint32_t key = 0;
  std::uint64_t seed = 0;   // value generator seed (kSet)
  std::uint16_t len = 0;    // value length (kSet), or result length (reply)
  bool found = false;       // reply: key existed
  std::uint64_t reply_seed = 0;  // reply to kGet: stored seed echoed back
};

inline constexpr std::size_t kKvOpWireSize = 24;

/// Deterministic value byte at position i for a (seed, len) value: byte
/// i % 8 (little-endian order) of splitmix64(seed + i / 8).
inline std::byte kv_value_byte(std::uint64_t seed, std::uint32_t i) {
  return static_cast<std::byte>(splitmix64(seed + i / 8) >> ((i % 8) * 8));
}

/// Calls f(byte) for each byte of the (seed, out-length) value in order,
/// one splitmix64 per 8-byte word; the bytes equal kv_value_byte's.
template <class F>
inline void kv_value_for_each(std::uint64_t seed, std::size_t len, F&& f) {
  for (std::size_t w = 0; w * 8 < len; ++w) {
    const std::uint64_t word = splitmix64(seed + w);
    const std::size_t n = std::min<std::size_t>(8, len - w * 8);
    for (std::size_t b = 0; b < n; ++b) {
      f(static_cast<std::byte>(word >> (b * 8)));
    }
  }
}

/// Writes the value of `seed` with length out.size() into `out`.
inline void kv_value_fill(std::uint64_t seed, std::span<std::byte> out) {
  std::byte* p = out.data();
  kv_value_for_each(seed, out.size(), [&p](std::byte b) { *p++ = b; });
}

inline std::vector<std::byte> kv_value_bytes(std::uint64_t seed,
                                             std::uint16_t len) {
  std::vector<std::byte> out(len);
  kv_value_fill(seed, out);
  return out;
}

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// FNV-1a over a byte range; used to verify that GET responses reflect
/// bytes that really round-tripped through checkpoint/restore.
inline std::uint64_t kv_content_hash(const std::byte* data,
                                     std::size_t len) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<std::uint64_t>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

/// kv_content_hash of the (seed, len) value, without materializing it.
inline std::uint64_t kv_value_hash(std::uint64_t seed, std::uint16_t len) {
  std::uint64_t h = kFnvOffset;
  kv_value_for_each(seed, len, [&h](std::byte b) {
    h ^= static_cast<std::uint64_t>(b);
    h *= kFnvPrime;
  });
  return h;
}

inline std::shared_ptr<std::vector<std::byte>> kv_encode(
    const std::vector<KvOp>& ops) {
  auto buf = std::make_shared<std::vector<std::byte>>(ops.size() *
                                                      kKvOpWireSize);
  std::byte* p = buf->data();
  for (const KvOp& op : ops) {
    std::uint8_t t = static_cast<std::uint8_t>(op.op);
    std::uint8_t f = op.found ? 1 : 0;
    std::memcpy(p, &t, 1);
    std::memcpy(p + 1, &f, 1);
    std::memcpy(p + 2, &op.len, 2);
    std::memcpy(p + 4, &op.key, 4);
    std::memcpy(p + 8, &op.seed, 8);
    std::memcpy(p + 16, &op.reply_seed, 8);
    p += kKvOpWireSize;
  }
  return buf;
}

inline std::vector<KvOp> kv_decode(const std::vector<std::byte>& buf) {
  NLC_CHECK_MSG(buf.size() % kKvOpWireSize == 0, "corrupt KV payload");
  std::vector<KvOp> ops(buf.size() / kKvOpWireSize);
  const std::byte* p = buf.data();
  for (KvOp& op : ops) {
    std::uint8_t t = 0, f = 0;
    std::memcpy(&t, p, 1);
    std::memcpy(&f, p + 1, 1);
    std::memcpy(&op.len, p + 2, 2);
    std::memcpy(&op.key, p + 4, 4);
    std::memcpy(&op.seed, p + 8, 8);
    std::memcpy(&op.reply_seed, p + 16, 8);
    op.op = static_cast<KvOpType>(t);
    op.found = f != 0;
    p += kKvOpWireSize;
  }
  return ops;
}

}  // namespace nlc::apps
