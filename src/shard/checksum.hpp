// The one checksum of every on-disk format in this repo: tile payloads of
// both tile stores (shard::TileStore for delay-matrix input,
// sink::SeverityTileStore for severity output), the epoch manifest, and
// the .tivtrace trailer.
//
// checksum64 is a word-parallel 64-bit hash in the xxHash64 mould: four
// independent lanes each fold one 64-bit word of every 32-byte stripe as
// acc = rotl(acc + w*P2, 31) * P1, the lanes merge by a sum of distinct
// rotations, the tail is folded word by word (the last partial word
// zero-padded — the length is mixed in first), and an xorshift-multiply
// avalanche finishes. It runs at several bytes per cycle where byte-serial
// FNV-1a managed one dependent multiply per byte, so it is cheap enough
// for every tile read, while a torn write, bit rot, or a foreign file
// still fails loudly as CorruptTileError instead of feeding garbage
// delays or severities into the analysis.
//
// Detection guarantee: a change confined to one 8-byte-aligned word of
// one input is always detected. The word enters exactly one lane round or
// tail round, and every step after it is a bijection of the state — a
// lane round is bijective in both the word (P2 odd) and the accumulator
// (P1 odd), the merge is a sum, the avalanche is invertible — so the
// final value must differ. Chaining keeps that property across buffers:
// the seed is added after the lane merge, so a buffer's hash is a
// bijection of the previous buffer's hash.
//
// Not xxHash64-compatible (the merge skips xxHash's per-lane merge rounds,
// which would break the bijection above). XOR-then-multiply (word-FNV)
// lanes were rejected: bit 63 passes through them linearly, so two
// sign-bit flips in the same lane cancel exactly.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace tiv::shard {

/// A tile whose stored bytes cannot be trusted — checksum mismatch or a
/// truncated tile body — as opposed to the plain std::runtime_error used
/// for hard I/O failures (pread errno, missing files). Carries the tile
/// coordinates and the store path so a recovery layer (the self-healing
/// hooks in stream::ShardStreamEngine) can rebuild exactly the damaged
/// tile instead of giving up on the whole store.
class CorruptTileError : public std::runtime_error {
 public:
  CorruptTileError(const std::string& store_name, std::string store_path,
                   std::uint32_t r, std::uint32_t c, const std::string& why)
      : std::runtime_error(store_name + ": tile (" + std::to_string(r) +
                           ", " + std::to_string(c) + ") " + why + ": " +
                           store_path),
        path_(std::move(store_path)),
        r_(r),
        c_(c) {}

  /// Path of the store file holding the damaged tile — how a handler
  /// watching several stores tells input corruption from sink corruption.
  const std::string& path() const { return path_; }
  std::uint32_t tile_row() const { return r_; }
  std::uint32_t tile_col() const { return c_; }

 private:
  std::string path_;
  std::uint32_t r_;
  std::uint32_t c_;
};

namespace checksum_detail {

inline constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
inline constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;

/// One lane round: bijective in `w` for a fixed `acc` and vice versa.
inline std::uint64_t lane_round(std::uint64_t acc, std::uint64_t w) {
  return std::rotl(acc + w * kP2, 31) * kP1;
}

/// Folds one tail word into the merged state (bijective in `w` and `h`).
inline std::uint64_t tail_round(std::uint64_t h, std::uint64_t w) {
  h ^= lane_round(0, w);
  return std::rotl(h, 27) * kP1 + kP4;
}

/// Host-order (little-endian on every supported target) 64-bit load.
inline std::uint64_t load_word(const unsigned char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

}  // namespace checksum_detail

/// Hashes `bytes` bytes at `data`. Chain calls over several buffers of one
/// record by passing the previous return value as `seed`.
inline std::uint64_t checksum64(const void* data, std::size_t bytes,
                                std::uint64_t seed = 0) {
  using namespace checksum_detail;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t v0 = kP1 + kP2;
  std::uint64_t v1 = kP2;
  std::uint64_t v2 = 0;
  std::uint64_t v3 = 0 - kP1;
  std::size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    v0 = lane_round(v0, load_word(p + i));
    v1 = lane_round(v1, load_word(p + i + 8));
    v2 = lane_round(v2, load_word(p + i + 16));
    v3 = lane_round(v3, load_word(p + i + 24));
  }
  std::uint64_t h = std::rotl(v0, 1) + std::rotl(v1, 7) + std::rotl(v2, 12) +
                    std::rotl(v3, 18) + seed + bytes;
  for (; i + 8 <= bytes; i += 8) h = tail_round(h, load_word(p + i));
  if (i < bytes) {
    std::uint64_t w = 0;  // zero-padded; the length is already in h
    std::memcpy(&w, p + i, bytes - i);
    h = tail_round(h, w);
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace tiv::shard
