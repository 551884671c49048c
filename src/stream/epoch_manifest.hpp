// Crash-consistency journal for the out-of-core epoch commit.
//
// ShardStreamEngine::apply_epoch mutates both store files in place:
// dirty input tiles are repacked, then dirty sink tiles are rewritten. A
// process death mid-batch leaves tiles half-committed — each one is caught
// later by its checksum, but without a journal the *set* of suspect tiles
// is unknown, so recovery would mean re-validating (or rebuilding) every
// tile of both stores.
//
// The manifest is a tiny write-ahead record fixing that set. Protocol:
//
//   1. before the first in-place write of an epoch, write
//      `<sink path>.epoch` listing the epoch's generation number, every
//      input tile about to be repacked, and every sink tile about to be
//      rewritten; fsync it;
//   2. apply the in-place writes (any order, any parallelism);
//   3. remove the manifest — the commit point.
//
// On open, a present manifest means a torn epoch: exactly the journaled
// tiles are suspect; everything else is bit-exact (fixed-size tiles at
// stable offsets — an in-place tile write touches no other tile's bytes).
// ShardStreamEngine::recover() repacks the journaled input tiles from the
// post-epoch matrix and rebuilds the journaled sink tiles from the repaired
// input store, converging to exactly the state a completed epoch would have
// produced. A manifest that fails its own checksum means the crash happened
// during step 1, before any store mutation — the stores are clean and the
// torn manifest is simply discarded.
//
// Format (little-endian, shard::checksum64 trailer over everything before
// it):
//
//   [magic "TIVEPOC2"][u64 generation]
//   [u32 input_count][u32 sink_count][input r,c u32 pairs...][sink pairs...]
//   [u64 checksum64]
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace tiv::stream {

struct EpochManifest {
  /// Monotone epoch counter (the engine's epochs_applied + 1 at write
  /// time) — lets recovery and tests tell *which* epoch tore.
  std::uint64_t generation = 0;
  /// Input-store tiles the epoch repacks in place, as (r, c).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> input_tiles;
  /// Sink tiles the epoch rewrites in place, as (r, c), r <= c.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sink_tiles;

  /// Durably writes the manifest to `path` (write + fsync; rename-free —
  /// a torn manifest is detected by its checksum and means "no mutation
  /// happened yet"). Throws std::runtime_error on I/O failure.
  void write(const std::string& path) const;

  /// Loads the manifest at `path`. nullopt when the file does not exist OR
  /// exists but fails its checksum (a crash during manifest write — the
  /// stores are untouched, so there is nothing to recover). Throws
  /// std::runtime_error only on hard I/O errors.
  static std::optional<EpochManifest> load(const std::string& path);

  /// Removes the manifest — the epoch's commit point. Missing file is fine
  /// (idempotent); other unlink failures throw std::runtime_error.
  static void clear(const std::string& path);

  /// The manifest path used for a given sink store path.
  static std::string path_for(const std::string& sink_path) {
    return sink_path + ".epoch";
  }
};

}  // namespace tiv::stream
