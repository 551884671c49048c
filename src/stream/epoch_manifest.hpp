// Crash-consistency journal for the out-of-core epoch commit.
//
// ShardStreamEngine::apply_epoch mutates both store files in place:
// changed input tiles are repacked, then the sink tiles holding a flagged
// edge are rewritten. A process death mid-batch leaves tiles
// half-committed — each one is caught later by its checksum, but without a
// journal the *set* of suspect tiles is unknown, so recovery would mean
// re-validating (or rebuilding) every tile of both stores.
//
// The journal is one small file, `<sink path>.epoch`, that the engine
// keeps open for its whole life. It holds at most one live record, at
// offset 0, fixing that set. Protocol:
//
//   0. a fresh engine creates the file empty and fsyncs it and its
//      directory, once — a journal left at the path by an earlier run is
//      discarded with the stores it described;
//   1. before the first in-place write of an epoch, pwrite the epoch's
//      record — its generation number, every input tile about to be
//      repacked, and every sink tile about to be rewritten — at offset 0,
//      and fdatasync it;
//   2. apply the in-place writes (any order, any parallelism);
//   3. overwrite the record's magic in place — the commit point.
//
// On open, a live record means a torn epoch: exactly the journaled tiles
// are suspect; everything else is bit-exact (fixed-size tiles at stable
// offsets — an in-place tile write touches no other tile's bytes).
// ShardStreamEngine::recover() repacks the journaled input tiles from the
// post-epoch matrix and rebuilds the journaled sink tiles from the repaired
// input store, converging to exactly the state a completed epoch would have
// produced, then clears the record the same way. A record that fails its
// own checksum means the crash happened during step 1, before any store
// mutation — the stores are clean and the torn record is ignored.
//
// Neither the clear nor the tile writes are synced: a power loss can undo
// them (docs/RELIABILITY.md).
//
// Record format (little-endian, shard::checksum64 trailer over everything
// before it):
//
//   [magic "TIVEPOC2"][u64 generation]
//   [u32 input_count][u32 sink_count][input r,c u32 pairs...][sink pairs...]
//   [u64 checksum64]
//
// The counts give the record's length; bytes past its trailer are the
// stale tail of a longer earlier record and are ignored.
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

  /// Loads the live record of the journal at `path`. nullopt when the file
  /// does not exist, holds a cleared record, or its record is short or
  /// fails its checksum (a crash during the record's write — the stores
  /// are untouched, so there is nothing to recover). Throws
  /// std::runtime_error only on hard I/O errors.
  static std::optional<EpochManifest> load(const std::string& path);

  /// The journal path used for a given sink store path.
  static std::string path_for(const std::string& sink_path) {
    return sink_path + ".epoch";
  }
};

/// The open journal file of one engine (see the file comment).
class EpochJournal {
 public:
  /// Opens the journal at `path`, creating it if missing, and fsyncs it
  /// and its directory. `truncate` empties it: a fresh store starts with
  /// no record. Throws std::runtime_error on I/O failure.
  EpochJournal(const std::string& path, bool truncate);
  EpochJournal(const EpochJournal&) = delete;
  EpochJournal& operator=(const EpochJournal&) = delete;
  ~EpochJournal();

  /// Writes `m` as the live record at offset 0 and fdatasyncs it — durable
  /// before the epoch's first in-place write. Throws std::runtime_error.
  void write(const EpochManifest& m);

  /// Overwrites the live record's magic: the epoch's commit point. Not
  /// synced. Throws std::runtime_error.
  void clear();

 private:
  int fd_;
  std::string path_;
  std::vector<unsigned char> buf_;  ///< write(): the encoded record
};

}  // namespace tiv::stream
