// The tile store of the live severity engine (stream/severity_engine):
// the packed view and the severities held on disk, in two shard::TileFiles
// — the input (shard::kInputFormat) and the severity sink
// (shard::kSinkFormat) — each behind its own budgeted shard::TileCache
// ("cache.input", "cache.sink"). Past the memory budget neither fits in
// RAM; only DelayStream's matrix stays there.
//
// Its steps of the one epoch:
//   - pre-epoch rows: the dirty hosts' rows read tile by tile from the
//     input store (core::diff_dirty_rows), before anything is repacked.
//     The flags are exact unless a heal hit this read (see below).
//   - row update: a changed entry {x, w} lives in exactly two input tiles,
//     (x/T, w/T) and its mirror, and every other tile is byte-identical to
//     a fresh build already. With exact flags the epoch journals the tiles
//     of the screen's changed entries (core::EpochScreen::changes), then
//     rewrites each in place with shard::repack_tile (byte-identical to a
//     fresh build, the tile-granular mirror of DelayMatrixView::repack_row)
//     and drops it from the tile cache. When a heal hit the pre-epoch read,
//     the change list can miss entries; since DelayStream dirties both
//     endpoints of a changed entry, the epoch then repacks every tile with
//     a dirty host in its row band AND its column band, dirty_bands x
//     dirty_bands.
//   - result write: only the flagged edges are recomputed, by the repair
//     loop over rows packed from the post-epoch matrix
//     (core::repair_severities_to_sink), so the repair reads no input tile.
//     Only the sink tiles holding one are rewritten and committed with
//     fresh checksums; only those are dropped from the sink cache.
//   - reads: severity, severity_row and all_severities go through the
//     sink cache (core::sink_severity, core::sink_severity_row,
//     core::sink_severities).
//
// Tracked memory stays within the configured input + output cache budgets
// (worker-local O(tile^2) scratch excluded, as everywhere in the streaming
// driver).
//
// Survivability (docs/RELIABILITY.md):
//
//   - Every tile read validates its checksum; a corrupt tile surfaces as
//     shard::CorruptTileError carrying the store path and coordinates, and
//     the engine *self-heals* instead of failing the query: a corrupt sink
//     tile is rebuilt from its band pair of the (trusted) input file, a
//     corrupt input tile is repacked from the epoch's matrix or the
//     attached live matrix (attach_source), and the interrupted operation
//     retries. Healed-tile counts are in recovery_stats(). A heal during
//     the read of the pre-epoch rows loses those rows' old values, so that
//     epoch recomputes every edge incident to a dirty host instead.
//   - Epoch commits are crash-safe against process death: the engine keeps
//     one journal file open (stream/epoch_manifest), created empty by a
//     fresh engine. Before the first in-place write, the row update writes
//     and fdatasyncs a record naming the input tiles it repacks and the
//     sink tiles holding a flagged edge (exactly those the result write can
//     rewrite); after the last, the result write clears the record in
//     place — the commit point. recover() reopens the stores of a killed
//     process, replays exactly the journaled tiles, and converges to the
//     state the completed epoch would have produced — bit-identical to the
//     in-memory path. Neither the clear nor the tile writes are synced, so
//     a power loss is not covered (docs/RELIABILITY.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "shard/tile_cache.hpp"
#include "shard/tile_file.hpp"
#include "stream/epoch_manifest.hpp"
#include "stream/severity_engine.hpp"

namespace tiv::stream {

struct ShardStreamConfig {
  /// Spill paths for the input tile store and the severity sink; "" derives
  /// unique names under the system temp directory.
  std::string input_path;
  std::string sink_path;
  std::uint32_t tile_dim = shard::kDefaultTileDim;
  /// Byte budgets for the two tile caches — the engine's tracked memory.
  std::size_t input_budget_bytes = std::size_t{4} << 20;
  std::size_t output_budget_bytes = std::size_t{4} << 20;
  /// Keep the on-disk stores when the engine is destroyed (default:
  /// removed). Crash-recovery
  /// harnesses set this so the files of a "killed" engine survive for
  /// recover().
  bool keep_files = false;
};

class ShardStreamEngine final : public SeverityEngine {
 public:
  /// Cumulative self-healing accounting, per store: the engine's own
  /// counts, kept on its calling thread. Each event also adds to the
  /// registry counter of the same name under "engine.recovery.*"
  /// (docs/OBSERVABILITY.md).
  struct RecoveryStats {
    /// Input tiles repacked from the attached source matrix after failing
    /// their checksum.
    std::size_t input_tiles_recovered = 0;
    /// Sink tiles rebuilt from their band pair after failing their
    /// checksum.
    std::size_t sink_tiles_recovered = 0;
    /// Operations retried after a (transient) injected/device read error.
    std::size_t io_retries = 0;
    /// Torn epochs found and replayed by recover().
    std::size_t torn_epochs_replayed = 0;
    /// Checksum mismatches absorbed by a clean re-read at the tile-file
    /// layer (transient in-flight corruption; never reached the heal
    /// path). Per store — see shard::TileFile::read_retries.
    std::uint64_t input_read_retries = 0;
    std::uint64_t sink_read_retries = 0;
  };

  /// Spills `initial` to the input tile store, creates the severity sink,
  /// and runs the full out-of-core build once — the only O(n^3) step;
  /// every epoch after is proportional to the churn.
  explicit ShardStreamEngine(const DelayMatrix& initial,
                             ShardStreamConfig config = {});
  ~ShardStreamEngine() override;

  /// Reopens the stores a previous engine (same paths in `config`) left on
  /// disk — after a crash or a clean shutdown with keep_files. Rejects a
  /// file whose header geometry does not match (matrix.size(),
  /// config.tile_dim). If the journal holds a torn epoch's record, replays
  /// it:
  /// the journaled input tiles are repacked from `matrix` (which must be
  /// the *post-epoch* matrix — DelayStream mutates it before apply_epoch
  /// runs) and the journaled sink tiles are rebuilt from the repaired
  /// input store, converging bit-identically to the completed epoch. The
  /// matrix is retained as the attached source (see attach_source) and
  /// must outlive the engine.
  static ShardStreamEngine recover(const DelayMatrix& matrix,
                                   ShardStreamConfig config);

  /// Attaches the live delay matrix as the repair source for corrupt
  /// *input* tiles (DelayStream keeps the full matrix in RAM; only the
  /// packed view and the severities are out-of-core). Without a source,
  /// input corruption outside apply_epoch is unrecoverable and rethrows.
  /// The matrix must outlive the engine or be detached (nullptr) first.
  void attach_source(const DelayMatrix* matrix) { source_ = matrix; }

  shard::CacheStats input_cache_stats() const { return input_cache_->stats(); }
  shard::CacheStats output_cache_stats() const {
    return sink_cache_->stats();
  }
  RecoveryStats recovery_stats() const {
    RecoveryStats s = recovery_;
    s.input_read_retries = input_.read_retries();
    s.sink_read_retries = sink_.read_retries();
    return s;
  }
  const std::string& input_path() const { return input_.path(); }
  const std::string& sink_path() const { return sink_.path(); }

  /// Attach deterministic fault injectors (shard/fault_injector.hpp) to
  /// the two stores — the hook the soak tests and the recovery bench use.
  /// Injectors must outlive the engine or be detached (nullptr) first.
  void set_input_fault_injector(shard::FaultInjector* injector) {
    input_.set_fault_injector(injector);
  }
  void set_sink_fault_injector(shard::FaultInjector* injector) {
    sink_.set_fault_injector(injector);
  }

 private:
  struct RecoverTag {};
  ShardStreamEngine(RecoverTag, const DelayMatrix& matrix,
                    ShardStreamConfig config);

  bool diff_rows(const DelayMatrix& matrix,
                 std::span<const HostId> dirty_hosts,
                 core::EpochScreen& screen) override;
  void update_rows(const DelayMatrix& matrix,
                   std::span<const HostId> dirty_hosts,
                   const core::EpochScreen* screen,
                   const core::EpochEdges& edges,
                   EpochStats& stats) override;
  void write_results(const DelayMatrix& matrix,
                     std::span<const HostId> dirty_hosts,
                     const core::EpochEdges& edges,
                     EpochStats& stats) override;
  /// Reads through the budgeted sink cache; self-heal corrupt tiles (see
  /// RecoveryStats).
  float read_severity(HostId a, HostId b) override;
  void read_severity_row(HostId a, std::span<float> out) override;
  void read_all_severities(core::SeverityMatrix& out) override;

  /// Opens the two tile files at the configured paths, writable and
  /// geometry-checked against (n, config_.tile_dim), builds their caches
  /// and looks up the engine's recovery counters.
  void open_files(HostId n);

  /// Runs `fn`, healing CorruptTileError (rebuild/repack the named tile)
  /// and retrying transient injected I/O errors, up to a bounded number of
  /// recovery actions. `source` repairs corrupt input tiles: the epoch's
  /// matrix while an epoch applies, the attached source otherwise.
  /// Rethrows what it cannot heal.
  template <typename Fn>
  auto with_recovery(const DelayMatrix* source, Fn&& fn) -> decltype(fn());

  /// Heals one corrupt tile named by `e`, routing by file path: sink
  /// tiles rebuild from the input file, input tiles repack from `source`.
  /// Rethrows `e` when it cannot (unknown path, no source).
  void heal(const shard::CorruptTileError& e, const DelayMatrix* source);

  ShardStreamConfig config_;
  // Declaration order is lifetime order: caches hold references into their
  // files and are destroyed first (reverse order).
  shard::TileFile input_;
  std::optional<shard::TileCache> input_cache_;
  shard::TileFile sink_;
  std::optional<shard::TileCache> sink_cache_;
  const DelayMatrix* source_ = nullptr;
  /// The open journal file and the record of the epoch in flight: written
  /// by update_rows, cleared by write_results.
  std::optional<EpochJournal> journal_;
  EpochManifest manifest_;
  /// One byte per sink tile: written by the current epoch's repair.
  std::vector<std::uint8_t> sink_written_;
  /// The recovery counts; recovery_stats() fills the read-retry fields
  /// from the files.
  RecoveryStats recovery_;
  /// The "engine.recovery.*" registry counters, looked up once by
  /// open_files().
  struct RecoveryMetrics {
    obs::Counter* input_tiles_recovered;
    obs::Counter* sink_tiles_recovered;
    obs::Counter* io_retries;
    obs::Counter* torn_epochs_replayed;
  };
  RecoveryMetrics recovery_metrics_{};
};

}  // namespace tiv::stream
