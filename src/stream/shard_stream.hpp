// Out-of-core live TIV pipeline — the dirty-epoch streaming engine
// (src/stream/) married to the tile stores (src/shard/ input,
// src/sink/ output).
//
// IncrementalSeverity keeps the packed view and the severity matrix in
// RAM; past the memory budget neither fits. A ShardStreamEngine holds both
// on disk and repairs both incrementally after every committed epoch:
//
//   1. An epoch's dirty-host set maps to dirty *input* tiles: an edge
//      update (a, b) changes exactly packed rows a and b and dirties both
//      endpoints, so a changed tile has a dirty host in its row band AND
//      in its column band — the dirty tiles are precisely
//      dirty_bands x dirty_bands. Each is rewritten in place with
//      TileStore::repack_tile (byte-identical to a fresh build, the
//      tile-granular mirror of DelayMatrixView::repack_row) and dropped
//      from the tile cache (the dirty-tile invalidation rule).
//   2. Before the repack, the exact screen of core/epoch_screen diffs the
//      dirty hosts' pre-epoch rows, read tile by tile from the input
//      store, against the mutated matrix and flags the incident edges
//      whose severity can change: those that changed themselves or have a
//      changed witness term that violates before or after the epoch.
//   3. Only the flagged edges are recomputed, by the repair loop both
//      engines share (core/edge_repair) over rows packed from the
//      post-epoch matrix, so the repair reads no input tile. Only the sink
//      tiles holding one are rewritten and committed with fresh
//      checksums; only those are dropped from the sink cache.
//
// After every epoch the sink contents are *bit-identical* to the in-memory
// DelayStream -> IncrementalSeverity -> all_severities path over the same
// mutated matrix (gtest-enforced in tests/test_shard_stream.cpp), while
// tracked memory stays within the configured input + output cache budgets
// (worker-local O(tile^2) scratch excluded, as everywhere in the streaming
// driver).
//
// Survivability (docs/RELIABILITY.md):
//
//   - Every tile read validates its checksum; a corrupt tile surfaces as
//     shard::CorruptTileError carrying the store path and coordinates, and
//     the engine *self-heals* instead of failing the query: a corrupt sink
//     tile is rebuilt from its band pair of the (trusted) input store, a
//     corrupt input tile is repacked from the attached live matrix
//     (attach_source), and the interrupted operation retries. Healed-tile
//     counts are in recovery_stats(). A heal during the screen's read of
//     the pre-epoch rows loses those rows' old values, so that epoch
//     recomputes every edge incident to a dirty host instead.
//   - Epoch commits are crash-safe: apply_epoch journals the tiles it is
//     about to rewrite (stream/epoch_manifest) before the first in-place
//     write and clears the journal after the last. recover() reopens the
//     stores of a killed process, replays exactly the journaled tiles, and
//     converges to the state the completed epoch would have produced —
//     bit-identical to the in-memory path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/epoch_screen.hpp"
#include "obs/metrics.hpp"
#include "shard/tile_cache.hpp"
#include "shard/tile_store.hpp"
#include "sink/severity_cache.hpp"
#include "sink/severity_tile_store.hpp"
#include "stream/delay_stream.hpp"

namespace tiv::shard {
class FaultInjector;
}

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

class ShardStreamEngine {
 public:
  /// Accounting for one apply_epoch call.
  struct EpochStats {
    std::size_t input_tiles_repacked = 0;
    std::size_t severity_tiles_committed = 0;
    /// Changed unordered entries the screen's diff found.
    std::size_t edges_changed = 0;
    /// Edges the screen flagged and the repair recomputed (every edge
    /// incident to a dirty host when a heal hit the screen).
    std::size_t edges_recomputed = 0;
  };

  /// Cumulative self-healing accounting, per store. A view over the
  /// engine's obs registry metrics ("engine.recovery.*" — maintained
  /// exactly once, see docs/OBSERVABILITY.md); counts read zero under
  /// TIV_OBS_DISABLE.
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
  explicit ShardStreamEngine(const delayspace::DelayMatrix& initial,
                             ShardStreamConfig config = {});
  ~ShardStreamEngine();

  ShardStreamEngine(const ShardStreamEngine&) = delete;
  ShardStreamEngine& operator=(const ShardStreamEngine&) = delete;

  /// Reopens the stores a previous engine (same paths in `config`) left on
  /// disk — after a crash or a clean shutdown with keep_files. Rejects a
  /// file whose header geometry does not match (matrix.size(),
  /// config.tile_dim). If a torn epoch manifest is present, replays it:
  /// the journaled input tiles are repacked from `matrix` (which must be
  /// the *post-epoch* matrix — DelayStream mutates it before apply_epoch
  /// runs) and the journaled sink tiles are rebuilt from the repaired
  /// input store, converging bit-identically to the completed epoch. The
  /// matrix is retained as the attached source (see attach_source) and
  /// must outlive the engine.
  static ShardStreamEngine recover(const delayspace::DelayMatrix& matrix,
                                   ShardStreamConfig config);

  /// Repairs input tiles and sink severities after an epoch that dirtied
  /// `dirty_hosts` (ascending, distinct — what DelayStream::commit_epoch
  /// returns). `matrix` must be the stream's mutated matrix (same size as
  /// at construction). Throws std::invalid_argument on a size change, an
  /// unsorted, duplicate or out-of-range host list, or a changed entry
  /// with an endpoint outside `dirty_hosts`, before the manifest is
  /// written or any tile rewritten. Crash-safe: the tiles about to be
  /// rewritten are journaled first, so a kill anywhere inside is
  /// recoverable via recover().
  EpochStats apply_epoch(const delayspace::DelayMatrix& matrix,
                         std::span<const HostId> dirty_hosts);

  /// Convenience: commit the stream's pending epoch and apply it.
  EpochStats apply_epoch(DelayStream& stream) {
    const Epoch epoch = stream.commit_epoch();
    return apply_epoch(stream.matrix(), epoch.dirty_hosts);
  }

  HostId size() const { return input_->size(); }
  std::uint32_t tile_dim() const { return input_->tile_dim(); }

  /// Attaches the live delay matrix as the repair source for corrupt
  /// *input* tiles (DelayStream keeps the full matrix in RAM; only the
  /// packed view and the severities are out-of-core). Without a source,
  /// input corruption outside apply_epoch is unrecoverable and rethrows.
  /// The matrix must outlive the engine or be detached (nullptr) first.
  void attach_source(const delayspace::DelayMatrix* matrix) {
    source_ = matrix;
  }

  /// Severity of edge (a, b), read through the budgeted sink cache —
  /// synchronized to the last applied epoch. Self-heals corrupt tiles
  /// (see RecoveryStats).
  float severity(HostId a, HostId b);
  /// Severity row a (size() floats) through the sink cache. Self-healing.
  void severity_row(HostId a, std::span<float> out);

  /// Epochs applied so far (the generation number journaled by the next
  /// epoch is epochs_applied() + 1).
  std::uint64_t epochs_applied() const { return epochs_applied_; }

  shard::CacheStats input_cache_stats() const { return input_cache_->stats(); }
  shard::CacheStats output_cache_stats() const {
    return sink_cache_->stats();
  }
  RecoveryStats recovery_stats() const {
    RecoveryStats s;
    s.input_tiles_recovered = recovery_.input_tiles_recovered.value();
    s.sink_tiles_recovered = recovery_.sink_tiles_recovered.value();
    s.io_retries = recovery_.io_retries.value();
    s.torn_epochs_replayed = recovery_.torn_epochs_replayed.value();
    s.input_read_retries = input_->read_retries();
    s.sink_read_retries = sink_->read_retries();
    return s;
  }
  const std::string& input_path() const { return input_->path(); }
  const std::string& sink_path() const { return sink_->path(); }

  /// Attach deterministic fault injectors (shard/fault_injector.hpp) to
  /// the two stores — the hook the soak tests and the recovery bench use.
  /// Injectors must outlive the engine or be detached (nullptr) first.
  void set_input_fault_injector(shard::FaultInjector* injector) {
    input_->set_fault_injector(injector);
  }
  void set_sink_fault_injector(shard::FaultInjector* injector) {
    sink_->set_fault_injector(injector);
  }

 private:
  struct RecoverTag {};
  ShardStreamEngine(RecoverTag, const delayspace::DelayMatrix& matrix,
                    ShardStreamConfig config);

  /// Recovery accounting: obs counters linked into the registry under
  /// "engine.recovery.*" (the engine never moves — recover() relies on
  /// guaranteed elision — so probes into these members stay valid).
  struct RecoveryCounters {
    obs::Counter input_tiles_recovered;
    obs::Counter sink_tiles_recovered;
    obs::Counter io_retries;
    obs::Counter torn_epochs_replayed;
    std::vector<obs::MetricsRegistry::Link> links;
  };
  void link_recovery_metrics();

  /// Runs `fn`, healing CorruptTileError (rebuild/repack the named tile)
  /// and retrying transient injected I/O errors, up to a bounded number of
  /// recovery actions. Rethrows what it cannot heal.
  template <typename Fn>
  auto with_recovery(Fn&& fn) -> decltype(fn());

  /// Heals one corrupt tile named by `e`, routing by store path: sink
  /// tiles rebuild from the input store, input tiles repack from the
  /// attached source. Rethrows `e` when it cannot (unknown path, no
  /// source).
  void heal(const shard::CorruptTileError& e);

  ShardStreamConfig config_;
  // Declaration order is lifetime order: caches hold references into their
  // stores and are destroyed first (reverse order).
  std::optional<shard::TileStore> input_;
  std::optional<shard::TileCache> input_cache_;
  std::optional<sink::SeverityTileStore> sink_;
  std::optional<sink::SeverityCache> sink_cache_;
  const delayspace::DelayMatrix* source_ = nullptr;
  std::uint64_t epochs_applied_ = 0;
  /// Input tiles healed so far — a plain count, unlike the registry
  /// counters (zero under TIV_OBS_DISABLE), so apply_epoch can tell that a
  /// heal hit its screen.
  std::uint64_t input_heals_ = 0;
  core::EpochScreen screen_;
  core::EpochEdges edges_;
  /// One byte per sink tile: written by the current epoch's repair.
  std::vector<std::uint8_t> sink_written_;
  RecoveryCounters recovery_;
};

}  // namespace tiv::stream
