#include "stream/shard_stream.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/shard_severity.hpp"
#include "obs/trace.hpp"
#include "shard/fault_injector.hpp"
#include "shard/tile_store.hpp"

namespace tiv::stream {
namespace {

obs::Counter& engine_tiles_repacked() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("engine.input_tiles_repacked");
  return c;
}
obs::Counter& engine_sink_tiles_committed() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "engine.severity_tiles_committed");
  return c;
}

std::string derive_path(const std::string& configured, const char* tag) {
  if (!configured.empty()) return configured;
  static std::atomic<unsigned> counter{0};
  const auto name = std::string("tiv_shard_stream_") + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1)) + ".tiles";
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Ceiling on heal/retry actions per engine operation: generous enough for
/// a soak run's worth of injected faults inside one repair pass, small
/// enough that persistent unhealable damage (or an injector so hot the
/// heal path itself never completes) fails loudly instead of spinning.
constexpr int kMaxRecoveryActions = 256;

}  // namespace

ShardStreamEngine::ShardStreamEngine(const DelayMatrix& initial,
                                     ShardStreamConfig config)
    : SeverityEngine(initial.size(), "epoch"),
      config_(std::move(config)) {
  config_.input_path = derive_path(config_.input_path, "in");
  config_.sink_path = derive_path(config_.sink_path, "sev");
  // The destructor never runs for a partially-constructed engine, so a
  // failure after the spill files appear (disk full during the sink
  // create, an I/O error in the initial build) must clean them up here —
  // they are matrix-sized, and keep_files promised removal.
  struct SpillGuard {
    const ShardStreamConfig& config;
    bool armed = true;
    ~SpillGuard() {
      if (!armed || config.keep_files) return;
      std::error_code ec;  // best-effort, fds may still be open (POSIX ok)
      std::filesystem::remove(config.input_path, ec);
      std::filesystem::remove(config.sink_path, ec);
      std::filesystem::remove(EpochManifest::path_for(config.sink_path), ec);
    }
  } guard{config_};

  // The journal starts empty, before the stores are overwritten: a record
  // an earlier engine left at this path describes stores that are gone.
  journal_.emplace(EpochManifest::path_for(config_.sink_path),
                   /*truncate=*/true);
  shard::write_matrix(config_.input_path, initial, config_.tile_dim);
  shard::create_sink(config_.sink_path, initial.size(), config_.tile_dim);
  open_files(initial.size());
  core::all_severities_to_sink(*input_cache_, sink_);
  guard.armed = false;
}

ShardStreamEngine::ShardStreamEngine(RecoverTag, const DelayMatrix& matrix,
                                     ShardStreamConfig config)
    : SeverityEngine(matrix.size(), "epoch"),
      config_(std::move(config)),
      source_(&matrix) {
  if (config_.input_path.empty() || config_.sink_path.empty()) {
    throw std::invalid_argument(
        "ShardStreamEngine::recover: input_path and sink_path must name the "
        "existing store files");
  }
  // Geometry-checked opens: a foreign or stale file (different n or
  // tile_dim than this engine expects) is rejected here instead of
  // serving garbage tiles later.
  open_files(matrix.size());

  const std::string journal_path = EpochManifest::path_for(config_.sink_path);
  journal_.emplace(journal_path, /*truncate=*/false);
  const auto manifest = EpochManifest::load(journal_path);
  if (!manifest.has_value()) return;  // clean shutdown (or torn record
                                      // write — stores untouched either way)

  // The record's checksum proves it intact, not sane: every journaled
  // coordinate must name a tile of these files before anything is
  // rewritten (TileFile's own range check would throw only after the
  // tiles journaled before the bad one were rewritten).
  const std::uint32_t bands = input_.tiles_per_side();
  for (const auto& [r, c] : manifest->input_tiles) {
    if (r >= bands || c >= bands) {
      throw std::runtime_error(
          "ShardStreamEngine::recover: manifest names input tile (" +
          std::to_string(r) + ", " + std::to_string(c) + ") outside " +
          std::to_string(bands) + " bands");
    }
  }
  for (const auto& [r, c] : manifest->sink_tiles) {
    if (r > c || c >= bands) {
      throw std::runtime_error(
          "ShardStreamEngine::recover: manifest names sink tile (" +
          std::to_string(r) + ", " + std::to_string(c) +
          ") outside the upper triangle of " + std::to_string(bands) +
          " bands");
    }
  }

  obs::Span span("recovery-action");
  // Torn epoch: only the journaled tiles are suspect. Re-repack every
  // journaled input tile from the post-epoch matrix (idempotent for the
  // ones that did land), then rebuild every journaled sink tile from the
  // now-consistent input store in one pooled pass of the full build's
  // band-pair walk, so each converges to exactly the bytes the completed
  // epoch would have written. A corrupt input tile met by the pass is
  // healed from the matrix and the pass retried.
  for (const auto& [r, c] : manifest->input_tiles) {
    shard::repack_tile(input_, matrix, r, c);
    input_cache_->invalidate(r, c);
  }
  with_recovery(source_, [&] {
    core::rebuild_sink_tiles(*input_cache_, sink_, manifest->sink_tiles);
    return 0;
  });
  for (const auto& [r, c] : manifest->sink_tiles) sink_cache_->invalidate(r, c);
  journal_->clear();
  epochs_applied_ = manifest->generation;
  ++recovery_.torn_epochs_replayed;
  recovery_metrics_.torn_epochs_replayed->increment();
}

void ShardStreamEngine::open_files(HostId n) {
  input_ = shard::TileFile::open(shard::kInputFormat, config_.input_path,
                                 /*writable=*/true, n, config_.tile_dim);
  input_cache_.emplace(input_, config_.input_budget_bytes, "cache.input");
  sink_ = shard::TileFile::open(shard::kSinkFormat, config_.sink_path,
                                /*writable=*/true, n, config_.tile_dim);
  sink_cache_.emplace(sink_, config_.output_budget_bytes, "cache.sink");
  sink_written_.assign(sink_.tile_count(), 0);
  auto& reg = obs::MetricsRegistry::instance();
  recovery_metrics_ = {&reg.counter("engine.recovery.input_tiles_recovered"),
                       &reg.counter("engine.recovery.sink_tiles_recovered"),
                       &reg.counter("engine.recovery.io_retries"),
                       &reg.counter("engine.recovery.torn_epochs_replayed")};
}

ShardStreamEngine ShardStreamEngine::recover(const DelayMatrix& matrix,
                                             ShardStreamConfig config) {
  return ShardStreamEngine(RecoverTag{}, matrix, std::move(config));
}

ShardStreamEngine::~ShardStreamEngine() {
  if (config_.keep_files) return;
  // Best-effort cleanup; the files' fds close in the member destructors
  // after this body (unlink-while-open is fine on POSIX).
  std::error_code ec;
  std::filesystem::remove(config_.input_path, ec);
  std::filesystem::remove(config_.sink_path, ec);
  std::filesystem::remove(EpochManifest::path_for(config_.sink_path), ec);
}

void ShardStreamEngine::heal(const shard::CorruptTileError& e,
                             const DelayMatrix* source) {
  obs::Span span("recovery-action");
  const std::uint32_t r = e.tile_row();
  const std::uint32_t c = e.tile_col();
  if (e.path() == sink_.path()) {
    // A sink tile is pure function of the input file: rebuild its band
    // pair from scratch — bit-identical to what a full build would write.
    const std::pair<std::uint32_t, std::uint32_t> tile{r, c};
    core::rebuild_sink_tiles(*input_cache_, sink_, {&tile, 1});
    sink_cache_->invalidate(r, c);
    ++recovery_.sink_tiles_recovered;
    recovery_metrics_.sink_tiles_recovered->increment();
    return;
  }
  if (e.path() == input_.path() && source != nullptr) {
    // The live matrix (DelayStream keeps it in RAM) is the ground truth
    // for input tiles; repack is byte-identical to a fresh build.
    shard::repack_tile(input_, *source, r, c);
    input_cache_->invalidate(r, c);
    ++recovery_.input_tiles_recovered;
    recovery_metrics_.input_tiles_recovered->increment();
    return;
  }
  throw e;  // foreign store, or input damage with no repair source
}

template <typename Fn>
auto ShardStreamEngine::with_recovery(const DelayMatrix* source, Fn&& fn)
    -> decltype(fn()) {
  int actions = 0;
  for (;;) {
    try {
      return fn();
    } catch (const shard::CorruptTileError& caught) {
      // Heal the named tile, then retry the operation. The heal itself
      // reads tiles and can trip over *another* corrupt tile (or an
      // injected I/O error): heal innermost-first and let the outer retry
      // find whatever is still broken — `e` names the tile to heal next.
      // InjectedCrash is never caught — a simulated kill must propagate
      // to the harness.
      shard::CorruptTileError e = caught;
      for (;;) {
        if (++actions > kMaxRecoveryActions) throw;
        try {
          heal(e, source);
          break;
        } catch (const shard::CorruptTileError& inner) {
          e = inner;
        } catch (const shard::InjectedIoError&) {
          ++recovery_.io_retries;
          recovery_metrics_.io_retries->increment();
        }
      }
    } catch (const shard::InjectedIoError&) {
      if (++actions > kMaxRecoveryActions) throw;
      ++recovery_.io_retries;
      recovery_metrics_.io_retries->increment();
    }
  }
}

float ShardStreamEngine::read_severity(HostId a, HostId b) {
  return with_recovery(source_,
                       [&] { return core::sink_severity(*sink_cache_, a, b); });
}

void ShardStreamEngine::read_severity_row(HostId a, std::span<float> out) {
  with_recovery(source_, [&] {
    core::sink_severity_row(*sink_cache_, a, out);
    return 0;
  });
}

bool ShardStreamEngine::diff_rows(const DelayMatrix& matrix,
                                  std::span<const HostId> dirty_hosts,
                                  core::EpochScreen& screen) {
  // A heal in this read repacks the corrupt tile from the post-epoch matrix
  // and so loses its pre-epoch values: the flags are then not exact.
  const std::size_t heals = recovery_.input_tiles_recovered;
  bool retry = false;
  with_recovery(&matrix, [&] {
    if (retry) screen.begin(matrix, dirty_hosts);  // restart the diff
    retry = true;
    core::diff_dirty_rows(*input_cache_, dirty_hosts, screen);
    return 0;
  });
  return recovery_.input_tiles_recovered == heals;
}

void ShardStreamEngine::update_rows(const DelayMatrix& matrix,
                                    std::span<const HostId> dirty_hosts,
                                    const core::EpochScreen* screen,
                                    const core::EpochEdges& edges,
                                    EpochStats& stats) {
  {
    obs::Span journal_span("epoch-journal");
    // Journal the epoch before the first in-place write: the input tiles
    // about to be repacked and the sink tiles holding a flagged edge —
    // exactly the tiles the result write can rewrite. A kill anywhere past
    // this point leaves a record naming every possibly-torn tile; recover()
    // replays exactly those (replaying an untouched one is an idempotent
    // rewrite of identical bytes).
    const std::uint32_t T = input_.tile_dim();
    auto& tiles = manifest_.input_tiles;
    tiles.clear();
    if (screen != nullptr) {
      // Exact flags: a changed entry {x, w} lives in input tile
      // (x/T, w/T) and its mirror, and every other tile is byte-identical
      // to a fresh build already.
      for (const core::EpochScreen::Change& ch : screen->changes()) {
        tiles.emplace_back(ch.x / T, ch.w / T);
        tiles.emplace_back(ch.w / T, ch.x / T);
      }
      std::sort(tiles.begin(), tiles.end());
      tiles.erase(std::unique(tiles.begin(), tiles.end()), tiles.end());
    } else {
      // A heal in the screen's read lost old values, so the change list
      // may miss entries. A changed entry (x, y) requires edge (x, y)
      // updated, and DelayStream dirties both endpoints — so a changed
      // tile has a dirty host in its row band AND in its column band:
      // repack dirty_bands x dirty_bands.
      const std::uint32_t bands = input_.tiles_per_side();
      std::vector<std::uint8_t> band_dirty(bands, 0);
      for (const HostId h : dirty_hosts) band_dirty[h / T] = 1;
      for (std::uint32_t b = 0; b < bands; ++b) {
        if (!band_dirty[b]) continue;
        for (std::uint32_t c = 0; c < bands; ++c) {
          if (band_dirty[c]) tiles.emplace_back(b, c);
        }
      }
    }
    manifest_.generation = epochs_applied() + 1;
    manifest_.sink_tiles =
        core::flagged_sink_tiles(edges, dirty_hosts, 0, sink_);
    journal_->write(manifest_);
  }

  // Repack each journaled tile in place and drop any cached copy.
  obs::Span repack_span("tile-repack");
  for (const auto& [b, c] : manifest_.input_tiles) {
    shard::repack_tile(input_, matrix, b, c);
    input_cache_->invalidate(b, c);
    ++stats.input_tiles_repacked;
  }
  engine_tiles_repacked().add(stats.input_tiles_repacked);
}

void ShardStreamEngine::write_results(const DelayMatrix& matrix,
                                      std::span<const HostId> dirty_hosts,
                                      const core::EpochEdges& edges,
                                      EpochStats& stats) {
  // Recompute the flagged edges from rows packed from `matrix` (no input
  // tile is read) and commit the sink tiles that hold one. Self-healing: a
  // corrupt sink tile hit by the merge is rebuilt and the repair retried
  // (recommitting a tile the aborted attempt already wrote is idempotent);
  // sink_written_ collects the tiles every attempt wrote.
  const core::SinkRepairStats repair = with_recovery(&matrix, [&] {
    return core::repair_severities_to_sink(matrix, sink_,
                                           input_cache_->budget_bytes(),
                                           dirty_hosts, edges, sink_written_);
  });
  stats.severity_tiles_committed = repair.tiles_committed;
  stats.edges_recomputed = repair.edges_recomputed;
  engine_sink_tiles_committed().add(stats.severity_tiles_committed);

  obs::Span commit_span("sink-commit");
  // Sink-cache coherence: drop the cached copies of the tiles the repair
  // rewrote — every one of them is journaled — so the other cached tiles
  // keep serving reads.
  for (const auto& [bi, bj] : manifest_.sink_tiles) {
    std::uint8_t& written = sink_written_[sink_.tile_index(bi, bj)];
    if (written) {
      sink_cache_->invalidate(bi, bj);
      written = 0;
    }
  }
  // Commit point: both stores are consistent, clear the journal's record.
  journal_->clear();
}

}  // namespace tiv::stream
