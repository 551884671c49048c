#include "stream/shard_stream.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/shard_severity.hpp"
#include "obs/trace.hpp"
#include "shard/fault_injector.hpp"
#include "stream/epoch_manifest.hpp"

namespace tiv::stream {
namespace {

obs::Counter& engine_epochs_applied() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("engine.epochs_applied");
  return c;
}
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
obs::Counter& engine_edges_recomputed() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("engine.edges_recomputed");
  return c;
}
obs::Counter& engine_edges_changed() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("engine.edges_changed");
  return c;
}
obs::Histogram& engine_epoch_ns() {
  static obs::Histogram& h =
      obs::MetricsRegistry::instance().histogram("engine.epoch_ns");
  return h;
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

ShardStreamEngine::ShardStreamEngine(const delayspace::DelayMatrix& initial,
                                     ShardStreamConfig config)
    : config_(std::move(config)) {
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
    }
  } guard{config_};

  shard::TileStore::write_matrix(config_.input_path, initial,
                                 config_.tile_dim);
  input_ = shard::TileStore::open(config_.input_path, /*writable=*/true);
  input_cache_.emplace(*input_, config_.input_budget_bytes);
  sink::SeverityTileStore::create(config_.sink_path, initial.size(),
                                  config_.tile_dim);
  sink_ = sink::SeverityTileStore::open(config_.sink_path,
                                        /*writable=*/true);
  sink_cache_.emplace(*sink_, config_.output_budget_bytes);
  sink_written_.assign(sink_->tile_count(), 0);
  core::all_severities_to_sink(*input_, *input_cache_, *sink_);
  guard.armed = false;
  link_recovery_metrics();
}

ShardStreamEngine::ShardStreamEngine(RecoverTag,
                                     const delayspace::DelayMatrix& matrix,
                                     ShardStreamConfig config)
    : config_(std::move(config)), source_(&matrix) {
  if (config_.input_path.empty() || config_.sink_path.empty()) {
    throw std::invalid_argument(
        "ShardStreamEngine::recover: input_path and sink_path must name the "
        "existing store files");
  }
  // Geometry-checked opens: a foreign or stale file (different n or
  // tile_dim than this engine expects) is rejected here instead of
  // serving garbage tiles later.
  input_ = shard::TileStore::open(config_.input_path, /*writable=*/true,
                                  matrix.size(), config_.tile_dim);
  input_cache_.emplace(*input_, config_.input_budget_bytes);
  sink_ = sink::SeverityTileStore::open(config_.sink_path, /*writable=*/true,
                                        matrix.size(), config_.tile_dim);
  sink_cache_.emplace(*sink_, config_.output_budget_bytes);
  sink_written_.assign(sink_->tile_count(), 0);

  link_recovery_metrics();

  const auto manifest =
      EpochManifest::load(EpochManifest::path_for(config_.sink_path));
  if (!manifest.has_value()) return;  // clean shutdown (or torn manifest
                                      // write — stores untouched either way)

  // The manifest's checksum proves it intact, not sane: every journaled
  // coordinate must name a tile of these stores before anything is
  // rewritten (the tile-offset asserts behind repack_tile and
  // rebuild_sink_tile are gone in Release builds).
  const std::uint32_t bands = input_->tiles_per_side();
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
  // now-consistent input store — the full-build one-tile driver, so each
  // converges to exactly the bytes the completed epoch would have written.
  for (const auto& [r, c] : manifest->input_tiles) {
    input_->repack_tile(matrix, r, c);
    input_cache_->invalidate(r, c);
  }
  for (const auto& [r, c] : manifest->sink_tiles) {
    with_recovery([&, r = r, c = c] {
      core::rebuild_sink_tile(*input_, *input_cache_, *sink_, r, c);
      return 0;
    });
    sink_cache_->invalidate(r, c);
  }
  EpochManifest::clear(EpochManifest::path_for(config_.sink_path));
  epochs_applied_ = manifest->generation;
  recovery_.torn_epochs_replayed.increment();
}

void ShardStreamEngine::link_recovery_metrics() {
  auto& reg = obs::MetricsRegistry::instance();
  using Agg = obs::MetricsRegistry::Agg;
  RecoveryCounters& r = recovery_;
  r.links.reserve(4);
  r.links.push_back(
      reg.link("engine.recovery.input_tiles_recovered", Agg::kSum,
               [&r] { return r.input_tiles_recovered.value(); }));
  r.links.push_back(
      reg.link("engine.recovery.sink_tiles_recovered", Agg::kSum,
               [&r] { return r.sink_tiles_recovered.value(); }));
  r.links.push_back(reg.link("engine.recovery.io_retries", Agg::kSum,
                             [&r] { return r.io_retries.value(); }));
  r.links.push_back(
      reg.link("engine.recovery.torn_epochs_replayed", Agg::kSum,
               [&r] { return r.torn_epochs_replayed.value(); }));
}

ShardStreamEngine ShardStreamEngine::recover(
    const delayspace::DelayMatrix& matrix, ShardStreamConfig config) {
  return ShardStreamEngine(RecoverTag{}, matrix, std::move(config));
}

ShardStreamEngine::~ShardStreamEngine() {
  if (config_.keep_files) return;
  // Best-effort cleanup; the stores' fds close in the member destructors
  // after this body (unlink-while-open is fine on POSIX).
  std::error_code ec;
  std::filesystem::remove(config_.input_path, ec);
  std::filesystem::remove(config_.sink_path, ec);
  std::filesystem::remove(EpochManifest::path_for(config_.sink_path), ec);
}

void ShardStreamEngine::heal(const shard::CorruptTileError& e) {
  obs::Span span("recovery-action");
  const std::uint32_t r = e.tile_row();
  const std::uint32_t c = e.tile_col();
  if (e.path() == sink_->path()) {
    // A sink tile is pure function of the input store: rebuild its band
    // pair from scratch — bit-identical to what a full build would write.
    core::rebuild_sink_tile(*input_, *input_cache_, *sink_, r, c);
    sink_cache_->invalidate(r, c);
    recovery_.sink_tiles_recovered.increment();
    return;
  }
  if (e.path() == input_->path() && source_ != nullptr) {
    // The live matrix (DelayStream keeps it in RAM) is the ground truth
    // for input tiles; repack is byte-identical to a fresh build.
    input_->repack_tile(*source_, r, c);
    input_cache_->invalidate(r, c);
    ++input_heals_;
    recovery_.input_tiles_recovered.increment();
    return;
  }
  throw e;  // foreign store, or input damage with no repair source
}

template <typename Fn>
auto ShardStreamEngine::with_recovery(Fn&& fn) -> decltype(fn()) {
  int actions = 0;
  for (;;) {
    try {
      return fn();
    } catch (shard::CorruptTileError e) {
      // Heal the named tile, then retry the operation. The heal itself
      // reads tiles and can trip over *another* corrupt tile (or an
      // injected I/O error): heal innermost-first and let the outer retry
      // find whatever is still broken. InjectedCrash is never caught —
      // a simulated kill must propagate to the harness.
      for (;;) {
        if (++actions > kMaxRecoveryActions) throw;
        try {
          heal(e);
          break;
        } catch (const shard::CorruptTileError& inner) {
          e = inner;
        } catch (const shard::InjectedIoError&) {
          recovery_.io_retries.increment();
        }
      }
    } catch (const shard::InjectedIoError&) {
      if (++actions > kMaxRecoveryActions) throw;
      recovery_.io_retries.increment();
    }
  }
}

float ShardStreamEngine::severity(HostId a, HostId b) {
  return with_recovery([&] { return sink_cache_->at(a, b); });
}

void ShardStreamEngine::severity_row(HostId a, std::span<float> out) {
  with_recovery([&] {
    sink_cache_->read_row(a, out);
    return 0;
  });
}

ShardStreamEngine::EpochStats ShardStreamEngine::apply_epoch(
    const delayspace::DelayMatrix& matrix,
    std::span<const HostId> dirty_hosts) {
  EpochStats stats;
  if (matrix.size() != input_->size()) {
    throw std::invalid_argument(
        "ShardStreamEngine::apply_epoch: matrix size changed");
  }
  // Before anything is journaled or rewritten: a bad host list would index
  // the band tables out of bounds.
  core::check_dirty_hosts(dirty_hosts, matrix.size(),
                          "ShardStreamEngine::apply_epoch");
  if (dirty_hosts.empty()) return stats;

  obs::Span epoch_span("epoch");
  const auto epoch_t0 = obs::kEnabled ? obs::SpanTracer::now_ns() : 0;

  // `matrix` is the ground truth while this epoch applies: make it the
  // repair source so corrupt input tiles heal mid-epoch too (restored on
  // exit — the caller may not guarantee it outlives the engine).
  struct SourceScope {
    ShardStreamEngine& engine;
    const delayspace::DelayMatrix* saved;
    ~SourceScope() { engine.source_ = saved; }
  } scope{*this, source_};
  source_ = &matrix;

  // 0. Screen (core/epoch_screen): diff the dirty rows' pre-epoch values,
  // read tile by tile from the input store before anything is repacked,
  // against `matrix`, and flag the edges whose severity can change. A
  // changed entry outside the dirty-host contract throws here, before the
  // manifest or any tile is written. A heal in this phase repacks the
  // corrupt tile from the post-epoch matrix and so loses its pre-epoch
  // values: the epoch then flags every incident edge instead.
  {
    obs::Span screen_span("epoch-screen");
    const std::uint64_t heals = input_heals_;
    with_recovery([&] {
      screen_.begin(matrix, dirty_hosts);
      core::diff_dirty_rows(*input_, *input_cache_, dirty_hosts, screen_);
      return 0;
    });
    screen_.flag(edges_);
    if (input_heals_ != heals) edges_.flag_all();
    stats.edges_changed = screen_.edges_changed();
  }

  EpochManifest manifest;
  const std::string manifest_path = EpochManifest::path_for(sink_->path());
  {
    obs::Span journal_span("epoch-journal");
    // 1. Journal the epoch before the first in-place write: the input
    // tiles about to be repacked and the superset of sink tiles that can
    // hold a dirty edge. A kill anywhere past this point leaves a manifest
    // naming every possibly-torn tile; recover() replays exactly those
    // (replaying an untouched one is an idempotent rewrite of identical
    // bytes).
    const std::uint32_t T = input_->tile_dim();
    const std::uint32_t bands = input_->tiles_per_side();
    std::vector<std::uint8_t> band_dirty(bands, 0);
    for (const HostId h : dirty_hosts) band_dirty[h / T] = 1;
    manifest.generation = epochs_applied_ + 1;
    for (std::uint32_t b = 0; b < bands; ++b) {
      if (!band_dirty[b]) continue;
      for (std::uint32_t c = 0; c < bands; ++c) {
        if (band_dirty[c]) manifest.input_tiles.emplace_back(b, c);
      }
    }
    for (std::uint32_t bi = 0; bi < bands; ++bi) {
      for (std::uint32_t bj = bi; bj < bands; ++bj) {
        if (band_dirty[bi] || band_dirty[bj]) {
          manifest.sink_tiles.emplace_back(bi, bj);
        }
      }
    }
    manifest.write(manifest_path);
  }

  // 2. Input repair. A changed entry (x, y) requires edge (x, y) updated,
  // and DelayStream dirties both endpoints — so a tile can only have
  // changed when BOTH its row band and its column band hold a dirty host.
  // The changed input tiles are precisely dirty_bands x dirty_bands;
  // repack each in place and drop any cached copy so the severity pass
  // below reads the post-epoch bytes. Tiles with one clean side are
  // byte-identical to a fresh build already and are not touched.
  {
    obs::Span repack_span("tile-repack");
    for (const auto& [b, c] : manifest.input_tiles) {
      input_->repack_tile(matrix, b, c);
      input_cache_->invalidate(b, c);
      ++stats.input_tiles_repacked;
    }
  }

  // 3. Severity repair: recompute the flagged edges from rows packed from
  // `matrix` (no input tile is read) and commit the sink tiles that hold
  // one. Self-healing: a corrupt sink tile hit by the merge is rebuilt and
  // the repair retried (recommitting a tile the aborted attempt already
  // wrote is idempotent); sink_written_ collects the tiles every attempt
  // wrote.
  const core::SinkRepairStats repair = with_recovery([&] {
    return core::repair_severities_to_sink(matrix, *sink_,
                                           input_cache_->budget_bytes(),
                                           dirty_hosts, edges_,
                                           sink_written_);
  });
  stats.severity_tiles_committed = repair.tiles_committed;
  stats.edges_recomputed = repair.edges_recomputed;

  {
    obs::Span commit_span("sink-commit");
    // 4. Sink-cache coherence: drop the cached copies of the tiles the
    // repair rewrote — every one of them lies in the journaled superset —
    // so the cached tiles in between keep serving reads.
    for (const auto& [bi, bj] : manifest.sink_tiles) {
      std::uint8_t& written = sink_written_[sink_->tile_index(bi, bj)];
      if (written) {
        sink_cache_->invalidate(bi, bj);
        written = 0;
      }
    }

    // 5. Commit point: both stores are consistent, drop the journal.
    EpochManifest::clear(manifest_path);
  }
  ++epochs_applied_;
  engine_epochs_applied().increment();
  engine_tiles_repacked().add(stats.input_tiles_repacked);
  engine_sink_tiles_committed().add(stats.severity_tiles_committed);
  engine_edges_recomputed().add(stats.edges_recomputed);
  engine_edges_changed().add(stats.edges_changed);
  if (obs::kEnabled) {
    engine_epoch_ns().record(obs::SpanTracer::now_ns() - epoch_t0);
  }
  return stats;
}

}  // namespace tiv::stream
