// Out-of-core live pipeline benchmark: ShardStreamEngine epoch repair
// (dirty input-tile repack + dirty-edge severity recompute committed to
// the on-disk sink) vs the full out-of-core rebuild (fresh input spill +
// all_severities_to_sink), under small input/output cache budgets.
//
// One JSON record per churn point (bench_common JsonArrayWriter), each
// carrying the acceptance properties the exit status enforces:
//   bit_mismatches       engine severities read back through the sink
//                        cache vs the in-memory all_severities of the
//                        final mutated matrix — must be 0
//   peak_within_budget   both tile caches' peak bytes stayed within their
//                        configured budgets
//   repair_epoch_ms      the tracer saw the epoch spans — must be > 0
//   unattributed_ms      the epoch time outside its named child spans —
//                        at most 5% of repair_epoch_ms
//   input_tile_loads     input-tile acquires of the epochs (input cache
//                        hits + misses) — exactly the screen's
//                        (core/epoch_screen) read of the pre-epoch dirty
//                        rows, sum over epochs of bands * dirty bands: the
//                        repair packs its rows from the live matrix and
//                        reads no input tile
// plus the repair-vs-rebuild timings whose speedup docs/PERFORMANCE.md
// quotes. A {"section":"sink_reads"} record times point and row reads
// through the engine (point_us_p50, row_us_p50) beside a ceiling measured
// on the same sink file in the same run (segment_ceiling_us,
// tile_ceiling_us: a raw pread plus checksum64 of one row segment, of one
// tile) and counts the sink file bytes the reads fetched
// (sink_read_bytes, deterministic; CI gates it). A {"section":"codegen"}
// record times one repair against the
// in-memory kernel on the same matrix (repair_gops, kernel_gops and their
// ratio repair_vs_kernel, which CI gates); that repair flags every
// incident edge, so it measures the repair loop, not the screen. The
// embedded registry snapshot
// must carry the storage, cache, engine and stream telemetry. Exit status
// is nonzero when a property fails, so a smoke run turns CI red on its
// own.
//
// Apply-path timings come from the span tracer (docs/OBSERVABILITY.md) —
// the per-record repair_epoch_ms is the mean "epoch" span, with the
// epoch-screen / epoch-journal / tile-repack / band-pair-stream /
// sink-commit split, the residual outside them (unattributed_ms), and the
// repair pass's edge-repair / sink-merge phases reported alongside — so the
// bench's numbers are the same spans a trace capture shows. The
// record stream ends with the registry's metrics snapshot
// ({"section":"metrics",...} records: I/O volume, cache traffic, pool
// utilization for the whole run).
//
// Flags:
//   --quick                reduced scale (CI smoke run)
//   --hosts=N              matrix size (default 512; 128 quick)
//   --tile=T               tile edge, multiple of 16 (default 64; 16 quick)
//   --input-budget-kb=B    input tile-cache budget (default 512)
//   --output-budget-kb=B   severity tile-cache budget (default 256)
//   --missing=F            missing-entry fraction (default 0.1)
//   --epochs=E             epochs per churn point (default 4; 2 quick)
//   --dir=PATH             scratch directory for the tile-store files
//                          (default: system temp dir); files are removed
//   --seed=S               RNG seed
#include <fcntl.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/severity.hpp"
#include "core/shard_severity.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shard/checksum.hpp"
#include "shard/tile_cache.hpp"
#include "shard/tile_file.hpp"
#include "shard/tile_store.hpp"
#include "stream/delay_stream.hpp"
#include "stream/shard_stream.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using tiv::Rng;
using tiv::core::SeverityMatrix;
using tiv::core::TivAnalyzer;
using tiv::delayspace::DelayMatrix;
using tiv::delayspace::DelayMatrixView;
using tiv::delayspace::HostId;
using tiv::shard::TileFile;
using tiv::stream::DelayStream;
using tiv::stream::ShardStreamConfig;
using tiv::stream::ShardStreamEngine;

using tiv::bench::bit_mismatches;
using tiv::bench::random_matrix;
using tiv::bench::replay_churn_epoch;
using tiv::bench::time_ms;

/// The epoch's named child spans must cover all but this share of it.
constexpr double kMaxUnattributedFrac = 0.05;

/// Where the ceiling's hashes go, so the compiler keeps computing them.
volatile std::uint64_t g_hash_sink = 0;

double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string scratch_file(const std::string& dir, const std::string& tag) {
  return (std::filesystem::path(dir) /
          ("bench_shard_stream_" + std::to_string(::getpid()) + "_" + tag +
           ".tiles"))
      .string();
}

}  // namespace

int main(int argc, char** argv) {
  const tiv::Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  flags.get_bool("json", false);  // accepted for uniformity; always JSON
  const auto n =
      static_cast<HostId>(flags.get_int("hosts", quick ? 128 : 512));
  const auto tile_dim =
      static_cast<std::uint32_t>(flags.get_int("tile", quick ? 16 : 64));
  const double missing = flags.get_double("missing", 0.1);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 29));
  const int epochs = static_cast<int>(flags.get_int("epochs", quick ? 2 : 4));
  const std::string dir = flags.get_string(
      "dir", std::filesystem::temp_directory_path().string());
  const std::size_t input_budget_flag =
      static_cast<std::size_t>(flags.get_int("input-budget-kb", 512)) * 1024;
  const std::size_t output_budget_flag =
      static_cast<std::size_t>(flags.get_int("output-budget-kb", 256)) * 1024;
  tiv::reject_unknown_flags(flags);

  // Floor the budgets at the pinned working sets so a many-core pool
  // cannot overshoot through pins alone: the band-pair drivers pin <= 3
  // input tiles per worker (the floor adds two tiles of headroom); sink
  // reads pin one tile per reader.
  const std::size_t tile_bytes = tiv::shard::tile_size_bytes(tile_dim);
  const std::size_t input_budget =
      std::max(input_budget_flag,
               (3 * tiv::parallel_thread_count() + 2) * tile_bytes);
  const std::size_t output_budget =
      std::max(output_budget_flag,
               (tiv::parallel_thread_count() + 1) * tile_bytes);

  const std::vector<double> dirty_fractions =
      quick ? std::vector<double>{0.02, 0.2}
            : std::vector<double>{0.004, 0.01, 0.05, 0.2};

  // Span totals, not spot timers, time the apply path (the rebuild
  // baselines below keep time_ms — they are not instrumented phases).
  tiv::obs::SpanTracer tracer(1 << 14);
  tiv::obs::SpanTracer::attach(&tracer);

  bool ok = true;
  {
    tiv::bench::BenchConfig bench_cfg;
    bench_cfg.hosts = n;
    bench_cfg.seed = seed;
    tiv::bench::BenchReport json(std::cout, "bench_shard_stream");
    json.meta(bench_cfg)
        .field("tile_dim", tile_dim)
        .field("epochs", epochs)
        .field("missing_fraction", missing, 3)
        .field("input_budget_bytes", input_budget)
        .field("output_budget_bytes", output_budget)
        .field_bool("quick", quick);
    for (const double frac : dirty_fractions) {
      DelayStream stream(random_matrix(n, missing, seed));
      Rng rng(seed ^ 0x0c1ull);

      ShardStreamConfig cfg;
      cfg.tile_dim = tile_dim;
      cfg.input_budget_bytes = input_budget;
      cfg.output_budget_bytes = output_budget;
      cfg.input_path = scratch_file(dir, "in");
      cfg.sink_path = scratch_file(dir, "sev");
      std::optional<ShardStreamEngine> engine;
      const double init_ms =
          time_ms([&] { engine.emplace(stream.matrix(), cfg); });

      const auto dirty_target = std::max<std::size_t>(
          2, static_cast<std::size_t>(static_cast<double>(n) * frac));
      std::size_t tiles_repacked = 0;
      std::size_t sev_tiles_committed = 0;
      std::size_t edges_recomputed = 0;
      std::size_t screen_loads = 0;
      const std::size_t bands = (n + tile_dim - 1) / tile_dim;
      const auto in_acquires = [&] {
        const auto s = engine->input_cache_stats();
        return s.hits + s.misses;
      };
      const std::size_t acquires0 = in_acquires();
      const char* const phases[] = {"epoch",       "epoch-journal",
                                    "tile-repack", "band-pair-stream",
                                    "sink-commit", "edge-repair",
                                    "sink-merge",  "epoch-screen"};
      const std::uint64_t mark = tracer.recorded();
      for (int e = 0; e < epochs; ++e) {
        replay_churn_epoch(stream, rng, dirty_target, double(e));
        const tiv::stream::Epoch epoch = stream.commit_epoch();
        const auto stats =
            engine->apply_epoch(stream.matrix(), epoch.dirty_hosts);
        tiles_repacked += stats.input_tiles_repacked;
        sev_tiles_committed += stats.severity_tiles_committed;
        edges_recomputed += stats.edges_recomputed;
        // The screen reads every tile of each dirty band once.
        for (std::size_t i = 0; i < epoch.dirty_hosts.size(); ++i) {
          if (i == 0 || epoch.dirty_hosts[i] / tile_dim !=
                            epoch.dirty_hosts[i - 1] / tile_dim) {
            screen_loads += bands;
          }
        }
      }
      const std::size_t input_tile_loads = in_acquires() - acquires0;
      std::vector<double> phase_ms;
      for (const char* p : phases) {
        phase_ms.push_back(static_cast<double>(tracer.total_ns(p, mark)) /
                           1e6);
      }
      const double apply_ms = phase_ms[0];
      const double unattributed_ms = apply_ms - phase_ms[1] - phase_ms[2] -
                                     phase_ms[3] - phase_ms[4] - phase_ms[7];

      // Full out-of-core rebuild of the final matrix — what every epoch
      // would cost without the dirty-tile repair path: fresh input spill +
      // sink build, all on disk.
      const std::string rb_in = scratch_file(dir, "rebuild_in");
      const std::string rb_out = scratch_file(dir, "rebuild_sev");
      const double rebuild_ms = time_ms([&] {
        tiv::shard::write_matrix(rb_in, stream.matrix(), tile_dim);
        const auto store = TileFile::open(tiv::shard::kInputFormat, rb_in);
        tiv::shard::TileCache cache(store, input_budget, "cache.input");
        tiv::shard::create_sink(rb_out, n, tile_dim);
        auto sink = TileFile::open(tiv::shard::kSinkFormat, rb_out,
                                   /*writable=*/true);
        tiv::core::all_severities_to_sink(cache, sink);
      });
      std::filesystem::remove(rb_in);
      std::filesystem::remove(rb_out);

      const SeverityMatrix in_memory =
          TivAnalyzer(stream.matrix()).all_severities();
      const std::size_t mismatches = bit_mismatches(*engine, in_memory);

      const auto in_stats = engine->input_cache_stats();
      const auto out_stats = engine->output_cache_stats();
      const bool within_budget = in_stats.peak_bytes <= input_budget &&
                                 out_stats.peak_bytes <= output_budget;
      const double repair_epoch_ms = apply_ms / epochs;
      if (mismatches != 0 || !within_budget || !(repair_epoch_ms > 0.0) ||
          input_tile_loads != screen_loads ||
          unattributed_ms > kMaxUnattributedFrac * apply_ms) {
        std::cerr << "bench_shard_stream: churn " << frac << " failed ("
                  << mismatches << " bit mismatches, within budget "
                  << within_budget << ", repair_epoch_ms " << repair_epoch_ms
                  << ", unattributed_ms " << unattributed_ms / epochs
                  << ", input_tile_loads " << input_tile_loads
                  << ", the screen's " << screen_loads << ")\n";
        ok = false;
      }

      json.object()
          .field("section", std::string("shard_churn"))
          .field("n", n)
          .field("tile_dim", tile_dim)
          .field("missing_fraction", missing, 3)
          .field("dirty_fraction", frac, 4)
          .field("epochs", epochs)
          .field("input_budget_bytes", input_budget)
          .field("output_budget_bytes", output_budget)
          .field("init_full_build_ms", init_ms, 3)
          .field("input_tiles_repacked", tiles_repacked)
          .field("severity_tiles_committed", sev_tiles_committed)
          .field("edges_recomputed", edges_recomputed)
          .field("input_tile_loads", input_tile_loads)
          .field("repair_epoch_ms", repair_epoch_ms, 3)
          .field("epoch_screen_ms", phase_ms[7] / epochs, 3)
          .field("epoch_journal_ms", phase_ms[1] / epochs, 3)
          .field("tile_repack_ms", phase_ms[2] / epochs, 3)
          .field("band_pair_stream_ms", phase_ms[3] / epochs, 3)
          .field("sink_commit_ms", phase_ms[4] / epochs, 3)
          .field("edge_repair_ms", phase_ms[5] / epochs, 3)
          .field("sink_merge_ms", phase_ms[6] / epochs, 3)
          .field("unattributed_ms", unattributed_ms / epochs, 3)
          .field("oocore_rebuild_ms", rebuild_ms, 3)
          .field("speedup_vs_oocore_rebuild",
                 repair_epoch_ms > 0.0 ? rebuild_ms / repair_epoch_ms : 0.0,
                 2)
          .field("input_tile_hits", in_stats.hits)
          .field("input_tile_misses", in_stats.misses)
          .field("input_evictions", in_stats.evictions)
          .field("input_invalidations", in_stats.invalidations)
          .field("input_peak_bytes", in_stats.peak_bytes)
          .field("output_tile_hits", out_stats.hits)
          .field("output_tile_misses", out_stats.misses)
          .field("output_evictions", out_stats.evictions)
          .field("output_peak_bytes", out_stats.peak_bytes)
          .field_bool("peak_within_budget", within_budget)
          .field("bit_mismatches", mismatches);
    }
    // Sink reads: point and row reads through a fresh engine's sink cache,
    // beside their ceiling measured on the same file in the same run — a
    // raw pread plus checksum64 of one row segment, and of one whole tile.
    // The sink cache holds a quarter of the sink's tiles, so the reads run
    // out of core at every size (only this thread reads it, pinning one
    // tile at a time, so the budget needs no per-thread floor).
    // Row reads warm the cache first, as a live monitor's do (they load the
    // column tiles); a point read then finds its tile resident or reads its
    // one segment. The reads run on the calling thread in a fixed order
    // from an empty cache, so sink_read_bytes (the sink file bytes the
    // timed reads fetched) is deterministic; CI gates it.
    {
      constexpr std::size_t kPointReads = 4096;
      constexpr std::size_t kPointGroup = 16;  // reads timed as one group
      constexpr std::size_t kRowReads = 256;
      constexpr std::size_t kCeilingReads = 4096;
      const DelayMatrix m = random_matrix(n, missing, seed);
      const std::size_t bands = (n + tile_dim - 1) / tile_dim;
      const std::size_t read_budget =
          std::max<std::size_t>(bands * (bands + 1) / 2 / 4, 1) * tile_bytes;
      ShardStreamConfig cfg;
      cfg.tile_dim = tile_dim;
      cfg.input_budget_bytes = input_budget;
      cfg.output_budget_bytes = read_budget;
      cfg.input_path = scratch_file(dir, "reads_in");
      cfg.sink_path = scratch_file(dir, "reads_sev");
      ShardStreamEngine engine(m, cfg);
      Rng rng(seed ^ 0x5eadull);
      std::vector<std::pair<HostId, HostId>> points;
      while (points.size() < kPointReads) {
        const auto a = static_cast<HostId>(rng.uniform_index(n));
        const auto b = static_cast<HostId>(rng.uniform_index(n));
        if (a != b) points.emplace_back(a, b);
      }
      std::vector<HostId> rows(kRowReads);
      for (HostId& a : rows) a = static_cast<HostId>(rng.uniform_index(n));

      std::vector<float> row(n);
      for (const HostId a : rows) engine.severity_row(a, row);  // warm
      auto& reg = tiv::obs::MetricsRegistry::instance();
      const auto before = reg.snapshot();
      const auto cache_before = engine.output_cache_stats();
      std::vector<double> point_us;
      for (std::size_t g = 0; g < points.size(); g += kPointGroup) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t k = g; k < g + kPointGroup; ++k) {
          engine.severity(points[k].first, points[k].second);
        }
        point_us.push_back(us_since(t0) / kPointGroup);
      }
      std::vector<double> row_us;
      for (const HostId a : rows) {
        const auto t0 = std::chrono::steady_clock::now();
        engine.severity_row(a, row);
        row_us.push_back(us_since(t0));
      }
      const auto delta = reg.snapshot().delta_since(before);
      const auto cache_after = engine.output_cache_stats();
      const std::size_t hits = cache_after.hits - cache_before.hits;
      const std::size_t lookups =
          hits + cache_after.misses - cache_before.misses;

      // The ceiling: raw preads of the engine's sink file, one random row
      // segment or one random tile at a time, each hashed as a read
      // verifies it.
      const TileFile layout =
          TileFile::open(tiv::shard::kSinkFormat, engine.sink_path());
      const int fd = ::open(engine.sink_path().c_str(), O_RDONLY);
      if (fd < 0) {
        std::cerr << "bench_shard_stream: cannot open the sink file\n";
        return 1;
      }
      std::vector<float> tile(layout.payload_floats());
      std::uint64_t hash = 0;
      const auto ceiling_us = [&](std::size_t bytes, bool segment) {
        std::vector<double> us;
        for (std::size_t i = 0; i < kCeilingReads; ++i) {
          const auto r = static_cast<std::uint32_t>(
              rng.uniform_index(layout.tiles_per_side()));
          const auto c = r + static_cast<std::uint32_t>(rng.uniform_index(
                                 layout.tiles_per_side() - r));
          const std::uint64_t off =
              layout.tile_offset(r, c) +
              (segment ? rng.uniform_index(tile_dim) * layout.row_bytes()
                       : 0);
          const auto t0 = std::chrono::steady_clock::now();
          if (::pread(fd, tile.data(), bytes, static_cast<off_t>(off)) !=
              static_cast<ssize_t>(bytes)) {
            ok = false;
          }
          hash ^= tiv::shard::checksum64(tile.data(), bytes);
          us.push_back(us_since(t0));
        }
        return tiv::percentile(std::move(us), 50.0);
      };
      const double segment_us = ceiling_us(layout.row_bytes(), true);
      const double tile_us = ceiling_us(layout.tile_bytes(), false);
      ::close(fd);
      g_hash_sink = hash;
      const double point_p50 = tiv::percentile(point_us, 50.0);
      const double row_p50 = tiv::percentile(row_us, 50.0);
      const auto counter = [&](const char* name) {
        const auto it = delta.counters.find(name);
        return it == delta.counters.end() ? std::uint64_t{0} : it->second;
      };
      json.object()
          .field("section", std::string("sink_reads"))
          .field("n", n)
          .field("tile_dim", tile_dim)
          .field("output_budget_bytes", read_budget)
          .field("sink_row_checksum_bytes", layout.row_checksum_bytes())
          .field("point_reads", kPointReads)
          .field("row_reads", kRowReads)
          .field("sink_reads", counter("shard.sink.reads"))
          .field("sink_read_bytes", counter("shard.sink.read_bytes"))
          .field("cache_hit_ratio",
                 lookups == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(lookups),
                 3)
          .field("point_us_p50", point_p50, 3)
          .field("row_us_p50", row_p50, 3)
          .field("segment_ceiling_us", segment_us, 3)
          .field("tile_ceiling_us", tile_us, 3)
          .field("point_vs_segment_ceiling",
                 segment_us > 0.0 ? point_p50 / segment_us : 0.0, 2);
    }

    // Codegen guard for the out-of-core repair kernel: one repair of 5% of
    // hosts on a violation-dense matrix against the in-memory
    // edge_severity_batch over every upper-triangle pair of the same
    // matrix (prebuilt view), both single-threaded and in the same run, so
    // repair_vs_kernel does not depend on the runner's speed. Both run the
    // portable witness body over the full padded row on every ISA, by
    // design, so if the repair loop's call site compiles to a scalar loop
    // (one vdivsd per witness) the ratio drops from ~0.9 to ~0.3 whatever
    // the build targets. Fixed at n=512 (sink tile 64), the size at which
    // the baseline ratio was recorded.
    {
      constexpr HostId kGuardHosts = 512;
      constexpr std::uint32_t kGuardTile = 64;
      constexpr double kGuardDirty = 0.05;
      tiv::set_parallel_thread_count(1);
      const DelayMatrix m = random_matrix(kGuardHosts, 0.1, seed);
      const std::string in_path = scratch_file(dir, "guard_in");
      const std::string out_path = scratch_file(dir, "guard_sev");
      tiv::shard::write_matrix(in_path, m, kGuardTile);
      const auto store = TileFile::open(tiv::shard::kInputFormat, in_path);
      tiv::shard::TileCache cache(store, std::size_t{4} << 20, "cache.input");
      tiv::shard::create_sink(out_path, kGuardHosts, kGuardTile);
      auto sink = TileFile::open(tiv::shard::kSinkFormat, out_path,
                                 /*writable=*/true);
      tiv::core::all_severities_to_sink(cache, sink);

      Rng rng(seed ^ 0x9e7ull);
      const auto picks = rng.sample_without_replacement(
          kGuardHosts, static_cast<std::uint32_t>(kGuardHosts * kGuardDirty));
      std::vector<HostId> dirty(picks.begin(), picks.end());
      std::sort(dirty.begin(), dirty.end());
      // Every incident edge flagged: the repair's full work, as an epoch
      // without the screen would run it.
      tiv::core::EpochEdges all_incident;
      all_incident.reset(dirty, kGuardHosts);
      all_incident.flag_all();
      tiv::core::SinkRepairStats repair;
      const double repair_ms = tiv::bench::best_ms(3, [&] {
        repair = tiv::core::repair_severities_to_sink(
            m, sink, std::size_t{4} << 20, dirty, all_incident);
      });
      const TivAnalyzer analyzer(m);
      const DelayMatrixView view(m);
      std::vector<std::pair<HostId, HostId>> pairs;
      for (HostId a = 0; a < kGuardHosts; ++a) {
        for (HostId c = a + 1; c < kGuardHosts; ++c) pairs.emplace_back(a, c);
      }
      std::vector<double> sevs;
      const double kernel_ms = tiv::bench::best_ms(
          2, [&] { sevs = analyzer.edge_severity_batch(pairs, &view); });
      std::filesystem::remove(in_path);
      std::filesystem::remove(out_path);
      tiv::set_parallel_thread_count(0);

      const auto nd = static_cast<double>(kGuardHosts);
      const double repair_ops =
          static_cast<double>(repair.edges_recomputed) * nd;
      const double kernel_ops = nd * (nd - 1.0) / 2.0 * nd;
      const double repair_gops = repair_ops / repair_ms / 1e6;
      const double kernel_gops = kernel_ops / kernel_ms / 1e6;
      json.object()
          .field("section", std::string("codegen"))
          .field("n", kGuardHosts)
          .field("tile_dim", kGuardTile)
          .field("dirty_fraction", kGuardDirty, 4)
          .field("threads", 1)
          .field("repair_edges", repair.edges_recomputed)
          .field("repair_ms", repair_ms, 3)
          .field("kernel_ms", kernel_ms, 3)
          .field_sig("repair_gops", repair_gops, 4)
          .field_sig("kernel_gops", kernel_gops, 4)
          .field_sig("repair_vs_kernel", repair_gops / kernel_gops, 3);
    }

    const auto snap = tiv::obs::MetricsRegistry::instance().snapshot();
    tiv::bench::emit_metrics_json(json, snap);
    ok = tiv::bench::check_metrics(
             "bench_shard_stream", snap,
             {"shard.input.reads", "cache.input.hits", "engine.epochs_applied",
              "engine.epoch_ns", "engine.edges_recomputed",
              "engine.edges_changed",
              "stream.samples_applied"}) &&
         ok;
  }
  tiv::obs::SpanTracer::attach(nullptr);
  return ok ? 0 : 1;
}
