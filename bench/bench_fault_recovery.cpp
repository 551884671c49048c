// Fault-recovery benchmark for the survivable out-of-core pipeline:
// how much cheaper targeted recovery is than throwing the stores away and
// rebuilding, across disk-rot corruption rates and kill-mid-commit points.
//
// One JSON record per scenario (bench_common JsonArrayWriter):
//
//   section "disk_rot"        a clean engine's files are corrupted on disk
//                             (a fraction of sink tiles, plus nested input
//                             rot under half of them), then reopened with
//                             ShardStreamEngine::recover and read back in
//                             full — self-healing rebuilds exactly the
//                             damaged tiles on first touch
//   section "kill_mid_commit" a deterministic torn write kills apply_epoch
//                             at a chosen commit ordinal; recover() replays
//                             the journaled epoch from the manifest
//
// Each record carries the acceptance properties the exit status enforces:
//   bit_mismatches     severities read back after recovery vs the in-memory
//                      all_severities of the same matrix — must be 0
//   recovered_cheaper  recovery wall time strictly below the full
//                      out-of-core rebuild of the same matrix
// plus the healed-tile / replayed-epoch counters that prove the recovery
// path (not a silent full rebuild) produced the bytes. The registry
// snapshot must also show injected torn writes, replayed torn epochs and
// recovered sink tiles (each counter > 0). Exit status is nonzero when a
// property fails, so a smoke run turns CI red on its own.
//
// Each record also reports recovery_action_ms — the span tracer's total of
// "recovery-action" spans (manifest replay plus every lazy tile heal), the
// recovery work alone without the surrounding clean readback — and the
// record stream ends with the registry's metrics snapshot
// ({"section":"metrics",...}: fault.injected_* vs engine.recovery.* shows
// what was thrown at the storage layer and what the healing absorbed).
//
// Flags:
//   --quick              reduced scale (CI smoke run)
//   --hosts=N            matrix size (default 384; 128 quick)
//   --tile=T             tile edge, multiple of 16 (default 32; 16 quick)
//   --missing=F          missing-entry fraction (default 0.1)
//   --dir=PATH           scratch directory (default: system temp dir)
//   --seed=S             RNG seed
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/severity.hpp"
#include "core/shard_severity.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shard/fault_injector.hpp"
#include "shard/tile_cache.hpp"
#include "shard/tile_file.hpp"
#include "shard/tile_store.hpp"
#include "stream/delay_stream.hpp"
#include "stream/shard_stream.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

using tiv::Rng;
using tiv::core::SeverityMatrix;
using tiv::core::TivAnalyzer;
using tiv::delayspace::DelayMatrix;
using tiv::delayspace::HostId;
using tiv::shard::FaultInjector;
using tiv::shard::InjectedCrash;
using tiv::shard::TileFile;
using tiv::stream::DelaySample;
using tiv::stream::DelayStream;
using tiv::stream::ShardStreamConfig;
using tiv::stream::ShardStreamEngine;

using tiv::bench::bit_mismatches;
using tiv::bench::random_matrix;
using tiv::bench::time_ms;

std::string scratch_file(const std::string& dir, const std::string& tag) {
  return (std::filesystem::path(dir) /
          ("bench_fault_recovery_" + std::to_string(::getpid()) + "_" + tag +
           ".tiles"))
      .string();
}

/// XORs one byte of `path` at `offset` — the disk-rot primitive.
void rot_byte_at(const std::string& path, std::uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) throw std::runtime_error("rot_byte_at: open " + path);
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  const int ch = std::fgetc(f);
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  std::fputc(ch ^ 0x5a, f);
  std::fclose(f);
}

/// Full out-of-core rebuild of `m` — the recovery baseline: fresh input
/// spill + full severity build to a fresh sink, all on disk.
double full_rebuild_ms(const DelayMatrix& m, std::uint32_t tile_dim,
                       const std::string& dir) {
  const std::string rb_in = scratch_file(dir, "rebuild_in");
  const std::string rb_out = scratch_file(dir, "rebuild_sev");
  const double ms = time_ms([&] {
    tiv::shard::write_matrix(rb_in, m, tile_dim);
    const auto store = TileFile::open(tiv::shard::kInputFormat, rb_in);
    tiv::shard::TileCache cache(store, std::size_t{8} << 20, "cache.input");
    tiv::shard::create_sink(rb_out, m.size(), tile_dim);
    auto sink =
        TileFile::open(tiv::shard::kSinkFormat, rb_out, /*writable=*/true);
    tiv::core::all_severities_to_sink(cache, sink);
  });
  std::filesystem::remove(rb_in);
  std::filesystem::remove(rb_out);
  return ms;
}

/// One epoch of localized churn: re-measures edges among the first
/// `span` hosts (the dirty set stays confined to the leading tile bands,
/// the realistic "a rack went flaky" shape — and it keeps the journaled
/// tile set a strict subset of the store).
void localized_churn(DelayStream& stream, Rng& rng, HostId span, double t) {
  std::vector<DelaySample> batch;
  for (int e = 0; e < 16; ++e) {
    const auto a = static_cast<HostId>(rng.uniform_index(span));
    const auto b = static_cast<HostId>(rng.uniform_index(span));
    if (a == b) continue;
    batch.push_back({a, b, static_cast<float>(rng.uniform(1.0, 400.0)), t});
  }
  stream.ingest(batch);
}

}  // namespace

int main(int argc, char** argv) {
  const tiv::Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  flags.get_bool("json", false);  // accepted for uniformity; always JSON
  const auto n =
      static_cast<HostId>(flags.get_int("hosts", quick ? 128 : 384));
  const auto tile_dim =
      static_cast<std::uint32_t>(flags.get_int("tile", quick ? 16 : 32));
  const double missing = flags.get_double("missing", 0.1);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 41));
  const std::string dir = flags.get_string(
      "dir", std::filesystem::temp_directory_path().string());
  tiv::reject_unknown_flags(flags);

  const std::vector<double> rot_fractions =
      quick ? std::vector<double>{0.05} : std::vector<double>{0.01, 0.02, 0.05};

  tiv::obs::SpanTracer tracer(1 << 14);
  tiv::obs::SpanTracer::attach(&tracer);

  bool ok = true;
  {
    tiv::bench::BenchConfig bench_cfg;
    bench_cfg.hosts = n;
    bench_cfg.seed = seed;
    tiv::bench::BenchReport json(std::cout, "bench_fault_recovery");
    json.meta(bench_cfg)
        .field("tile_dim", tile_dim)
        .field("missing_fraction", missing, 3)
        .field_bool("quick", quick);

    // --- disk rot: corrupt a fraction of tiles, recover on read ----------
    for (const double frac : rot_fractions) {
      const DelayMatrix matrix = random_matrix(n, missing, seed);
      const SeverityMatrix want = TivAnalyzer(matrix).all_severities();

      ShardStreamConfig cfg;
      cfg.tile_dim = tile_dim;
      cfg.input_path = scratch_file(dir, "rot_in");
      cfg.sink_path = scratch_file(dir, "rot_sev");
      cfg.keep_files = true;
      { ShardStreamEngine build(matrix, cfg); }  // clean shutdown, files kept

      // Pick the victim sink tiles (and rot the matching input tile under
      // every other one — the nested-corruption path: healing the sink tile
      // trips over the rotten input tile mid-rebuild).
      std::vector<std::uint64_t> sink_offsets;
      std::vector<std::uint64_t> input_offsets;
      {  // offsets gathered first; stores closed before the rot
        const auto sink =
            TileFile::open(tiv::shard::kSinkFormat, cfg.sink_path);
        const auto input =
            TileFile::open(tiv::shard::kInputFormat, cfg.input_path);
        std::vector<std::pair<std::uint32_t, std::uint32_t>> coords;
        for (std::uint32_t r = 0; r < sink.tiles_per_side(); ++r) {
          for (std::uint32_t c = r; c < sink.tiles_per_side(); ++c) {
            coords.emplace_back(r, c);
          }
        }
        const auto k = static_cast<std::uint32_t>(std::max<std::size_t>(
            1, static_cast<std::size_t>(frac *
                                        static_cast<double>(coords.size()))));
        Rng rng(seed ^ 0xd15cull);
        const auto picks = rng.sample_without_replacement(
            static_cast<HostId>(coords.size()), k);
        for (std::size_t i = 0; i < picks.size(); ++i) {
          const auto [r, c] = coords[picks[i]];
          sink_offsets.push_back(sink.tile_offset(r, c));
          if (i % 2 == 1) input_offsets.push_back(input.tile_offset(r, c));
        }
      }
      for (const std::uint64_t off : sink_offsets) {
        rot_byte_at(cfg.sink_path, off + 11);
      }
      for (const std::uint64_t off : input_offsets) {
        rot_byte_at(cfg.input_path, off + 23);
      }
      const std::size_t sink_rotted = sink_offsets.size();
      const std::size_t input_rotted = input_offsets.size();

      // Recovery: reopen + one full readback. Every rotted tile fails its
      // checksum on first touch and is rebuilt in place.
      cfg.keep_files = false;  // recovery engine owns cleanup
      const std::uint64_t heal_ns0 = tracer.total_ns("recovery-action");
      const auto t0 = std::chrono::steady_clock::now();
      auto engine = ShardStreamEngine::recover(matrix, cfg);
      const std::size_t mismatches = bit_mismatches(engine, want);
      const auto t1 = std::chrono::steady_clock::now();
      const double heal_ms =
          static_cast<double>(tracer.total_ns("recovery-action") - heal_ns0) /
          1e6;
      const double recovery_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      // Second full readback over the now-healed store: the no-fault floor.
      const double clean_ms = time_ms([&] { bit_mismatches(engine, want); });

      const double rebuild_ms = full_rebuild_ms(matrix, tile_dim, dir);
      const auto rec = engine.recovery_stats();
      const bool healed_all = rec.sink_tiles_recovered >= sink_rotted &&
                              rec.input_tiles_recovered >= input_rotted;
      const bool cheaper = recovery_ms < rebuild_ms;
      ok = ok && mismatches == 0 && healed_all && cheaper;

      json.object()
          .field("section", std::string("disk_rot"))
          .field("n", n)
          .field("tile_dim", tile_dim)
          .field("corrupt_fraction", frac, 4)
          .field("sink_tiles_corrupted", sink_rotted)
          .field("input_tiles_corrupted", input_rotted)
          .field("sink_tiles_recovered", rec.sink_tiles_recovered)
          .field("input_tiles_recovered", rec.input_tiles_recovered)
          .field("recovery_ms", recovery_ms, 3)
          .field("recovery_action_ms", heal_ms, 3)
          .field("clean_readback_ms", clean_ms, 3)
          .field("full_rebuild_ms", rebuild_ms, 3)
          .field("speedup_vs_rebuild",
                 recovery_ms > 0.0 ? rebuild_ms / recovery_ms : 0.0, 2)
          .field_bool("recovered_cheaper", cheaper)
          .field("bit_mismatches", mismatches);
    }

    // --- kill mid-commit: torn write at a chosen ordinal, then recover ---
    struct KillPoint {
      const char* name;
      bool on_input;            ///< tear an input repack vs a sink commit
      std::uint32_t ordinal;    ///< 1-based commit ordinal that tears
    };
    const KillPoint kill_points[] = {
        {"input_commit_1", true, 1},
        {"sink_commit_1", false, 1},
        {"sink_commit_3", false, 3},
    };
    for (const KillPoint& kp : kill_points) {
      DelayStream stream(random_matrix(n, missing, seed ^ 0x1a11ull));

      ShardStreamConfig cfg;
      cfg.tile_dim = tile_dim;
      cfg.input_path = scratch_file(dir, std::string("kill_in_") + kp.name);
      cfg.sink_path = scratch_file(dir, std::string("kill_sev_") + kp.name);
      cfg.keep_files = true;

      FaultInjector::Config fault;
      fault.torn_write_at_commit = kp.ordinal;
      FaultInjector injector(fault);

      bool crashed = false;
      Rng rng(seed ^ 0x6b11ull);
      {
        ShardStreamEngine engine(stream.matrix(), cfg);
        if (kp.on_input) {
          engine.set_input_fault_injector(&injector);
        } else {
          engine.set_sink_fault_injector(&injector);
        }
        localized_churn(stream, rng, static_cast<HostId>(2 * tile_dim), 1.0);
        const tiv::stream::Epoch epoch = stream.commit_epoch();
        try {
          engine.apply_epoch(stream.matrix(), epoch.dirty_hosts);
        } catch (const InjectedCrash&) {
          crashed = true;
        }
        if (kp.on_input) {
          engine.set_input_fault_injector(nullptr);
        } else {
          engine.set_sink_fault_injector(nullptr);
        }
      }  // "killed" engine abandoned; files + epoch manifest survive

      const SeverityMatrix want =
          TivAnalyzer(stream.matrix()).all_severities();
      cfg.keep_files = false;
      const std::uint64_t heal_ns0 = tracer.total_ns("recovery-action");
      const auto t0 = std::chrono::steady_clock::now();
      auto engine = ShardStreamEngine::recover(stream.matrix(), cfg);
      const auto t1 = std::chrono::steady_clock::now();
      const double recover_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      const double heal_ms =
          static_cast<double>(tracer.total_ns("recovery-action") - heal_ns0) /
          1e6;
      const std::size_t mismatches = bit_mismatches(engine, want);

      const double rebuild_ms =
          full_rebuild_ms(stream.matrix(), tile_dim, dir);
      const auto rec = engine.recovery_stats();
      const bool cheaper = recover_ms < rebuild_ms;
      ok = ok && crashed && rec.torn_epochs_replayed == 1 &&
           mismatches == 0 && cheaper;

      json.object()
          .field("section", std::string("kill_mid_commit"))
          .field("n", n)
          .field("tile_dim", tile_dim)
          .field("kill_point", std::string(kp.name))
          .field_bool("crash_injected", crashed)
          .field("torn_epochs_replayed", rec.torn_epochs_replayed)
          .field("recover_ms", recover_ms, 3)
          .field("recovery_action_ms", heal_ms, 3)
          .field("full_rebuild_ms", rebuild_ms, 3)
          .field("speedup_vs_rebuild",
                 recover_ms > 0.0 ? rebuild_ms / recover_ms : 0.0, 2)
          .field_bool("recovered_cheaper", cheaper)
          .field("bit_mismatches", mismatches);
    }
    // Injected faults and recovery actions must both have flowed through
    // the registry.
    const auto snap = tiv::obs::MetricsRegistry::instance().snapshot();
    tiv::bench::emit_metrics_json(json, snap);
    ok = tiv::bench::check_metrics(
             "bench_fault_recovery", snap, {},
             {"fault.injected_torn_writes",
              "engine.recovery.torn_epochs_replayed",
              "engine.recovery.sink_tiles_recovered"}) &&
         ok;
  }
  tiv::obs::SpanTracer::attach(nullptr);
  return ok ? 0 : 1;
}
