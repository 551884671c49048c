// Streaming TIV monitor: continuous measurement ingestion with live
// severity maintenance — the src/stream/ subsystem end to end, on the tile
// store of the live severity engine (ShardStreamEngine), where neither the
// packed matrix nor the severity result is held in memory.
//
// The engine spills the matrix to an on-disk tile store and the severities
// to an on-disk severity tile sink, then keeps both repaired under a
// deliberately tiny cache budget: each round re-measures a few edges, the
// epoch's dirty hosts map to dirty input tiles (repacked in place, cache
// invalidated), and only the incident severities are recomputed and
// committed through the sink — while a watch-list reads the worst current
// TIV edge back through the budgeted severity cache. Per-round cache +
// repair stats show the working set staying bounded.
//
// Survivability (docs/RELIABILITY.md): the monitor loop degrades
// gracefully instead of dying on storage faults. The engine self-heals
// checksum failures (rebuilding a corrupt severity tile from the input
// store, repacking a corrupt input tile from the live matrix), and each
// round logs what recovery absorbed; anything genuinely unrecoverable
// skips the round with a warning and the loop continues. Pass
// --inject-bitflips=K to flip one bit on every K-th tile read of both
// stores (the deterministic fault injector) and watch the healing happen.
//
// Telemetry (docs/OBSERVABILITY.md): every round ends with a one-line
// digest of per-phase wall clock, taken from the span tracer rather than
// ad-hoc timers, so the printed numbers are the same spans a --trace-out
// capture shows. --metrics-out=FILE appends one JSONL metrics snapshot
// (deltas since the previous line) per round; --trace-out=FILE dumps the
// whole run as Chrome trace_event JSON loadable in about://tracing.
//
// Profiling (docs/OBSERVABILITY.md): --profile-out=FILE runs the
// span-attributed sampling profiler for the whole run and writes its JSON
// profile; --profile-collapsed=FILE writes the collapsed-stack form for
// flamegraph tooling; --profile-hz=HZ picks the sampling rate (default 97).
//
// Scenarios (docs/OBSERVABILITY.md, "Quality observatory"):
// --scenario=NAME replaces the random probe loop with a seeded scenario
// trace (diurnal_drift, correlated_links, flash_crowd, partition_heal,
// oscillation) generated over this run's delay space — one trace epoch per
// round. --scenario=FILE replays a .tivtrace file instead (host count must
// match --hosts). --trace-record=FILE writes whatever the monitor ingested
// as a .tivtrace, so an interesting live run can be replayed later.
//
//   ./outcore_monitor [--hosts=200] [--rounds=6] [--seed=1]
//                     [--inject-bitflips=K]
//                     [--scenario=NAME|FILE] [--trace-record=FILE]
//                     [--metrics-out=FILE] [--trace-out=FILE]
//                     [--profile-out=FILE] [--profile-collapsed=FILE]
//                     [--profile-hz=HZ]
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <vector>

#include "delayspace/datasets.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "scenario/generators.hpp"
#include "scenario/trace.hpp"
#include "shard/fault_injector.hpp"
#include "shard/tile_file.hpp"
#include "stream/delay_stream.hpp"
#include "stream/shard_stream.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

/// Retained-span totals for the digest line; sampled per round so each
/// line shows that round's delta.
struct PhaseTotals {
  std::uint64_t ingest = 0;
  std::uint64_t epoch = 0;
  std::uint64_t screen = 0;
  std::uint64_t journal = 0;
  std::uint64_t repack = 0;
  std::uint64_t band = 0;
  std::uint64_t commit = 0;
};

PhaseTotals sample_phases(const tiv::obs::SpanTracer& tracer) {
  PhaseTotals t;
  t.ingest = tracer.total_ns("ingest");
  t.epoch = tracer.total_ns("epoch");
  t.screen = tracer.total_ns("epoch-screen");
  t.journal = tracer.total_ns("epoch-journal");
  t.repack = tracer.total_ns("tile-repack");
  t.band = tracer.total_ns("band-pair-stream");
  t.commit = tracer.total_ns("sink-commit");
  return t;
}

double ms(std::uint64_t later_ns, std::uint64_t earlier_ns) {
  return later_ns >= earlier_ns
             ? static_cast<double>(later_ns - earlier_ns) / 1e6
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tiv;
  using delayspace::HostId;
  const Flags flags(argc, argv);
  const auto hosts = static_cast<std::uint32_t>(flags.get_int("hosts", 200));
  auto rounds = static_cast<int>(flags.get_int("rounds", 6));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto inject_k =
      static_cast<std::uint32_t>(flags.get_int("inject-bitflips", 0));
  const std::string scenario_arg = flags.get_string("scenario", "");
  const std::string record_path = flags.get_string("trace-record", "");
  const std::string metrics_path = flags.get_string("metrics-out", "");
  const std::string trace_path = flags.get_string("trace-out", "");
  const std::string profile_path = flags.get_string("profile-out", "");
  const std::string collapsed_path = flags.get_string("profile-collapsed", "");
  const double profile_hz = flags.get_double("profile-hz", 97.0);
  reject_unknown_flags(flags);

  // The tracer powers both the per-round digest and --trace-out, so it is
  // always attached; 2^16 slots hold every span of a typical run.
  obs::SpanTracer tracer(1 << 16);
  obs::SpanTracer::attach(&tracer);

  obs::SpanProfiler profiler({profile_hz});
  if (!profile_path.empty() || !collapsed_path.empty()) profiler.start();

  std::ofstream metrics_file;
  std::optional<obs::SnapshotReporter> reporter;
  if (!metrics_path.empty()) {
    metrics_file.open(metrics_path);
    if (!metrics_file) {
      std::cerr << "cannot open --metrics-out file: " << metrics_path << "\n";
      return 1;
    }
    reporter.emplace(metrics_file);
  }

  // The "network": a DS^2-like delay space whose matrix seeds the stream.
  auto params = delayspace::dataset_params(delayspace::DatasetId::kDs2, hosts);
  params.topology.seed ^= seed;
  params.hosts.seed ^= seed;
  const auto space = delayspace::generate_delay_space(params);

  stream::EstimatorParams est;
  est.policy = stream::SmoothingPolicy::kEwma;
  est.ewma_alpha = 0.3f;
  stream::DelayStream live(space.measured, est);
  const HostId n = live.matrix().size();

  // Scenario mode: the probe loop below is replaced by a seeded trace's
  // sample stream, one epoch per round (docs/OBSERVABILITY.md).
  std::optional<scenario::DelayTrace> scenario_trace;
  if (!scenario_arg.empty()) {
    if (scenario::is_scenario_family(scenario_arg)) {
      scenario::ScenarioParams sp;
      sp.epochs = static_cast<std::uint32_t>(std::max(rounds, 1));
      sp.seed = seed;
      scenario_trace =
          scenario::generate_scenario(scenario_arg, space.measured, sp);
    } else {
      try {
        scenario_trace = scenario::DelayTrace::load(scenario_arg);
      } catch (const std::exception& e) {
        std::cerr << "cannot load --scenario trace: " << e.what() << "\n";
        return 1;
      }
      if (scenario_trace->hosts != n) {
        std::cerr << "--scenario trace has " << scenario_trace->hosts
                  << " hosts but this run has " << n
                  << "; rerun with --hosts=" << scenario_trace->hosts << "\n";
        return 1;
      }
    }
    rounds = static_cast<int>(scenario_trace->epochs.size());
    std::cout << "Scenario '" << scenario_trace->family << "' (seed "
              << scenario_trace->seed << "): " << rounds << " epoch(s), "
              << scenario_trace->total_samples() << " measurement(s)\n";
  }

  // --trace-record: everything the monitor ingests, written as a replayable
  // trace. In random-probe mode the ground truth never changes, so each
  // recorded epoch carries samples only.
  std::optional<scenario::DelayTrace> recorded;
  if (!record_path.empty()) {
    if (scenario_trace) {
      recorded = *scenario_trace;  // keep the truth stream replayable too
    } else {
      recorded.emplace();
      recorded->hosts = n;
      recorded->seed = seed;
      recorded->family = "recorded";
    }
  }

  // Deliberately tiny budgets: a dozen input tiles and half a dozen
  // severity tiles — far below the full tile grids — so every round
  // genuinely streams from disk. Floored at the pinned working set
  // (3 input tiles per band-pair worker, plus headroom; one output tile
  // per worker) so the within-budget claim below holds on many-core hosts
  // too, where pinned tiles alone would exceed a fixed 12-tile budget.
  stream::ShardStreamConfig cfg;
  cfg.tile_dim = 32;
  const std::size_t tile_bytes = shard::tile_size_bytes(cfg.tile_dim);
  cfg.input_budget_bytes =
      std::max(std::size_t{12}, 3 * parallel_thread_count() + 2) * tile_bytes;
  cfg.output_budget_bytes =
      std::max(std::size_t{6}, parallel_thread_count() + 1) * tile_bytes;
  stream::ShardStreamEngine monitor(live.matrix(), cfg);

  // The live matrix is the repair source for corrupt *input* tiles; sink
  // tiles rebuild from the input store. With both in place every checksum
  // failure is recoverable and the loop below never has to die for one.
  monitor.attach_source(&live.matrix());

  std::optional<shard::FaultInjector> in_inj;
  std::optional<shard::FaultInjector> out_inj;
  if (inject_k > 0) {
    shard::FaultInjector::Config fault;
    fault.bitflip_every_kth_read = inject_k;
    fault.seed = seed ^ 0xb17ULL;
    in_inj.emplace(fault);
    fault.seed = seed ^ 0xf11ULL;
    out_inj.emplace(fault);
    monitor.set_input_fault_injector(&*in_inj);
    monitor.set_sink_fault_injector(&*out_inj);
    std::cout << "Fault injection ON: one bit flipped on every " << inject_k
              << "th tile read of each store\n";
  }

  std::cout << "Monitoring " << n << " hosts out of core ("
            << live.matrix().measured_pair_count() << " measured pairs)\n"
            << "  input store:  " << monitor.input_path() << " (cache budget "
            << cfg.input_budget_bytes / 1024 << " KiB)\n"
            << "  severity sink: " << monitor.sink_path() << " (cache budget "
            << cfg.output_budget_bytes / 1024 << " KiB)\n\n";

  Rng rng(seed ^ 0xfeedULL);
  Table table({"round", "samples", "dirty hosts", "tiles repacked",
               "sev tiles", "edges repaired", "in hit%", "in peak KiB",
               "out peak KiB", "worst edge", "severity"});
  std::vector<float> row(n);
  auto last_rec = monitor.recovery_stats();
  auto last_phases = sample_phases(tracer);
  auto last_snap = obs::MetricsRegistry::instance().snapshot();
  for (int round = 1; round <= rounds; ++round) {
    // One round of measurements: the scenario trace's epoch when replaying,
    // otherwise ~2% of hosts' edges re-measured with noise around the true
    // delay and a 5% outage / recovery mix (measured<->missing churn).
    std::vector<stream::DelaySample> batch;
    if (scenario_trace) {
      batch = scenario_trace->epochs[static_cast<std::size_t>(round - 1)]
                  .samples;
    } else {
      const auto probes = std::max<std::uint64_t>(2, n / 50);
      for (std::uint64_t p = 0; p < probes; ++p) {
        const auto a = static_cast<HostId>(rng.uniform_index(n));
        const auto b = static_cast<HostId>(rng.uniform_index(n));
        if (a == b) continue;
        const float truth = space.measured.at(a, b);
        float sample;
        if (rng.bernoulli(0.05)) {
          sample = delayspace::DelayMatrix::kMissing;  // probe timed out
        } else if (truth >= 0.0f) {
          sample = truth * static_cast<float>(rng.uniform(0.85, 1.25));
        } else {
          sample = static_cast<float>(rng.uniform(20.0, 300.0));  // new path
        }
        batch.push_back({a, b, sample, static_cast<double>(round)});
      }
      if (recorded) {
        scenario::TraceEpoch& ep = recorded->epochs.emplace_back();
        ep.samples = batch;
      }
    }
    live.ingest(batch);

    const stream::Epoch epoch = live.commit_epoch();
    // Graceful degradation: the engine heals every checksum failure it can
    // (and logs what it did below); a genuinely unrecoverable fault skips
    // the round with a warning instead of killing the monitor.
    try {
      const auto stats = monitor.apply_epoch(live.matrix(), epoch.dirty_hosts);

      // Watch-list: the worst currently-known severity, read back through
      // the budgeted sink cache (never materializing the N^2 result).
      float worst = -1.0f;
      HostId wa = 0;
      HostId wb = 0;
      for (HostId i = 0; i < n; ++i) {
        monitor.severity_row(i, row);
        for (HostId j = i + 1; j < n; ++j) {
          if (row[j] > worst) {
            worst = row[j];
            wa = i;
            wb = j;
          }
        }
      }
      const auto in_stats = monitor.input_cache_stats();
      const auto out_stats = monitor.output_cache_stats();
      table.add_row({std::to_string(round), std::to_string(batch.size()),
                     std::to_string(epoch.dirty_hosts.size()),
                     std::to_string(stats.input_tiles_repacked),
                     std::to_string(stats.severity_tiles_committed),
                     std::to_string(stats.edges_recomputed),
                     format_double(100.0 * in_stats.hit_rate(), 1),
                     std::to_string(in_stats.peak_bytes / 1024),
                     std::to_string(out_stats.peak_bytes / 1024),
                     std::to_string(wa) + "-" + std::to_string(wb),
                     format_double(worst, 3)});
    } catch (const std::exception& e) {
      std::cout << "[round " << round << "] unrecoverable storage fault: "
                << e.what() << " — severities stale this round, continuing\n";
    }

    // Recovery log: what the storage layer absorbed or healed this round.
    const auto rec = monitor.recovery_stats();
    const auto transient = (rec.input_read_retries + rec.sink_read_retries) -
                           (last_rec.input_read_retries +
                            last_rec.sink_read_retries);
    const auto healed_in =
        rec.input_tiles_recovered - last_rec.input_tiles_recovered;
    const auto healed_out =
        rec.sink_tiles_recovered - last_rec.sink_tiles_recovered;
    const auto retried = rec.io_retries - last_rec.io_retries;
    if (transient + healed_in + healed_out + retried > 0) {
      std::cout << "[round " << round << "] recovery: " << transient
                << " transient flip(s) absorbed by re-read, " << healed_out
                << " sink tile(s) rebuilt, " << healed_in
                << " input tile(s) repacked, " << retried
                << " I/O retr" << (retried == 1 ? "y" : "ies") << "\n";
    }
    last_rec = rec;

    // Telemetry digest: phase wall clock from the tracer's spans (the same
    // numbers a --trace-out capture renders) plus the round's I/O and
    // cache-hit deltas from the registry.
    const auto phases = sample_phases(tracer);
    const auto snap = obs::MetricsRegistry::instance().snapshot();
    const auto delta = snap.delta_since(last_snap);
    const auto counter = [&delta](const char* name) -> std::uint64_t {
      const auto it = delta.counters.find(name);
      return it == delta.counters.end() ? 0 : it->second;
    };
    const std::uint64_t hits =
        counter("cache.input.hits") + counter("cache.sink.hits");
    const std::uint64_t misses =
        counter("cache.input.misses") + counter("cache.sink.misses");
    const double hit_pct =
        hits + misses == 0
            ? 100.0
            : 100.0 * static_cast<double>(hits) /
                  static_cast<double>(hits + misses);
    std::cout << "[round " << round << "] phases: ingest "
              << format_double(ms(phases.ingest, last_phases.ingest), 2)
              << " ms, epoch "
              << format_double(ms(phases.epoch, last_phases.epoch), 2)
              << " ms (screen "
              << format_double(ms(phases.screen, last_phases.screen), 2)
              << ", journal "
              << format_double(ms(phases.journal, last_phases.journal), 2)
              << ", repack "
              << format_double(ms(phases.repack, last_phases.repack), 2)
              << ", band-stream "
              << format_double(ms(phases.band, last_phases.band), 2)
              << ", commit "
              << format_double(ms(phases.commit, last_phases.commit), 2)
              << ") | io: read "
              << (counter("shard.input.read_bytes") +
                  counter("shard.sink.read_bytes")) / 1024
              << " KiB, wrote "
              << (counter("shard.input.write_bytes") +
                  counter("shard.sink.write_bytes")) / 1024
              << " KiB | cache hit " << format_double(hit_pct, 1)
              << "% | rejected " << counter("stream.samples_rejected") << " ("
              << counter("stream.rejected_self_pair") << " self-pair, "
              << counter("stream.rejected_stale") << " stale, "
              << counter("stream.rejected_nonfinite") << " non-finite)\n";
    last_phases = phases;
    last_snap = snap;
    if (reporter) reporter->report_now("round-" + std::to_string(round));
  }
  table.print(std::cout);
  std::cout << "\nEach round repaired only the dirty input tiles and the "
               "severity tiles holding\nedges incident to re-measured hosts; "
               "peak tracked memory stayed within the\n"
            << (cfg.input_budget_bytes + cfg.output_budget_bytes) / 1024
            << " KiB combined budget against "
            << static_cast<std::size_t>(n) * n * 2 * sizeof(float) / 1024
            << " KiB of matrix + severity state.\n"
            << "(spill files are removed when the engine is destroyed)\n";

  obs::SpanTracer::attach(nullptr);
  if (profiler.running()) {
    profiler.stop();
    const obs::Profile prof = profiler.profile();
    if (!profile_path.empty()) {
      std::ofstream pf(profile_path);
      if (!pf) {
        std::cerr << "cannot open --profile-out file: " << profile_path
                  << "\n";
        return 1;
      }
      prof.write_json(pf);
      std::cout << "profile: " << prof.samples << " sample(s) over "
                << prof.ticks << " tick(s) written to " << profile_path
                << "\n";
    }
    if (!collapsed_path.empty()) {
      std::ofstream cf(collapsed_path);
      if (!cf) {
        std::cerr << "cannot open --profile-collapsed file: "
                  << collapsed_path << "\n";
        return 1;
      }
      prof.write_collapsed(cf);
      std::cout << "collapsed profile written to " << collapsed_path
                << " (feed to flamegraph.pl / speedscope)\n";
    }
  }
  if (!trace_path.empty()) {
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
      std::cerr << "cannot open --trace-out file: " << trace_path << "\n";
      return 1;
    }
    tracer.write_chrome_trace(trace_file);
    std::cout << "trace: " << tracer.events().size() << " span(s) written to "
              << trace_path << " (load in about://tracing or perfetto.dev)\n";
  }
  if (!metrics_path.empty()) {
    std::cout << "metrics: " << rounds << " JSONL snapshot(s) written to "
              << metrics_path << "\n";
  }
  if (recorded) {
    try {
      recorded->save(record_path);
    } catch (const std::exception& e) {
      std::cerr << "cannot write --trace-record file: " << e.what() << "\n";
      return 1;
    }
    std::cout << "trace-record: " << recorded->epochs.size()
              << " epoch(s) written to " << record_path
              << " (replay with --scenario=" << record_path << ")\n";
  }
  return 0;
}
