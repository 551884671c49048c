// Scenario observatory benchmark: detection quality of the live pipeline
// under ground-truthed dynamic traces (src/scenario/), regression-gated in
// CI exactly like the perf benches.
//
// For every generator family the bench (1) generates a seeded trace over a
// DS^2 delay space, (2) replays it through DelayStream ->
// ShardStreamEngine with per-epoch bit-identity verification against
// direct ingestion, (3) grades detection with the QualityScorer, and
// (4) emits one "scenario" record carrying the quality numbers CI gates:
//
//   =  bit_mismatches (0), tp/fp/fn, onsets, onsets_detected, detour
//      counts — all deterministic for a seeded trace (the severity kernel
//      is bit-identical across thread counts and the generators bake the
//      measurement noise into the trace)
//   >  precision / recall / f1 / detour_win_rate floors
//   <  replay timings (generous, like every timing gate)
//
// One extra leg replays flash_crowd with deterministic FaultInjector rot
// on both tile stores ("flash_crowd_faulted"): the engine must self-heal
// and stay bit-identical, with the recovery work reported alongside the
// (unchanged) quality numbers. Exit status is nonzero when any property
// fails, so a smoke run turns CI red on its own: every scenario record
// (at least 4, faulted leg included, the leg having landed rot) must have
// bit_mismatches == 0 and precision and recall in (0, 1], threshold-sweep
// records must be present, and the registry snapshot must carry the
// scenario.* telemetry.
//
// Flags:
//   --quick           reduced scale (CI run: committed baseline scale)
//   --hosts=N         matrix size (default 160; 96 quick)
//   --epochs=E        trace length in epochs (default 16; 12 quick)
//   --tile=T          engine tile edge (default 32)
//   --threshold=S     headline severity threshold (default 0.1)
//   --seed=S          generator seed (default 7)
//   --dir=PATH        scratch directory for the engine's tile stores
//   --trace-dir=PATH  also save every generated trace file there
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/generators.hpp"
#include "scenario/replay.hpp"
#include "scenario/score.hpp"
#include "shard/fault_injector.hpp"
#include "shard/tile_file.hpp"
#include "stream/shard_stream.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"

namespace {

using tiv::delayspace::DelayMatrix;
using tiv::scenario::DelayTrace;
using tiv::scenario::QualityScorer;
using tiv::scenario::ReplayDriver;
using tiv::scenario::ScorerParams;
using tiv::stream::ShardStreamConfig;
using tiv::stream::ShardStreamEngine;

std::string scratch_file(const std::string& dir, const std::string& tag) {
  return (std::filesystem::path(dir) /
          ("bench_scenario_" + std::to_string(::getpid()) + "_" + tag +
           ".tiles"))
      .string();
}

struct ScenarioRun {
  QualityScorer scorer;
  ReplayDriver::Result result;
  ShardStreamEngine::RecoveryStats recovery;
  double replay_epoch_ms = 0.0;
  double truth_ms = 0.0;
  double verify_ms = 0.0;
  double score_ms = 0.0;
};

ScenarioRun replay_and_score(const DelayMatrix& base, const DelayTrace& trace,
                             const ShardStreamConfig& cfg,
                             const ScorerParams& scorer_params,
                             tiv::obs::SpanTracer& tracer,
                             tiv::shard::FaultInjector* input_fault = nullptr,
                             tiv::shard::FaultInjector* sink_fault = nullptr) {
  ScenarioRun run{QualityScorer(base.size(), scorer_params), {}, {}};
  ShardStreamEngine engine(base, cfg);
  engine.set_input_fault_injector(input_fault);
  engine.set_sink_fault_injector(sink_fault);
  ReplayDriver driver(base, trace);
  const std::uint64_t mark = tracer.recorded();
  run.result = driver.run(engine, [&](const ReplayDriver::EpochView& view) {
    run.scorer.observe_epoch(view.truth, view.truth_severities, view.monitor,
                             view.monitor_severities);
  });
  run.recovery = engine.recovery_stats();
  const auto epochs = std::max<std::size_t>(1, run.result.epochs);
  const auto per_epoch_ms = [&](const char* name) {
    return static_cast<double>(tracer.total_ns(name, mark)) / 1e6 /
           static_cast<double>(epochs);
  };
  run.replay_epoch_ms = per_epoch_ms("scenario-epoch");
  run.truth_ms = per_epoch_ms("scenario-truth");
  run.verify_ms = per_epoch_ms("scenario-verify");
  run.score_ms = per_epoch_ms("scenario-score");
  return run;
}

/// The exit-status properties of one scenario record: bit-identical replay
/// and non-degenerate detection rates. Failures are reported on stderr.
bool scenario_ok(const std::string& label, const ScenarioRun& run) {
  const auto& c = run.scorer.headline().counts;
  const bool ok = run.result.bit_mismatches == 0 && c.precision() > 0.0 &&
                  c.precision() <= 1.0 && c.recall() > 0.0 &&
                  c.recall() <= 1.0;
  if (!ok) {
    std::cerr << "bench_scenario: " << label << " failed ("
              << run.result.bit_mismatches << " bit mismatches, precision "
              << c.precision() << ", recall " << c.recall() << ")\n";
  }
  return ok;
}

void emit_scenario_record(tiv::bench::BenchReport& json,
                          const std::string& label, const DelayTrace& trace,
                          std::uint32_t n, double threshold,
                          const ScenarioRun& run) {
  const auto& q = run.scorer.headline();
  const auto& d = run.scorer.detour();
  json.object()
      .field("section", std::string("scenario"))
      .field("scenario", label)
      .field("n", n)
      .field("epochs", run.result.epochs)
      .field("samples", run.result.samples)
      .field("truth_events", trace.total_truth_events())
      .field("severity_threshold", threshold, 3)
      .field("tp", q.counts.tp)
      .field("fp", q.counts.fp)
      .field("fn", q.counts.fn)
      .field("tn", q.counts.tn)
      .field("precision", q.counts.precision(), 4)
      .field("recall", q.counts.recall(), 4)
      .field("f1", q.counts.f1(), 4)
      .field("onsets", q.onsets)
      .field("onsets_detected", q.onsets_detected)
      .field("onsets_missed", q.onsets_missed)
      .field("time_to_detect_epochs", q.mean_time_to_detect(), 3)
      .field("clears", q.clears)
      .field("clears_confirmed", q.clears_confirmed)
      .field("time_to_clear_epochs", q.mean_time_to_clear(), 3)
      .field("detour_trials", d.trials)
      .field("detour_relay_found", d.relay_found)
      .field("detour_wins", d.wins)
      .field("detour_win_rate", d.win_rate(), 4)
      .field("bit_mismatches", run.result.bit_mismatches)
      .field("edges_recomputed", run.result.edges_recomputed)
      .field("input_tiles_recovered", run.recovery.input_tiles_recovered)
      .field("sink_tiles_recovered", run.recovery.sink_tiles_recovered)
      .field("io_retries", run.recovery.io_retries)
      .field("replay_epoch_ms", run.replay_epoch_ms, 3)
      .field("truth_epoch_ms", run.truth_ms, 3)
      .field("verify_epoch_ms", run.verify_ms, 3)
      .field("score_epoch_ms", run.score_ms, 3);
}

}  // namespace

int main(int argc, char** argv) {
  const tiv::Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  flags.get_bool("json", false);  // accepted for uniformity; always JSON
  const auto n = static_cast<tiv::delayspace::HostId>(
      flags.get_int("hosts", quick ? 96 : 160));
  const auto epochs =
      static_cast<std::uint32_t>(flags.get_int("epochs", quick ? 12 : 16));
  const auto tile_dim =
      static_cast<std::uint32_t>(flags.get_int("tile", 32));
  const double threshold = flags.get_double("threshold", 0.1);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const std::string dir = flags.get_string(
      "dir", std::filesystem::temp_directory_path().string());
  const std::string trace_dir = flags.get_string("trace-dir", "");
  tiv::reject_unknown_flags(flags);

  // Same pinned-working-set budget floor as bench_shard_stream: the
  // band-pair drivers pin <= 3 input tiles per worker (plus two tiles of
  // headroom), sink reads pin one tile per reader.
  const std::size_t tile_bytes = tiv::shard::tile_size_bytes(tile_dim);
  const std::size_t input_budget = std::max<std::size_t>(
      std::size_t{256} << 10,
      (3 * tiv::parallel_thread_count() + 2) * tile_bytes);
  const std::size_t output_budget = std::max<std::size_t>(
      std::size_t{128} << 10,
      (tiv::parallel_thread_count() + 1) * tile_bytes);

  tiv::obs::SpanTracer tracer(1 << 14);
  tiv::obs::SpanTracer::attach(&tracer);

  bool ok = true;
  std::size_t scenario_records = 0;
  std::size_t sweep_records = 0;
  {
    tiv::bench::BenchConfig bench_cfg;
    bench_cfg.hosts = n;
    bench_cfg.seed = seed;
    tiv::bench::BenchReport json(std::cout, "bench_scenario");
    json.meta(bench_cfg)
        .field("epochs", epochs)
        .field("tile_dim", tile_dim)
        .field("severity_threshold", threshold, 3)
        .field_bool("quick", quick);

    const auto space = tiv::bench::make_space(tiv::delayspace::DatasetId::kDs2,
                                              bench_cfg);
    const DelayMatrix& base = space.measured;

    tiv::scenario::ScenarioParams params;
    params.epochs = epochs;
    params.seed = seed;

    ScorerParams scorer_params;
    scorer_params.severity_threshold = threshold;
    scorer_params.threshold_sweep = {threshold * 0.5, threshold * 2.0};

    for (const auto& family : tiv::scenario::scenario_families()) {
      const DelayTrace trace =
          tiv::scenario::generate_scenario(family, base, params);
      if (!trace_dir.empty()) {
        trace.save((std::filesystem::path(trace_dir) / (family + ".tivtrace"))
                       .string());
      }

      ShardStreamConfig cfg;
      cfg.tile_dim = tile_dim;
      cfg.input_budget_bytes = input_budget;
      cfg.output_budget_bytes = output_budget;
      cfg.input_path = scratch_file(dir, family + "_in");
      cfg.sink_path = scratch_file(dir, family + "_sev");
      const ScenarioRun run =
          replay_and_score(base, trace, cfg, scorer_params, tracer);
      ok = scenario_ok(family, run) && ok;

      emit_scenario_record(json, family, trace, n, threshold, run);
      ++scenario_records;
      // Sweep records: the same replay graded at tighter/looser
      // thresholds (informational, not gated).
      for (std::size_t t = 1; t < run.scorer.thresholds().size(); ++t) {
        const auto& tq = run.scorer.thresholds()[t];
        ++sweep_records;
        json.object()
            .field("section", std::string("threshold_sweep"))
            .field("scenario", family)
            .field("n", n)
            .field("threshold", tq.threshold, 3)
            .field("tp", tq.counts.tp)
            .field("fp", tq.counts.fp)
            .field("fn", tq.counts.fn)
            .field("precision", tq.counts.precision(), 4)
            .field("recall", tq.counts.recall(), 4)
            .field("f1", tq.counts.f1(), 4)
            .field("time_to_detect_epochs", tq.mean_time_to_detect(), 3);
      }
    }

    // Fault-soak leg: the same flash_crowd trace under deterministic rot
    // on both stores. Self-healing must keep the replay bit-identical, so
    // every quality number matches the clean flash_crowd record — only the
    // recovery counters differ.
    {
      const DelayTrace trace =
          tiv::scenario::generate_scenario("flash_crowd", base, params);
      tiv::shard::FaultInjector::Config fc;
      fc.seed = seed ^ 0xfau;
      fc.bitflip_every_kth_read = 61;
      tiv::shard::FaultInjector input_fault(fc);
      fc.seed = seed ^ 0xfbu;
      tiv::shard::FaultInjector sink_fault(fc);

      ShardStreamConfig cfg;
      cfg.tile_dim = tile_dim;
      cfg.input_budget_bytes = input_budget;
      cfg.output_budget_bytes = output_budget;
      cfg.input_path = scratch_file(dir, "faulted_in");
      cfg.sink_path = scratch_file(dir, "faulted_sev");
      const ScenarioRun run = replay_and_score(
          base, trace, cfg, scorer_params, tracer, &input_fault, &sink_fault);
      const std::size_t injected =
          input_fault.stats().bitflips + sink_fault.stats().bitflips;
      // The soak only proves something if rot actually landed.
      if (injected == 0) std::cerr << "bench_scenario: no rot injected\n";
      ok = scenario_ok("flash_crowd_faulted", run) && injected > 0 && ok;

      emit_scenario_record(json, "flash_crowd_faulted", trace, n, threshold,
                           run);
      ++scenario_records;
    }

    const auto snap = tiv::obs::MetricsRegistry::instance().snapshot();
    tiv::bench::emit_metrics_json(json, snap);
    ok = tiv::bench::check_metrics(
             "bench_scenario", snap,
             {"scenario.epochs_replayed", "scenario.bit_mismatches",
              "scenario.true_positives", "scenario.onsets_detected",
              "scenario.detour_wins"}) &&
         ok;
  }
  if (scenario_records < 4 || sweep_records == 0) {
    std::cerr << "bench_scenario: " << scenario_records
              << " scenario records, " << sweep_records
              << " threshold-sweep records\n";
    ok = false;
  }
  tiv::obs::SpanTracer::attach(nullptr);
  return ok ? 0 : 1;
}
