// Scenario observatory benchmark: detection quality of the live pipeline
// under ground-truthed dynamic traces (src/scenario/).
//
// For every generator family the bench (1) generates a seeded trace over a
// DS^2 delay space, (2) replays it through DelayStream ->
// ShardStreamEngine with per-epoch bit-identity verification against
// direct ingestion, (3) grades detection with the QualityScorer, and
// (4) emits one "scenario" record carrying the quality numbers and the
// replay's per-epoch timings. The counts (tp/fp/fn, onsets, clears,
// detour wins, edges_recomputed) are deterministic for a seeded trace —
// the severity kernel is bit-identical across thread counts and the
// generators bake the measurement noise into the trace — and
// test_scenario pins them exactly at this bench's --quick configuration
// (bench_workloads.hpp builds both).
//
// One extra leg replays flash_crowd with deterministic FaultInjector rot
// on both tile stores ("flash_crowd_faulted"): the engine must self-heal
// and stay bit-identical, with the recovery work reported alongside the
// (unchanged) quality numbers. Exit status is nonzero when any property
// fails, so a smoke run turns CI red on its own: every scenario record
// (at least 4, faulted leg included, the leg having landed rot) must have
// bit_mismatches == 0, every scenario and threshold-sweep record must
// clear the detection floors below (kScenarioFloors, kSweepFloors,
// kDetourWinRateFloor), threshold-sweep records must be present, and the
// registry snapshot must carry the scenario.* telemetry.
//
// Flags:
//   --quick           reduced scale (the CI smoke run)
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
#include "scenario/score.hpp"
#include "shard/fault_injector.hpp"
#include "util/flags.hpp"

namespace {

using tiv::bench::ScenarioRun;
using tiv::delayspace::DelayMatrix;
using tiv::scenario::ClassificationCounts;
using tiv::scenario::DelayTrace;
using tiv::scenario::ScorerParams;

/// Detection floors, each 0.95 x the lowest value a --quick run reported
/// for it when the floors were set (the scenario records' precision
/// 0.9681, recall 0.9959 and detour win rate 0.9986; the threshold-sweep
/// records' precision 0.9209 and recall 0.9803), so detection accuracy
/// cannot drop by more than 5% without the exit status saying so.
struct Floors {
  double precision;
  double recall;
};
constexpr Floors kScenarioFloors{0.9197, 0.9461};
constexpr Floors kSweepFloors{0.8749, 0.9313};
constexpr double kDetourWinRateFloor = 0.9487;

std::string scratch_file(const std::string& dir, const std::string& tag) {
  return (std::filesystem::path(dir) /
          ("bench_scenario_" + std::to_string(::getpid()) + "_" + tag +
           ".tiles"))
      .string();
}

/// The replay's per-epoch span totals.
struct ScenarioTimings {
  double replay_epoch_ms = 0.0;
  double truth_ms = 0.0;
  double verify_ms = 0.0;
  double score_ms = 0.0;
};

ScenarioTimings timings_since(const tiv::obs::SpanTracer& tracer,
                              std::uint64_t mark, std::size_t epochs) {
  const auto per_epoch_ms = [&](const char* name) {
    return static_cast<double>(tracer.total_ns(name, mark)) / 1e6 /
           static_cast<double>(std::max<std::size_t>(1, epochs));
  };
  return {per_epoch_ms("scenario-epoch"), per_epoch_ms("scenario-truth"),
          per_epoch_ms("scenario-verify"), per_epoch_ms("scenario-score")};
}

/// Whether `counts` clear `floors`; a failure is reported on stderr.
bool above_floors(const std::string& label, const ClassificationCounts& c,
                  const Floors& floors) {
  const bool ok =
      c.precision() >= floors.precision && c.recall() >= floors.recall;
  if (!ok) {
    std::cerr << "bench_scenario: " << label << " precision "
              << c.precision() << " (floor " << floors.precision
              << "), recall " << c.recall() << " (floor " << floors.recall
              << ")\n";
  }
  return ok;
}

/// The exit-status properties of one scenario record and its sweep:
/// bit-identical replay and detection above the floors. Failures are
/// reported on stderr.
bool scenario_ok(const std::string& label, const ScenarioRun& run) {
  bool ok = above_floors(label, run.scorer.headline().counts, kScenarioFloors);
  for (std::size_t t = 1; t < run.scorer.thresholds().size(); ++t) {
    const auto& tq = run.scorer.thresholds()[t];
    ok = above_floors(label + " @" + std::to_string(tq.threshold), tq.counts,
                      kSweepFloors) &&
         ok;
  }
  if (run.result.bit_mismatches != 0 ||
      run.scorer.detour().win_rate() < kDetourWinRateFloor) {
    std::cerr << "bench_scenario: " << label << " failed ("
              << run.result.bit_mismatches << " bit mismatches, detour win rate "
              << run.scorer.detour().win_rate() << ", floor "
              << kDetourWinRateFloor << ")\n";
    ok = false;
  }
  return ok;
}

void emit_scenario_record(tiv::bench::BenchReport& json,
                          const std::string& label, const DelayTrace& trace,
                          std::uint32_t n, double threshold,
                          const ScenarioRun& run, const ScenarioTimings& t) {
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
      .field("replay_epoch_ms", t.replay_epoch_ms, 3)
      .field("truth_epoch_ms", t.truth_ms, 3)
      .field("verify_epoch_ms", t.verify_ms, 3)
      .field("score_epoch_ms", t.score_ms, 3);
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

      const std::uint64_t mark = tracer.recorded();
      const ScenarioRun run = tiv::bench::replay_and_score(
          base, trace,
          tiv::bench::scenario_engine_config(tile_dim,
                                             scratch_file(dir, family + "_in"),
                                             scratch_file(dir, family + "_sev")),
          scorer_params);
      ok = scenario_ok(family, run) && ok;

      emit_scenario_record(json, family, trace, n, threshold, run,
                           timings_since(tracer, mark, run.result.epochs));
      ++scenario_records;
      // Sweep records: the same replay graded at a tighter and a looser
      // threshold.
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

      const std::uint64_t mark = tracer.recorded();
      const ScenarioRun run = tiv::bench::replay_and_score(
          base, trace,
          tiv::bench::scenario_engine_config(tile_dim,
                                             scratch_file(dir, "faulted_in"),
                                             scratch_file(dir, "faulted_sev")),
          scorer_params, &input_fault, &sink_fault);
      const std::size_t injected =
          input_fault.stats().bitflips + sink_fault.stats().bitflips;
      // The soak only proves something if rot actually landed.
      if (injected == 0) std::cerr << "bench_scenario: no rot injected\n";
      ok = scenario_ok("flash_crowd_faulted", run) && injected > 0 && ok;

      emit_scenario_record(json, "flash_crowd_faulted", trace, n, threshold,
                           run, timings_since(tracer, mark, run.result.epochs));
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
