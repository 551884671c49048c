// The benches' seeded inputs and runs, in one place: the tier-1 tests that
// pin the counts a bench reports at --quick (test_shard_stream,
// test_scenario) build exactly the bench's workload from these, so a count
// that moves fails ctest, not a run of the bench. bench_common.hpp
// includes this header; tests include it as "bench/bench_workloads.hpp".
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/severity.hpp"
#include "delayspace/datasets.hpp"
#include "delayspace/delay_matrix.hpp"
#include "scenario/replay.hpp"
#include "scenario/score.hpp"
#include "shard/fault_injector.hpp"
#include "shard/tile_file.hpp"
#include "stream/delay_stream.hpp"
#include "stream/severity_engine.hpp"
#include "stream/shard_stream.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tiv::bench {

/// Symmetric matrix of uniform-random RTTs in [1, 400) ms with an
/// independent per-pair missing probability. The kernel benches' input:
/// cost depends only on n and the missing pattern, and large-n setups stay
/// cheap compared to generating a full delay space.
inline delayspace::DelayMatrix random_matrix(delayspace::HostId n,
                                             double missing_fraction,
                                             std::uint64_t seed) {
  delayspace::DelayMatrix m(n);
  Rng rng(seed);
  for (delayspace::HostId i = 0; i < n; ++i) {
    for (delayspace::HostId j = i + 1; j < n; ++j) {
      if (rng.bernoulli(missing_fraction)) continue;
      m.set(i, j, static_cast<float>(rng.uniform(1.0, 400.0)));
    }
  }
  return m;
}

/// A dataset preset at `hosts` hosts (0 = full size), `seed` xor-ed into
/// its generator seeds.
inline delayspace::DelaySpace make_space(delayspace::DatasetId id,
                                         std::uint32_t hosts,
                                         std::uint64_t seed) {
  auto params = delayspace::dataset_params(id, hosts);
  params.topology.seed ^= seed;
  params.hosts.seed ^= seed;
  return delayspace::generate_delay_space(params);
}

/// One epoch of churn for the live-engine benches: `hosts` distinct hosts
/// paired off into disjoint edges, each re-measured once. Returns samples
/// ingested.
inline std::size_t replay_churn_epoch(stream::DelayStream& stream, Rng& rng,
                                      std::size_t hosts, double t) {
  const auto n = stream.matrix().size();
  const auto k = static_cast<std::uint32_t>(std::min<std::size_t>(
      hosts & ~std::size_t{1}, n & ~static_cast<std::size_t>(1)));
  const auto picks = rng.sample_without_replacement(n, k);
  std::vector<stream::DelaySample> batch;
  batch.reserve(k / 2);
  for (std::uint32_t e = 0; e + 1 < k; e += 2) {
    batch.push_back({picks[e], picks[e + 1],
                     static_cast<float>(rng.uniform(1.0, 400.0)), t});
  }
  stream.ingest(batch);
  return batch.size();
}

/// Cells whose float bits differ between the engine's severities, read in
/// one all_severities pass, and `want` (0 = bit-identical).
inline std::size_t bit_mismatches(stream::SeverityEngine& engine,
                                  const core::SeverityMatrix& want) {
  const delayspace::HostId n = engine.size();
  core::SeverityMatrix got(n);
  engine.all_severities(got);
  std::size_t bad = 0;
  for (delayspace::HostId a = 0; a < n; ++a) {
    for (delayspace::HostId b = 0; b < n; ++b) {
      bad += std::bit_cast<std::uint32_t>(got.at(a, b)) !=
             std::bit_cast<std::uint32_t>(want.at(a, b));
    }
  }
  return bad;
}

/// bench_shard_stream's sink_reads leg: the point reads (random
/// off-diagonal pairs) and the row reads it times, drawn from `rng` in
/// that order, and the sink cache budget they run under — a quarter of the
/// sink's tiles, so the reads run out of core at every size.
struct SinkReadPlan {
  std::vector<std::pair<delayspace::HostId, delayspace::HostId>> points;
  std::vector<delayspace::HostId> rows;
  std::size_t budget_bytes = 0;
};

inline SinkReadPlan sink_read_plan(Rng& rng, delayspace::HostId n,
                                   std::uint32_t tile_dim,
                                   std::size_t point_reads,
                                   std::size_t row_reads) {
  SinkReadPlan plan;
  const std::size_t bands = (n + tile_dim - 1) / tile_dim;
  plan.budget_bytes = std::max<std::size_t>(bands * (bands + 1) / 2 / 4, 1) *
                      shard::tile_size_bytes(tile_dim);
  while (plan.points.size() < point_reads) {
    const auto a = static_cast<delayspace::HostId>(rng.uniform_index(n));
    const auto b = static_cast<delayspace::HostId>(rng.uniform_index(n));
    if (a != b) plan.points.emplace_back(a, b);
  }
  plan.rows.resize(row_reads);
  for (delayspace::HostId& a : plan.rows) {
    a = static_cast<delayspace::HostId>(rng.uniform_index(n));
  }
  return plan;
}

/// bench_scenario's engine: tile `tile_dim`, its budgets floored at the
/// pinned working sets — the band-pair drivers pin <= 3 input tiles per
/// worker (plus two tiles of headroom), sink reads one tile per reader.
inline stream::ShardStreamConfig scenario_engine_config(
    std::uint32_t tile_dim, std::string input_path, std::string sink_path) {
  const std::size_t tile_bytes = shard::tile_size_bytes(tile_dim);
  stream::ShardStreamConfig cfg;
  cfg.tile_dim = tile_dim;
  cfg.input_budget_bytes = std::max<std::size_t>(
      std::size_t{256} << 10, (3 * parallel_thread_count() + 2) * tile_bytes);
  cfg.output_budget_bytes = std::max<std::size_t>(
      std::size_t{128} << 10, (parallel_thread_count() + 1) * tile_bytes);
  cfg.input_path = std::move(input_path);
  cfg.sink_path = std::move(sink_path);
  return cfg;
}

/// One scenario leg of bench_scenario, graded.
struct ScenarioRun {
  scenario::QualityScorer scorer;
  scenario::ReplayDriver::Result result;
  stream::ShardStreamEngine::RecoveryStats recovery;
};

/// Replays `trace` over `base` through a fresh ShardStreamEngine (`cfg`,
/// the optional fault injectors attached to its stores) with per-epoch
/// bit-identity verification, and grades every epoch.
inline ScenarioRun replay_and_score(
    const delayspace::DelayMatrix& base, const scenario::DelayTrace& trace,
    const stream::ShardStreamConfig& cfg,
    const scenario::ScorerParams& scorer_params,
    shard::FaultInjector* input_fault = nullptr,
    shard::FaultInjector* sink_fault = nullptr) {
  ScenarioRun run{scenario::QualityScorer(base.size(), scorer_params), {}, {}};
  stream::ShardStreamEngine engine(base, cfg);
  engine.set_input_fault_injector(input_fault);
  engine.set_sink_fault_injector(sink_fault);
  scenario::ReplayDriver driver(base, trace);
  run.result =
      driver.run(engine, [&](const scenario::ReplayDriver::EpochView& view) {
        run.scorer.observe_epoch(view.truth, view.truth_severities,
                                 view.monitor, view.monitor_severities);
      });
  run.recovery = engine.recovery_stats();
  return run;
}

}  // namespace tiv::bench
