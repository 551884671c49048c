// Scenario observatory (src/scenario/): generator determinism (same seed
// => byte-identical trace file), trace-format roundtrip and torn-trailer
// rejection, scorer math on hand-built ground truth, replay bit-identity
// vs direct ingestion across densities and n < 8 on both stores of the
// live engine, a FaultInjector-under-replay soak asserting post-recovery
// bit-identity, and the metric catalogue (docs/OBSERVABILITY.md) held to
// the names the code registers.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/alert.hpp"
#include "core/severity.hpp"
#include "matrix_test_utils.hpp"
#include "obs/metrics.hpp"
#include "routing/graph_engine.hpp"
#include "scenario/generators.hpp"
#include "scenario/replay.hpp"
#include "scenario/score.hpp"
#include "shard/checksum.hpp"
#include "shard/fault_injector.hpp"
#include "stream/incremental_severity.hpp"
#include "stream/shard_stream.hpp"
#include "topology/generator.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tiv::scenario {
namespace {

using core::SeverityMatrix;
using delayspace::DelayMatrix;
using test::random_matrix;

std::string scratch_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("tiv_test_scenario_" + tag + "_" +
           std::to_string(
               ::testing::UnitTest::GetInstance()->random_seed()) +
           ".tivtrace"))
      .string();
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

ScenarioParams small_params(std::uint32_t epochs = 6, std::uint64_t seed = 5) {
  ScenarioParams p;
  p.epochs = epochs;
  p.seed = seed;
  return p;
}

TEST(TraceGenerators, SameSeedYieldsByteIdenticalFile) {
  const DelayMatrix base = random_matrix(24, 0.1, 11);
  for (const auto& family : scenario_families()) {
    const DelayTrace a = generate_scenario(family, base, small_params());
    const DelayTrace b = generate_scenario(family, base, small_params());
    const std::string pa = scratch_path(family + "_a");
    const std::string pb = scratch_path(family + "_b");
    a.save(pa);
    b.save(pb);
    EXPECT_EQ(read_bytes(pa), read_bytes(pb)) << family;

    const DelayTrace c =
        generate_scenario(family, base, small_params(6, /*seed=*/99));
    const std::string pc = scratch_path(family + "_c");
    c.save(pc);
    EXPECT_NE(read_bytes(pa), read_bytes(pc))
        << family << ": different seed must change the trace";
    std::filesystem::remove(pa);
    std::filesystem::remove(pb);
    std::filesystem::remove(pc);
  }
}

TEST(TraceGenerators, AllFamiliesEmitValidBoundedEvents) {
  const DelayMatrix base = random_matrix(20, 0.2, 7);
  const auto params = small_params(8);
  for (const auto& family : scenario_families()) {
    const DelayTrace trace = generate_scenario(family, base, params);
    EXPECT_EQ(trace.hosts, base.size()) << family;
    EXPECT_EQ(trace.family, family);
    EXPECT_EQ(trace.seed, params.seed);
    ASSERT_EQ(trace.epochs.size(), params.epochs) << family;
    EXPECT_GT(trace.total_truth_events(), 0u) << family;
    EXPECT_GT(trace.total_samples(), 0u) << family;
    for (const auto& epoch : trace.epochs) {
      for (const auto& streams :
           {&epoch.truth, &epoch.samples}) {
        for (const auto& e : *streams) {
          EXPECT_LT(e.a, base.size()) << family;
          EXPECT_LT(e.b, base.size()) << family;
          EXPECT_NE(e.a, e.b) << family;
          EXPECT_FALSE(std::isnan(e.delay_ms)) << family;
        }
      }
    }
  }
}

TEST(TraceGenerators, UnknownFamilyAndBadParamsThrow) {
  const DelayMatrix base = random_matrix(8, 0.0, 3);
  EXPECT_THROW(generate_scenario("no_such_family", base, small_params()),
               std::invalid_argument);
  ScenarioParams zero_epochs = small_params(6);
  zero_epochs.epochs = 0;
  EXPECT_THROW(generate_scenario("oscillation", base, zero_epochs),
               std::invalid_argument);
  ScenarioParams flat = small_params();
  flat.inflation = 1.0;
  EXPECT_THROW(generate_scenario("oscillation", base, flat),
               std::invalid_argument);
}

TEST(TraceFormat, RoundtripPreservesEveryEvent) {
  const DelayMatrix base = random_matrix(16, 0.15, 21);
  const DelayTrace trace =
      generate_scenario("partition_heal", base, small_params(5, 13));
  const std::string path = scratch_path("roundtrip");
  trace.save(path);
  const DelayTrace loaded = DelayTrace::load(path);
  std::filesystem::remove(path);

  EXPECT_EQ(loaded.hosts, trace.hosts);
  EXPECT_EQ(loaded.seed, trace.seed);
  EXPECT_EQ(loaded.family, trace.family);
  ASSERT_EQ(loaded.epochs.size(), trace.epochs.size());
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    const auto& want = trace.epochs[e];
    const auto& got = loaded.epochs[e];
    ASSERT_EQ(got.truth.size(), want.truth.size());
    ASSERT_EQ(got.samples.size(), want.samples.size());
    for (std::size_t i = 0; i < want.truth.size(); ++i) {
      EXPECT_EQ(got.truth[i].a, want.truth[i].a);
      EXPECT_EQ(got.truth[i].b, want.truth[i].b);
      EXPECT_EQ(got.truth[i].delay_ms, want.truth[i].delay_ms);
      EXPECT_EQ(got.truth[i].timestamp, want.truth[i].timestamp);
    }
    for (std::size_t i = 0; i < want.samples.size(); ++i) {
      EXPECT_EQ(got.samples[i].delay_ms, want.samples[i].delay_ms);
      EXPECT_EQ(got.samples[i].timestamp, want.samples[i].timestamp);
    }
  }
}

TEST(TraceFormat, RejectsTornAndCorruptFiles) {
  const DelayMatrix base = random_matrix(10, 0.0, 9);
  const DelayTrace trace =
      generate_scenario("oscillation", base, small_params(4));
  const std::string path = scratch_path("torn");
  trace.save(path);
  const std::string good = read_bytes(path);

  // Flipped payload byte: checksum must catch it.
  std::string bad = good;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x40);
  { std::ofstream(path, std::ios::binary) << bad; }
  EXPECT_THROW(DelayTrace::load(path), TraceFormatError);

  // Torn trailer: a write that died mid-file.
  { std::ofstream(path, std::ios::binary) << good.substr(0, good.size() - 5); }
  EXPECT_THROW(DelayTrace::load(path), TraceFormatError);

  // Wrong magic.
  bad = good;
  bad[0] = 'X';
  { std::ofstream(path, std::ios::binary) << bad; }
  EXPECT_THROW(DelayTrace::load(path), TraceFormatError);

  // Too short to even hold magic + trailer.
  { std::ofstream(path, std::ios::binary) << "TIV"; }
  EXPECT_THROW(DelayTrace::load(path), TraceFormatError);

  // Hostile header with a valid trailer: an epoch count of 2^32 - 1, far
  // more than the bytes left can hold, must fail before it sizes anything.
  bad = good;
  const std::size_t count_at = 8 + 4 + 8 + 4 + trace.family.size();
  const std::uint32_t hostile = 0xffffffffu;
  std::memcpy(bad.data() + count_at, &hostile, sizeof(hostile));
  const std::size_t body = bad.size() - sizeof(std::uint64_t);
  const std::uint64_t sum = shard::checksum64(bad.data(), body);
  std::memcpy(bad.data() + body, &sum, sizeof(sum));
  { std::ofstream(path, std::ios::binary) << bad; }
  EXPECT_THROW(DelayTrace::load(path), TraceFormatError);

  std::filesystem::remove(path);
  EXPECT_THROW(DelayTrace::load(path), std::runtime_error);
}

TEST(Score, ClassificationCountsMath) {
  ClassificationCounts c;
  // 3 TP, 1 FP, 2 FN, 4 TN.
  for (int i = 0; i < 3; ++i) c.add(true, true);
  c.add(true, false);
  for (int i = 0; i < 2; ++i) c.add(false, true);
  for (int i = 0; i < 4; ++i) c.add(false, false);
  EXPECT_EQ(c.tp, 3u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.fn, 2u);
  EXPECT_EQ(c.tn, 4u);
  EXPECT_EQ(c.total(), 10u);
  EXPECT_DOUBLE_EQ(c.precision(), 0.75);
  EXPECT_DOUBLE_EQ(c.recall(), 0.6);
  EXPECT_DOUBLE_EQ(c.f1(), 2.0 * 0.75 * 0.6 / (0.75 + 0.6));

  const ClassificationCounts empty;
  EXPECT_DOUBLE_EQ(empty.precision(), 0.0);
  EXPECT_DOUBLE_EQ(empty.recall(), 0.0);
  EXPECT_DOUBLE_EQ(empty.f1(), 0.0);
}

TEST(Score, RatioAlertMatchesHandComputedSets) {
  // 10 samples; worst 20% = 2 highest severities (0.9, 0.8). Alerts at
  // ratio < 0.5: indices 0, 1, 2. Index 0 (sev 0.9) and 1 (sev 0.8) are
  // worst; index 2 is a false alert. NaN ratio never alerts.
  const std::vector<double> ratios{0.1, 0.2, 0.3, 0.7, 0.9,
                                   std::numeric_limits<double>::quiet_NaN(),
                                   0.8, 0.95, 0.6, 0.55};
  const std::vector<double> severities{0.9, 0.8, 0.1, 0.05, 0.02,
                                       0.7,  0.01, 0.03, 0.04, 0.06};
  const RatioAlertScore s = score_ratio_alert(ratios, severities, 0.2, 0.5);
  EXPECT_EQ(s.counts.tp, 2u);
  EXPECT_EQ(s.counts.fp, 1u);
  EXPECT_EQ(s.counts.fn, 0u);
  EXPECT_EQ(s.counts.tn, 7u);
  EXPECT_DOUBLE_EQ(s.severity_cutoff, 0.8);
  EXPECT_DOUBLE_EQ(s.alert_fraction, 0.3);
  EXPECT_DOUBLE_EQ(s.counts.precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.counts.recall(), 1.0);

  EXPECT_EQ(score_ratio_alert({}, {}, 0.2, 0.5).counts.total(), 0u);
  EXPECT_THROW(score_ratio_alert(ratios, std::vector<double>{1.0}, 0.2, 0.5),
               std::invalid_argument);
}

TEST(Score, EvaluateAlertDelegatesToSharedScorer) {
  // evaluate_alert must agree with score_ratio_alert called directly —
  // the satellite contract that figs 20/21 and the observatory share one
  // classification implementation.
  std::vector<core::EdgeRatioSample> samples;
  std::vector<double> ratios;
  std::vector<double> severities;
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    core::EdgeRatioSample s;
    s.ratio = rng.bernoulli(0.1) ? std::numeric_limits<double>::quiet_NaN()
                                 : rng.uniform(0.0, 1.5);
    s.severity = rng.uniform(0.0, 1.0);
    samples.push_back(s);
    ratios.push_back(s.ratio);
    severities.push_back(s.severity);
  }
  for (const double w : {0.01, 0.1, 0.5}) {
    for (const double t : {0.2, 0.6, 1.0}) {
      const auto m = core::evaluate_alert(samples, w, t);
      const auto s = score_ratio_alert(ratios, severities, w, t);
      EXPECT_EQ(m.alerts, s.counts.predicted_positive());
      EXPECT_DOUBLE_EQ(m.accuracy, s.counts.precision());
      EXPECT_DOUBLE_EQ(m.recall, s.counts.recall());
      EXPECT_DOUBLE_EQ(m.f1, s.counts.f1());
      EXPECT_DOUBLE_EQ(m.alert_fraction, s.alert_fraction);
    }
  }
}

/// Hand-driven scorer: 4 hosts, one watched edge (0,1). Truth severity
/// crosses the 0.5 gate at epoch 1, the monitor follows at epoch 3
/// (detect lag 2); truth clears at epoch 5, the monitor at epoch 6
/// (clear lag 1).
TEST(Score, TimeToDetectAndClearOnHandBuiltTimeline) {
  const delayspace::HostId n = 4;
  DelayMatrix truth(n);
  DelayMatrix monitor(n);
  for (delayspace::HostId a = 0; a < n; ++a) {
    for (delayspace::HostId b = a + 1; b < n; ++b) {
      truth.set(a, b, 50.0f);
      monitor.set(a, b, 50.0f);
    }
  }
  ScorerParams params;
  params.severity_threshold = 0.5;
  params.score_detour = false;
  QualityScorer scorer(n, params);

  auto observe = [&](float truth_sev01, float monitor_sev01) {
    SeverityMatrix ts(n);
    SeverityMatrix ms(n);
    ts.set(0, 1, truth_sev01);
    ms.set(0, 1, monitor_sev01);
    scorer.observe_epoch(truth, ts, monitor, ms);
  };
  observe(0.0f, 0.0f);  // epoch 0: quiet
  observe(0.9f, 0.0f);  // epoch 1: truth onset, not yet detected
  observe(0.9f, 0.0f);  // epoch 2
  observe(0.9f, 0.8f);  // epoch 3: detected (lag 2)
  observe(0.9f, 0.8f);  // epoch 4
  observe(0.0f, 0.8f);  // epoch 5: truth clear, alert still up
  observe(0.0f, 0.0f);  // epoch 6: alert drops (lag 1)

  const ThresholdQuality& q = scorer.headline();
  EXPECT_EQ(q.onsets, 1u);
  EXPECT_EQ(q.onsets_detected, 1u);
  EXPECT_EQ(q.onsets_missed, 0u);
  EXPECT_DOUBLE_EQ(q.mean_time_to_detect(), 2.0);
  EXPECT_EQ(q.clears, 1u);
  EXPECT_EQ(q.clears_confirmed, 1u);
  EXPECT_DOUBLE_EQ(q.mean_time_to_clear(), 1.0);
  // Classification totals over 7 epochs * 6 edges: the watched edge is a
  // TP in epochs 3-4, FN in 1-2, FP in 5; everything else is TN.
  EXPECT_EQ(q.counts.tp, 2u);
  EXPECT_EQ(q.counts.fn, 2u);
  EXPECT_EQ(q.counts.fp, 1u);
  EXPECT_EQ(q.counts.tn, 7u * 6u - 5u);
  EXPECT_EQ(scorer.epochs_scored(), 7u);
}

/// Calls fn(engine, label) with a fresh engine of each store over `base`.
template <typename Fn>
void for_each_store(const DelayMatrix& base, Fn&& fn) {
  {
    stream::IncrementalSeverity memory(base);
    fn(memory, "memory");
  }
  stream::ShardStreamConfig cfg;
  cfg.tile_dim = 16;
  stream::ShardStreamEngine tiles(base, cfg);
  fn(tiles, "tiles");
}

void expect_replay_bit_identical(const DelayMatrix& base,
                                 const std::string& family) {
  const DelayTrace trace = generate_scenario(family, base, small_params(5));
  for_each_store(base, [&](stream::SeverityEngine& engine, const char* store) {
    const ReplayDriver::Result result = ReplayDriver(base, trace).run(engine);
    EXPECT_EQ(result.bit_mismatches, 0u)
        << family << " n=" << base.size() << " (" << store << ")";
    EXPECT_EQ(result.epochs, trace.epochs.size());
    EXPECT_EQ(result.samples, trace.total_samples());
  });
}

TEST(Replay, BitIdenticalToDirectIngestionAcrossDensities) {
  for (const double missing : {0.0, 0.3, 0.9}) {
    const DelayMatrix base = random_matrix(24, missing, 41);
    expect_replay_bit_identical(base, "oscillation");
    expect_replay_bit_identical(base, "partition_heal");
  }
}

TEST(Replay, BitIdenticalOnTinyMatrices) {
  for (const delayspace::HostId n : {3, 5, 7}) {
    expect_replay_bit_identical(random_matrix(n, 0.1, 50 + n), "flash_crowd");
  }
}

TEST(Replay, ShardAndInMemoryAgreeOnQuality) {
  const DelayMatrix base = random_matrix(20, 0.1, 61);
  const DelayTrace trace =
      generate_scenario("correlated_links", base, small_params(6));
  ScorerParams sp;
  sp.severity_threshold = 0.1;

  std::vector<QualityScorer> scored;
  for_each_store(base, [&](stream::SeverityEngine& engine, const char*) {
    QualityScorer scorer(base.size(), sp);
    ReplayDriver(base, trace).run(engine,
                                  [&](const ReplayDriver::EpochView& v) {
      scorer.observe_epoch(v.truth, v.truth_severities, v.monitor,
                           v.monitor_severities);
    });
    scored.push_back(scorer);
  });
  const QualityScorer& mem = scored[0];
  const QualityScorer& shard = scored[1];
  EXPECT_EQ(mem.headline().counts.tp, shard.headline().counts.tp);
  EXPECT_EQ(mem.headline().counts.fp, shard.headline().counts.fp);
  EXPECT_EQ(mem.headline().counts.fn, shard.headline().counts.fn);
  EXPECT_EQ(mem.headline().onsets, shard.headline().onsets);
  EXPECT_EQ(mem.detour().wins, shard.detour().wins);
}

TEST(Replay, MismatchedHostCountThrows) {
  const DelayMatrix base = random_matrix(8, 0.0, 3);
  DelayTrace trace = generate_scenario("oscillation", base, small_params(3));
  trace.hosts = 9;
  EXPECT_THROW(ReplayDriver(base, trace, {}), std::invalid_argument);
  // An engine over another host count is rejected by run().
  trace.hosts = 8;
  stream::IncrementalSeverity wrong(random_matrix(9, 0.0, 3));
  EXPECT_THROW(ReplayDriver(base, trace).run(wrong), std::invalid_argument);
}

TEST(Replay, FaultSoakRecoversToBitIdentity) {
  const DelayMatrix base = random_matrix(24, 0.1, 71);
  const DelayTrace trace =
      generate_scenario("oscillation", base, small_params(6));

  shard::FaultInjector::Config fc;
  fc.seed = 99;
  fc.bitflip_every_kth_read = 7;  // aggressive rot on every 7th tile read
  shard::FaultInjector input_fault(fc);
  fc.seed = 100;
  shard::FaultInjector sink_fault(fc);

  stream::ShardStreamConfig cfg;
  cfg.tile_dim = 16;
  stream::ShardStreamEngine engine(base, cfg);
  engine.set_input_fault_injector(&input_fault);
  engine.set_sink_fault_injector(&sink_fault);
  const ReplayDriver::Result result = ReplayDriver(base, trace).run(engine);

  // The soak proves nothing unless rot actually landed...
  EXPECT_GT(input_fault.stats().bitflips + sink_fault.stats().bitflips, 0u);
  // ...and the contract is that recovery absorbed every flip: the replay
  // stayed bit-identical to direct ingestion at every epoch.
  EXPECT_EQ(result.bit_mismatches, 0u);
  const auto r = engine.recovery_stats();
  EXPECT_GT(r.input_tiles_recovered + r.sink_tiles_recovered + r.io_retries +
                r.input_read_retries + r.sink_read_retries,
            0u);
}

// --- Metric catalogue ----------------------------------------------------------

/// Every metric name docs/OBSERVABILITY.md's catalogue table documents: each
/// row's prefixes (first column, `layer.*`) joined with its metrics (the
/// backticked names of the third column).
std::set<std::string> catalogued_names(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::set<std::string> names;
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) in_section = line == "## Metric catalogue";
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    std::vector<std::string> cells;
    std::stringstream row(line);
    for (std::string cell; std::getline(row, cell, '|');) cells.push_back(cell);
    if (cells.size() < 4) continue;  // "", prefix, source, metrics, ...
    // The backticked names of a cell.
    const auto tokens = [](const std::string& cell) {
      std::vector<std::string> out;
      for (std::size_t open = cell.find('`'); open != std::string::npos;) {
        const std::size_t close = cell.find('`', open + 1);
        if (close == std::string::npos) break;
        out.push_back(cell.substr(open + 1, close - open - 1));
        open = cell.find('`', close + 1);
      }
      return out;
    };
    for (std::string prefix : tokens(cells[1])) {
      if (prefix.size() < 2 || prefix.substr(prefix.size() - 2) != ".*") {
        ADD_FAILURE() << "catalogue prefix without .*: " << prefix;
        continue;
      }
      prefix.pop_back();
      for (const std::string& metric : tokens(cells[3])) {
        names.insert(prefix + metric);
      }
    }
  }
  return names;
}

TEST(MetricCatalogue, MatchesTheRegistry) {
  // Every instrumented layer runs while its objects are alive: DelayStream
  // (inside the replays), both stores of the live engine, a replay plus a
  // scorer, a FaultInjector on the tile store, a routing batch, and the
  // pool at two threads, so it spawns a worker.
  set_parallel_thread_count(2);
  const DelayMatrix base = random_matrix(24, 0.1, 81);
  const DelayTrace trace =
      generate_scenario("flash_crowd", base, small_params(4));
  shard::FaultInjector::Config fc;
  fc.bitflip_every_kth_read = 5;
  shard::FaultInjector rot(fc);
  stream::IncrementalSeverity memory(base);
  stream::ShardStreamConfig cfg;
  cfg.tile_dim = 16;
  stream::ShardStreamEngine tiles(base, cfg);
  tiles.set_sink_fault_injector(&rot);
  QualityScorer scorer(base.size(), ScorerParams{});
  ReplayDriver(base, trace).run(memory, [&](const ReplayDriver::EpochView& v) {
    scorer.observe_epoch(v.truth, v.truth_severities, v.monitor,
                         v.monitor_severities);
  });
  EXPECT_EQ(ReplayDriver(base, trace).run(tiles).bit_mismatches, 0u);
  const topology::AsGraph graph = topology::generate_topology([] {
    topology::TopologyParams p;
    p.num_ases = 60;
    p.seed = 4;
    return p;
  }());
  routing::shortest_paths_batch(graph, routing::all_nodes(graph));
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  set_parallel_thread_count(0);

  std::set<std::string> registered;
  for (const auto& [name, value] : snap.counters) registered.insert(name);
  for (const auto& [name, value] : snap.gauges) registered.insert(name);
  for (const auto& [name, value] : snap.histograms) registered.insert(name);
  const std::set<std::string> catalogued =
      catalogued_names(TIV_OBSERVABILITY_MD);
  ASSERT_FALSE(catalogued.empty());
  for (const std::string& name : registered) {
    EXPECT_TRUE(catalogued.count(name))
        << name << " is registered but missing from the catalogue";
  }
  for (const std::string& name : catalogued) {
    EXPECT_TRUE(registered.count(name))
        << name << " is catalogued but was not registered";
  }
}

}  // namespace
}  // namespace tiv::scenario
