// Streaming TIV engine benchmark: trace replay through DelayStream +
// IncrementalSeverity, incremental epoch repair vs from-scratch rebuild.
//
// Two replayed workloads:
//   - "churn" sweep: per epoch, a controlled fraction of hosts receives
//     fresh measurements (disjoint random pairs), the epoch is committed
//     and repaired incrementally, and the repaired severity matrix is
//     bit-compared against TivAnalyzer::all_severities over the mutated
//     matrix. Reports updates/sec, incremental ms/epoch, full-rebuild ms,
//     and the speedup — the incremental-vs-full crossover is where speedup
//     crosses 1.
//   - "oscillation" trace: a paper-style (Figs. 10-11) square-wave delay
//     oscillation on a fixed edge set, replayed through the EWMA estimator
//     for many epochs, with a final bit-identity check — the long-horizon
//     drift test.
//
// Plus one "ingest" record: DelayStream alone under a probe load
// (windowed-min 8, every measured edge primed, then random 32768-sample
// batches that mostly re-read an edge's floor), timed at 1 thread and at
// the default thread count. The two runs' matrices and per-epoch dirty
// sets are bit-compared.
//
// Output is a JSON record array (machine-checkable; --json is accepted for
// CI-invocation uniformity but this bench never prints tables). Exit
// status is nonzero when any record's bit_mismatches is not 0.
//
// Flags:
//   --quick        n = 96, 2 epochs/point, ingest n = 96 (CI smoke run)
//   --hosts=N      matrix size (default 512)
//   --missing=F    missing-entry fraction (default 0.1)
//   --policy=P     latest | ewma | winmin (default ewma)
//   --epochs=E     epochs per churn point (default 4)
//   --seed=S       RNG seed
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/severity.hpp"
#include "stream/delay_stream.hpp"
#include "stream/incremental_severity.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using tiv::Rng;
using tiv::core::SeverityMatrix;
using tiv::core::TivAnalyzer;
using tiv::delayspace::DelayMatrix;
using tiv::delayspace::HostId;
using tiv::stream::DelaySample;
using tiv::stream::DelayStream;
using tiv::stream::EstimatorParams;
using tiv::stream::IncrementalSeverity;
using tiv::stream::SmoothingPolicy;

using tiv::bench::bit_mismatches;
using tiv::bench::random_matrix;
using tiv::bench::replay_churn_epoch;
using tiv::bench::time_ms;

SmoothingPolicy parse_policy(const std::string& name) {
  if (name == "latest") return SmoothingPolicy::kLatest;
  if (name == "winmin") return SmoothingPolicy::kWindowedMin;
  return SmoothingPolicy::kEwma;
}

/// One timed pass of the ingest section: the stream's final matrix, every
/// epoch's dirty hosts, and the ingest wall time.
struct IngestRun {
  DelayMatrix matrix;
  std::vector<std::vector<HostId>> dirty;
  double ingest_ms = 0.0;
};

IngestRun run_ingest(const DelayMatrix& base,
                     const std::vector<std::vector<DelaySample>>& batches) {
  DelayStream stream(base, {SmoothingPolicy::kWindowedMin, 0.25f, 8});
  std::vector<DelaySample> prime;
  for (HostId a = 0; a < base.size(); ++a) {
    for (HostId b = a + 1; b < base.size(); ++b) {
      if (base.has(a, b)) prime.push_back({a, b, base.at(a, b), -1.0});
    }
  }
  stream.ingest(prime);
  stream.commit_epoch();
  IngestRun run;
  for (const std::vector<DelaySample>& batch : batches) {
    const auto t0 = std::chrono::steady_clock::now();
    stream.ingest(batch);
    run.ingest_ms += std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    run.dirty.push_back(stream.commit_epoch().dirty_hosts);
  }
  run.matrix = stream.matrix();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const tiv::Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  flags.get_bool("json", false);  // accepted for uniformity; always JSON
  const auto n =
      static_cast<HostId>(flags.get_int("hosts", quick ? 96 : 512));
  const double missing = flags.get_double("missing", 0.1);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 17));
  const int epochs = static_cast<int>(flags.get_int("epochs", quick ? 2 : 4));
  const std::string policy_name = flags.get_string("policy", "ewma");
  tiv::reject_unknown_flags(flags);

  EstimatorParams est;
  est.policy = parse_policy(policy_name);

  tiv::bench::BenchConfig bench_cfg;
  bench_cfg.hosts = n;
  bench_cfg.seed = seed;
  bench_cfg.json = true;
  tiv::bench::BenchReport json(std::cout, "bench_stream_engine");
  json.meta(bench_cfg)
      .field("epochs", epochs)
      .field("missing_fraction", missing)
      .field("policy", policy_name)
      .field("quick", quick);

  bool ok = true;  // every record bit-identical to the full rebuild

  // --- Churn sweep -------------------------------------------------------
  const std::vector<double> dirty_fractions{0.004, 0.01, 0.05, 0.2};
  for (const double frac : dirty_fractions) {
    DelayStream stream(random_matrix(n, missing, seed), est);
    Rng rng(seed ^ 0x5eedull);

    std::optional<IncrementalSeverity> inc;
    const double init_ms =
        time_ms([&] { inc.emplace(stream.matrix()); });

    const auto dirty_target = std::max<std::size_t>(
        2, static_cast<std::size_t>(static_cast<double>(n) * frac));
    std::size_t samples_total = 0;
    std::size_t edges_recomputed = 0;
    std::size_t rows_repacked = 0;
    double ingest_ms = 0.0;
    double apply_ms = 0.0;
    for (int e = 0; e < epochs; ++e) {
      ingest_ms += time_ms([&] {
        samples_total +=
            replay_churn_epoch(stream, rng, dirty_target, double(e));
      });
      apply_ms += time_ms([&] {
        const auto stats = inc->apply_epoch(stream);
        edges_recomputed += stats.edges_recomputed;
        rows_repacked += stats.rows_repacked;
      });
    }

    // Full rebuild over the final mutated matrix: packed view build plus
    // the O(n^3) kernel — what every epoch would cost without the engine.
    SeverityMatrix full;
    const TivAnalyzer analyzer(stream.matrix());
    const double full_ms = time_ms([&] { full = analyzer.all_severities(); });
    const std::size_t mismatches = bit_mismatches(*inc, full);
    ok = ok && mismatches == 0;

    const double inc_epoch_ms = apply_ms / epochs;
    json.object()
        .field("section", std::string("churn"))
        .field("n", n)
        .field("policy", policy_name)
        .field("missing_fraction", missing, 3)
        .field("dirty_fraction", frac, 4)
        .field("epochs", epochs)
        .field("samples", samples_total)
        .field("rows_repacked", rows_repacked)
        .field("edges_recomputed", edges_recomputed)
        .field("init_full_ms", init_ms, 3)
        .field("ingest_ms", ingest_ms, 3)
        .field("updates_per_sec",
               ingest_ms > 0.0
                   ? static_cast<double>(samples_total) / (ingest_ms / 1e3)
                   : 0.0,
               0)
        .field("incremental_epoch_ms", inc_epoch_ms, 3)
        .field("full_rebuild_ms", full_ms, 3)
        .field("speedup_vs_full",
               inc_epoch_ms > 0.0 ? full_ms / inc_epoch_ms : 0.0, 2)
        .field("bit_mismatches", mismatches);
  }

  // --- Paper-style oscillation trace ------------------------------------
  // A fixed set of n/100 disjoint edges (so ~2% of hosts dirty per epoch)
  // flips between its base delay and a 4x-inflated delay every epoch (the
  // Fig. 10/11 non-equilibrium shape), smoothed through the configured
  // estimator. Long horizon: 8x the churn epochs, bit-identity checked
  // once at the end.
  {
    EstimatorParams osc_est = est;
    DelayStream stream(random_matrix(n, missing, seed), osc_est);
    Rng rng(seed ^ 0x05c1ull);
    const auto edge_target = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(n) / 100.0));
    const auto picks = rng.sample_without_replacement(
        n, static_cast<std::uint32_t>(
               std::min<std::size_t>(2 * edge_target, n & ~std::size_t{1})));
    struct OscEdge {
      HostId a, b;
      float base;
    };
    std::vector<OscEdge> osc;
    for (std::size_t e = 0; e + 1 < picks.size(); e += 2) {
      const float base = static_cast<float>(rng.uniform(5.0, 200.0));
      osc.push_back({picks[e], picks[e + 1], base});
    }

    IncrementalSeverity inc(stream.matrix());
    const int osc_epochs = 8 * epochs;
    std::size_t samples_total = 0;
    double apply_ms = 0.0;
    for (int e = 0; e < osc_epochs; ++e) {
      const bool high = (e % 2) != 0;
      std::vector<DelaySample> batch;
      batch.reserve(osc.size());
      for (const OscEdge& oe : osc) {
        batch.push_back(
            {oe.a, oe.b, high ? oe.base * 4.0f : oe.base, double(e)});
      }
      stream.ingest(batch);
      samples_total += batch.size();
      apply_ms += time_ms([&] { inc.apply_epoch(stream); });
    }

    SeverityMatrix full;
    const TivAnalyzer analyzer(stream.matrix());
    const double full_ms = time_ms([&] { full = analyzer.all_severities(); });
    const std::size_t mismatches = bit_mismatches(inc, full);
    ok = ok && mismatches == 0;
    json.object()
        .field("section", std::string("oscillation"))
        .field("n", n)
        .field("policy", policy_name)
        .field("oscillating_edges", osc.size())
        .field("epochs", osc_epochs)
        .field("samples", samples_total)
        .field("incremental_epoch_ms", apply_ms / osc_epochs, 3)
        .field("full_rebuild_ms", full_ms, 3)
        .field("speedup_vs_full",
               apply_ms > 0.0
                   ? full_ms / (apply_ms / osc_epochs)
                   : 0.0,
               2)
        .field("bit_mismatches", mismatches);
  }
  // --- Probe-load ingest ----------------------------------------------
  {
    const HostId ingest_n = quick ? 96 : 1024;
    const DelayMatrix base = random_matrix(ingest_n, missing, seed);
    std::vector<std::pair<HostId, HostId>> edges;
    std::vector<float> floors;
    for (HostId a = 0; a < ingest_n; ++a) {
      for (HostId b = a + 1; b < ingest_n; ++b) {
        if (!base.has(a, b)) continue;
        edges.emplace_back(a, b);
        floors.push_back(base.at(a, b));
      }
    }
    // Per batch, a few floors drop (those edges change); every other
    // sample reads its edge's floor or a queueing-inflated value.
    constexpr std::size_t kBatchSamples = 32768;
    const int ingest_batches = quick ? 8 : 64;
    Rng rng(seed ^ 0x1a9e57ull);
    std::vector<std::vector<DelaySample>> batches(ingest_batches);
    for (int e = 0; e < ingest_batches; ++e) {
      std::vector<DelaySample>& batch = batches[e];
      batch.reserve(kBatchSamples);
      while (batch.size() < kBatchSamples) {
        const std::size_t k = rng.uniform_index(edges.size());
        float d = floors[k];
        if (batch.size() < 4) {
          floors[k] *= 0.8f;
          d = floors[k];
        } else if (rng.uniform() >= 0.7) {
          d *= static_cast<float>(rng.uniform(1.01, 1.5));
        }
        batch.push_back({edges[k].first, edges[k].second, d, double(e)});
      }
    }

    tiv::set_parallel_thread_count(1);
    const IngestRun one = run_ingest(base, batches);
    tiv::set_parallel_thread_count(0);
    const IngestRun many = run_ingest(base, batches);
    std::size_t mismatches = one.dirty != many.dirty;
    for (HostId i = 0; i < ingest_n; ++i) {
      mismatches += std::memcmp(one.matrix.row(i).data(),
                                many.matrix.row(i).data(),
                                ingest_n * sizeof(float)) != 0;
    }
    ok = ok && mismatches == 0;
    const double samples = double(ingest_batches) * double(kBatchSamples);
    json.object()
        .field("section", std::string("ingest"))
        .field("n", ingest_n)
        .field("policy", std::string("winmin"))
        .field("window", 8)
        .field("edges", edges.size())
        .field("batches", ingest_batches)
        .field("batch_samples", kBatchSamples)
        .field("threads", tiv::parallel_thread_count())
        .field("ns_per_sample_1t", one.ingest_ms * 1e6 / samples, 1)
        .field("ns_per_sample", many.ingest_ms * 1e6 / samples, 1)
        .field("speedup_vs_1t",
               many.ingest_ms > 0.0 ? one.ingest_ms / many.ingest_ms : 0.0, 2)
        .field("bit_mismatches", mismatches);
  }
  if (!ok) std::cerr << "bench_stream_engine: FAILED (bit mismatches)\n";
  return ok ? 0 : 1;
}
