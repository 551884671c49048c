// Batched graph-engine benchmark: the seed's one-allocating-Dijkstra-per-
// source routing vs. the CSR batched engine, swept over topology size,
// batch size, and thread count, with an exact parity cross-check against
// the scalar reference on every size.
//
// Emits a JSON array so future PRs can track the trajectory:
//   [{"section":"policy","n":512,"threads":1,"scalar_ms":...,
//     "batch_ms":..., "speedup":..., "warm_scratch_allocs":0},
//    {"section":"parity","n":512,"parity_mismatches":0}, ...]
//
// Exits nonzero when any batched row differs from the scalar reference
// (operator== on every Route/PathInfo field) or when a measured batch
// performs a scratch allocation after warmup — CI runs `--quick` and
// asserts both stay zero.
//
// Flags:
//   --quick        small topologies, 1 repetition (CI smoke run)
//   --threads=T    benchmark only thread count T (default: 1, 2, 4, hw)
//   --seed=S       xor-ed into the topology generator seed
//   --json         accepted for uniformity; output is always JSON
//   --profile-out=PATH  run the sampling profiler (src/obs/prof.hpp) for
//                       the whole bench and write its JSON profile to PATH
//   --profile-hz=HZ     sampling rate when profiling (default 97)
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "reference/oracles.hpp"
#include "routing/graph_engine.hpp"
#include "routing/policy_routing.hpp"
#include "routing/shortest_path.hpp"
#include "topology/generator.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"

namespace {

using tiv::bench::best_ms;
using tiv::routing::PathInfo;
using tiv::routing::Route;
using tiv::topology::AsGraph;
using tiv::topology::AsId;

bool same_route(const Route& a, const Route& b) {
  return a.cls == b.cls && a.hops == b.hops && a.delay_ms == b.delay_ms &&
         a.data_delay_ms == b.data_delay_ms;
}

bool same_path(const PathInfo& a, const PathInfo& b) {
  return a.delay_ms == b.delay_ms && a.hops == b.hops;
}

std::uint64_t scratch_allocs_now() {
  return tiv::obs::MetricsRegistry::instance()
      .counter("routing.scratch_allocs")
      .value();
}

}  // namespace

int main(int argc, char** argv) {
  const tiv::Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const auto only_threads = flags.get_int("threads", 0);
  (void)flags.get_bool("json", true);  // always JSON, flag kept for symmetry
  const std::string profile_out = flags.get_string("profile-out", "");
  const double profile_hz = flags.get_double("profile-hz", 97.0);
  tiv::reject_unknown_flags(flags);

  const std::vector<std::uint32_t> sizes =
      quick ? std::vector<std::uint32_t>{96, 160}
            : std::vector<std::uint32_t>{256, 512, 1024};
  std::vector<std::size_t> thread_counts;
  if (only_threads > 0) {
    thread_counts.push_back(static_cast<std::size_t>(only_threads));
  } else {
    thread_counts = {1, 2, 4};
    const std::size_t hw = std::thread::hardware_concurrency();
    if (hw > 4) thread_counts.push_back(hw);
  }
  const int reps = quick ? 1 : 2;

  tiv::obs::SpanProfiler profiler({profile_hz});
  if (!profile_out.empty()) profiler.start();

  std::uint64_t parity_mismatches = 0;
  std::uint64_t warm_scratch_allocs = 0;
  {
    tiv::bench::BenchConfig cfg;
    cfg.seed = seed;
    tiv::bench::BenchReport json(std::cout, "bench_graph_engine");
    json.meta(cfg)
        .field("reps", reps)
        .field_bool("quick", quick)
        .field("max_n", sizes.back());
    for (const std::uint32_t n : sizes) {
      tiv::topology::TopologyParams params;
      params.num_ases = n;
      params.seed = seed ^ n;
      const AsGraph graph = tiv::topology::generate_topology(params);
      const std::vector<AsId> all = tiv::routing::all_nodes(graph);

      // Scalar reference: the seed's per-source loop, single-threaded —
      // the denominator of every speedup below, and the parity oracle.
      tiv::set_parallel_thread_count(1);
      std::vector<Route> ref_policy(static_cast<std::size_t>(n) * n);
      std::vector<PathInfo> ref_sssp(static_cast<std::size_t>(n) * n);
      for (AsId v = 0; v < n; ++v) {
        const auto routes = tiv::reference::policy_routes_to(graph, v);
        std::copy(routes.begin(), routes.end(),
                  ref_policy.begin() + static_cast<std::size_t>(v) * n);
        const auto paths = tiv::reference::shortest_paths_from(graph, v);
        std::copy(paths.begin(), paths.end(),
                  ref_sssp.begin() + static_cast<std::size_t>(v) * n);
      }
      // Timed the way the seed built its matrices: one allocating
      // single-source call per row, every row kept.
      std::vector<std::vector<Route>> policy_rows(n);
      std::vector<std::vector<PathInfo>> sssp_rows(n);
      const double scalar_policy_ms = best_ms(reps, [&] {
        for (AsId v = 0; v < n; ++v) {
          policy_rows[v] = tiv::reference::policy_routes_to(graph, v);
        }
      });
      const double scalar_sssp_ms = best_ms(reps, [&] {
        for (AsId v = 0; v < n; ++v) {
          sssp_rows[v] = tiv::reference::shortest_paths_from(graph, v);
        }
      });
      const double checksum =
          policy_rows[0].back().hops + sssp_rows[0].back().hops;

      // Exact parity: every batched cell must equal the scalar cell.
      const auto batched_policy = tiv::routing::policy_routes_batch(graph, all);
      const auto batched_sssp = tiv::routing::shortest_paths_batch(graph, all);
      std::uint64_t policy_bad = 0;
      std::uint64_t sssp_bad = 0;
      for (std::size_t i = 0; i < batched_policy.size(); ++i) {
        policy_bad += !same_route(batched_policy[i], ref_policy[i]);
        sssp_bad += !same_path(batched_sssp[i], ref_sssp[i]);
      }
      parity_mismatches += policy_bad + sssp_bad;
      json.object()
          .field("section", std::string("parity"))
          .field("n", n)
          .field("policy_mismatches", policy_bad)
          .field("sssp_mismatches", sssp_bad)
          .field("checksum", checksum, 0);

      // Thread sweep over all-pairs batches. One warmup batch sizes every
      // per-thread workspace at this n and thread count; the measured runs
      // must then perform zero scratch allocations.
      std::vector<Route> policy_out(batched_policy.size());
      std::vector<PathInfo> sssp_out(batched_sssp.size());
      double policy_ms_1t = 0.0;
      double sssp_ms_1t = 0.0;
      for (const std::size_t threads : thread_counts) {
        tiv::set_parallel_thread_count(threads);
        // Warm up until a full batch runs allocation-free: a pool worker
        // that sat out an earlier batch pays its one-time workspace build
        // when it first claims a chunk, so one pass is not always enough
        // under dynamic scheduling.
        for (int w = 0; w < 5; ++w) {
          const std::uint64_t before = scratch_allocs_now();
          tiv::routing::policy_routes_batch(graph, all, policy_out.data());
          tiv::routing::shortest_paths_batch(graph, all, sssp_out.data());
          if (scratch_allocs_now() == before) break;
        }
        const std::uint64_t allocs_before = scratch_allocs_now();
        const double policy_ms = best_ms(reps, [&] {
          tiv::routing::policy_routes_batch(graph, all, policy_out.data());
        });
        const double sssp_ms = best_ms(reps, [&] {
          tiv::routing::shortest_paths_batch(graph, all, sssp_out.data());
        });
        const std::uint64_t warm_allocs = scratch_allocs_now() - allocs_before;
        // Gate on the single-thread runs only: there the set of
        // participating threads is fixed, so any measured allocation is a
        // genuine engine regression. At higher counts a worker can still
        // join late on a loaded machine; reported, not gated.
        if (threads == 1) {
          warm_scratch_allocs += warm_allocs;
          policy_ms_1t = policy_ms;
          sssp_ms_1t = sssp_ms;
        }
        json.object()
            .field("section", std::string("policy"))
            .field("n", n)
            .field("threads", threads)
            .field("scalar_ms", scalar_policy_ms, 3)
            .field("batch_ms", policy_ms, 3)
            .field("speedup", scalar_policy_ms / policy_ms, 3)
            .field("speedup_vs_1t",
                   policy_ms_1t > 0.0 ? policy_ms_1t / policy_ms : 0.0, 3)
            .field("us_per_source", policy_ms * 1000.0 / n, 3)
            .field("warm_scratch_allocs", warm_allocs);
        json.object()
            .field("section", std::string("sssp"))
            .field("n", n)
            .field("threads", threads)
            .field("scalar_ms", scalar_sssp_ms, 3)
            .field("batch_ms", sssp_ms, 3)
            .field("speedup", scalar_sssp_ms / sssp_ms, 3)
            .field("speedup_vs_1t",
                   sssp_ms_1t > 0.0 ? sssp_ms_1t / sssp_ms : 0.0, 3)
            .field("us_per_source", sssp_ms * 1000.0 / n, 3);
      }

      // Batch-size sweep at one thread: dispatch overhead and workspace
      // reuse across sub-batches (e.g. incremental recomputation after a
      // topology change routes only the dirty destinations).
      tiv::set_parallel_thread_count(1);
      for (const std::size_t batch :
           std::vector<std::size_t>{1, 8, 64, all.size()}) {
        if (batch > all.size()) continue;
        const std::vector<AsId> subset(all.begin(),
                                       all.begin() + static_cast<long>(batch));
        const double batch_ms = best_ms(reps, [&] {
          tiv::routing::policy_routes_batch(graph, subset, policy_out.data());
        });
        json.object()
            .field("section", std::string("batch_sweep"))
            .field("n", n)
            .field("batch", batch)
            .field("batch_ms", batch_ms, 3)
            .field("us_per_source", batch_ms * 1000.0 / batch, 3);
      }
    }

    json.object()
        .field("section", std::string("summary"))
        .field("parity_mismatches", parity_mismatches)
        .field("warm_scratch_allocs", warm_scratch_allocs);
  }
  tiv::set_parallel_thread_count(0);
  if (!profile_out.empty()) {
    profiler.stop();
    std::ofstream pf(profile_out);
    profiler.profile().write_json(pf);
  }
  if (parity_mismatches != 0 || warm_scratch_allocs != 0) {
    std::cerr << "bench_graph_engine: FAILED (" << parity_mismatches
              << " parity mismatches, " << warm_scratch_allocs
              << " warm scratch allocs)\n";
    return 1;
  }
  return 0;
}
