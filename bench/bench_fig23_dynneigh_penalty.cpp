// Figure 23: neighbor-selection penalty CDF of dynamic-neighbor Vivaldi at
// iterations {0, 1, 2, 5, 10} vs original Vivaldi. Paper shape: penalties
// improve monotonically with iterations; by iteration 10 the curve clearly
// dominates original Vivaldi — unlike every strawman in §4.
// Exit status is nonzero when a plotted series is empty.
#include <iostream>
#include <optional>

#include "bench_common.hpp"
#include "core/dynamic_neighbor.hpp"
#include "neighbor/selection.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 600);
  const auto period =
      static_cast<std::uint32_t>(flags.get_int("period", 100));
  const auto runs = static_cast<std::uint32_t>(flags.get_int("runs", 5));
  reject_unknown_flags(flags);

  std::optional<BenchReport> json;
  if (cfg.json) {
    json.emplace(std::cout, "bench_fig23_dynneigh_penalty");
    json->meta(cfg);
  }

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  const auto n = space.measured.size();

  neighbor::SelectionParams sp;
  sp.num_candidates = std::max<std::uint32_t>(20, n / 20);
  sp.runs = runs;
  sp.seed = 77 ^ cfg.seed;
  const neighbor::SelectionExperiment exp(space.measured, sp);
  (cfg.json ? std::cerr : std::cout)
      << "hosts: " << n << ", candidates: " << sp.num_candidates
      << ", runs: " << runs << "\n";

  embedding::VivaldiParams vp;
  vp.seed = 3 ^ cfg.seed;
  core::DynamicNeighborParams dp;
  dp.period_seconds = period;
  dp.seed = 42 ^ cfg.seed;
  core::DynamicNeighborVivaldi dyn(space.measured, vp, dp);

  auto penalty_cdf = [&]() {
    return exp.run([&](delayspace::HostId a, delayspace::HostId b) {
      return dyn.system().predicted(a, b);
    });
  };

  std::vector<std::string> names;
  std::vector<Cdf> cdfs;
  const std::vector<std::uint32_t> snapshots{0, 1, 2, 5, 10};
  std::uint32_t done = 0;
  for (std::uint32_t snap : snapshots) {
    while (done < snap) {
      dyn.run_iteration();
      ++done;
    }
    names.push_back(snap == 0 ? "Vivaldi-original"
                              : "dyn-neigh-iter" + std::to_string(snap));
    cdfs.push_back(penalty_cdf());
  }

  const bool ok = check_series("bench_fig23_dynneigh_penalty", names, cdfs);
  if (cfg.json) {
    emit_cdf_grid_json(*json, "penalty_cdf", names, cdfs,
                       log_grid(1.0, 10000.0), 0);
    emit_cdf_quantiles_json(*json, "penalty_quantiles", names, cdfs);
    return ok ? 0 : 1;
  }
  print_cdfs_on_grid(
      "Figure 23: neighbor selection, dynamic-neighbor Vivaldi",
      names, cdfs, log_grid(1.0, 10000.0), cfg, 0);
  print_cdfs_by_quantile("Figure 23 (quantile view)", names, cdfs, cfg);
  return ok ? 0 : 1;
}
