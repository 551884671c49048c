// Figure 22: CDF of the TIV severity of Vivaldi neighbor edges across
// dynamic-neighbor iterations {0, 1, 2, 5, 10}. Paper shape: each iteration
// shifts the distribution left — the alert-driven neighbor update steadily
// eliminates severe-TIV edges from the probing sets.
// Exit status is nonzero when a plotted series is empty.
#include <iostream>
#include <optional>

#include "bench_common.hpp"
#include "core/dynamic_neighbor.hpp"
#include "core/severity.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 600);
  const auto period =
      static_cast<std::uint32_t>(flags.get_int("period", 100));
  reject_unknown_flags(flags);

  std::optional<BenchReport> json;
  if (cfg.json) {
    json.emplace(std::cout, "bench_fig22_dynneigh_severity");
    json->meta(cfg);
  }

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  const core::TivAnalyzer analyzer(space.measured);

  embedding::VivaldiParams vp;
  vp.seed = 3 ^ cfg.seed;
  core::DynamicNeighborParams dp;
  dp.period_seconds = period;
  dp.seed = 42 ^ cfg.seed;
  core::DynamicNeighborVivaldi dyn(space.measured, vp, dp);

  auto severity_cdf = [&]() {
    return Cdf(analyzer.edge_severity_batch(dyn.neighbor_edges()));
  };

  std::vector<std::string> names;
  std::vector<Cdf> cdfs;
  std::vector<double> means;
  const std::vector<std::uint32_t> snapshots{0, 1, 2, 5, 10};
  std::uint32_t done = 0;
  for (std::uint32_t snap : snapshots) {
    while (done < snap) {
      dyn.run_iteration();
      ++done;
    }
    names.push_back("iter" + std::to_string(snap));
    cdfs.push_back(severity_cdf());
    means.push_back(summarize(cdfs.back().sorted_values()).mean);
    (cfg.json ? std::cerr : std::cout)
        << "iteration " << snap << ": mean neighbor-edge severity = "
        << format_double(means.back(), 4) << "\n";
  }

  const std::vector<double> grid{0.0,  0.01, 0.02, 0.05, 0.10,
                                 0.15, 0.20, 0.30, 0.40, 0.50};
  const bool ok =
      check_series("bench_fig22_dynneigh_severity", names, cdfs);
  if (cfg.json) {
    for (std::size_t s = 0; s < snapshots.size(); ++s) {
      json->object()
          .field("section", std::string("iteration"))
          .field("iteration", snapshots[s])
          .field("mean_severity", means[s], 4);
    }
    emit_cdf_grid_json(*json, "severity_cdf", names, cdfs, grid);
    return ok ? 0 : 1;
  }
  print_cdfs_on_grid(
      "Figure 22: TIV severity CDF of Vivaldi neighbor edges per iteration",
      names, cdfs, grid, cfg);
  return ok ? 0 : 1;
}
