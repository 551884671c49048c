// Figure 19: TIV severity vs Vivaldi prediction ratio
// (euclidean/measured), 0.1-wide bins over [0, 5], DS^2 steady state.
// Paper shape: severely shrunk edges (ratio << 1) carry high severity;
// severity falls as the ratio rises and is ~0 beyond ratio 2. Huge spread
// within each bin — a heuristic alarm, not a severity predictor.
//
// --json emits flat records (sections: config, bins) for machine-checkable
// regressions. Exit status is nonzero when no bin holds a sample.
#include <iostream>

#include "bench_common.hpp"
#include "core/alert.hpp"
#include "embedding/vivaldi.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 700);
  const auto samples =
      static_cast<std::size_t>(flags.get_int("edge-samples", 30000));
  const auto warmup = static_cast<std::uint32_t>(flags.get_int("warmup", 300));
  reject_unknown_flags(flags);

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  embedding::VivaldiParams vp;
  vp.seed = 3 ^ cfg.seed;
  embedding::VivaldiSystem vivaldi(space.measured, vp);
  if (!cfg.json) {
    std::cout << "embedding " << space.measured.size() << " hosts for "
              << warmup << " s...\n";
  }
  vivaldi.run(warmup);

  const auto ratio_samples =
      core::collect_ratio_severity_samples(vivaldi, samples, 321 ^ cfg.seed);
  BinnedSeries series(0.0, 5.0, 0.1);
  for (const auto& s : ratio_samples) {
    if (!std::isnan(s.ratio)) series.add(s.ratio, s.severity);
  }

  const std::vector<Bin> bins = series.bins();
  if (bins.empty()) {
    std::cerr << "bench_fig19_prediction_ratio: no ratio bin holds a sample\n";
  }
  const int status = bins.empty() ? 1 : 0;
  if (cfg.json) {
    BenchReport json(std::cout, "bench_fig19_prediction_ratio");
    json.meta(cfg);
    json.object()
        .field("section", std::string("config"))
        .field("hosts", space.measured.size())
        .field("edge_samples", samples)
        .field("warmup_s", warmup);
    emit_bins_json(json, "bins", bins, 2);
    return status;
  }

  print_bins("Figure 19: TIV severity vs prediction ratio (0.1 bins)", bins,
             cfg, 2);
  return status;
}
