// The paper's in-text quantitative claims, each recomputed on the synthetic
// DS^2-like dataset:
//   §2.1 the severity-metric critique: among the top-10% edges by
//        violating-triangle fraction, a chunk has bottom-10% mean ratios;
//        among the top-10% by mean ratio, most cause < 3 violations;
//   §3.2 ~12% of triangles violate the triangle inequality;
//        Vivaldi median abs error ~20 ms / 90th ~140 ms; movement 1.61 /
//        6.18 ms per step;
//   §2.2 within-cluster edges average fewer violations than cross-cluster
//        (80 vs 206).
// Exit status is nonzero unless all (at least nine) claims were computable
// at this scale (measured_valid).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>

#include "bench_common.hpp"
#include "core/cluster_analysis.hpp"
#include "core/severity.hpp"
#include "delayspace/clustering.hpp"
#include "embedding/trackers.hpp"
#include "embedding/vivaldi.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 600);
  reject_unknown_flags(flags);

  std::optional<BenchReport> json;
  if (cfg.json) {
    json.emplace(std::cout, "bench_intext_claims");
    json->meta(cfg);
  }

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  const auto& m = space.measured;
  const core::TivAnalyzer analyzer(m);
  (cfg.json ? std::cerr : std::cout) << "dataset: " << m.size() << " hosts\n";

  Table table({"claim", "measured", "paper"});
  // Each claim lands in the table and, under --json, as one flat record
  // {"section":"claim","name":...,"measured":...,"paper":...} so CI can
  // assert on individual values. NaN marks a claim that could not be
  // computed at this scale (emitted with measured_valid:false).
  std::size_t claims = 0;
  std::size_t valid_claims = 0;
  auto claim = [&](const std::string& name, double measured, int decimals,
                   const std::string& paper) {
    const bool valid = !std::isnan(measured);
    ++claims;
    valid_claims += valid;
    if (!valid) std::cerr << "claim not computable: " << name << "\n";
    table.add_row({name, valid ? format_double(measured, decimals) : "-",
                   paper});
    if (cfg.json) {
      json->object()
          .field("section", std::string("claim"))
          .field("name", name)
          .field("measured", valid ? measured : 0.0, decimals)
          .field_bool("measured_valid", valid)
          .field("paper", paper);
    }
  };

  // --- Violating triangle fraction.
  claim("violating triangle fraction",
        analyzer.violating_triangle_fraction(500000), 3, "0.12");

  // --- Severity-metric critique over sampled edges.
  {
    const auto sampled = analyzer.sampled_severities(8000, 7 ^ cfg.seed);
    struct EdgeInfo {
      double frac;
      double mean_ratio;
      std::size_t violations;
    };
    std::vector<std::pair<delayspace::HostId, delayspace::HostId>> edges;
    for (const auto& [edge, sev] : sampled) edges.push_back(edge);
    std::vector<EdgeInfo> infos;
    for (const auto& stats : analyzer.edge_stats_batch(edges)) {
      infos.push_back({stats.violating_fraction(), stats.mean_ratio,
                       stats.violation_count});
    }
    // Top 10% by violating fraction whose mean ratio is in the bottom 10%.
    std::vector<double> fracs;
    std::vector<double> ratios;
    for (const auto& e : infos) {
      fracs.push_back(e.frac);
      ratios.push_back(e.mean_ratio);
    }
    const double frac_p90 = percentile(fracs, 90);
    std::vector<double> nonzero_ratios;
    for (double r : ratios) {
      if (r > 0) nonzero_ratios.push_back(r);
    }
    const double ratio_p10 = percentile(nonzero_ratios, 10);
    std::size_t top_frac = 0;
    std::size_t top_frac_low_ratio = 0;
    for (const auto& e : infos) {
      if (e.frac >= frac_p90 && e.frac > 0) {
        ++top_frac;
        top_frac_low_ratio += e.mean_ratio <= ratio_p10;
      }
    }
    claim("top-10%-by-#TIV edges with bottom-10% mean ratio",
          top_frac == 0 ? std::nan("")
                        : static_cast<double>(top_frac_low_ratio) /
                              static_cast<double>(top_frac),
          2, "0.16");
    // Top 10% by mean ratio causing < 3 violations.
    const double ratio_p90 = percentile(nonzero_ratios, 90);
    std::size_t top_ratio = 0;
    std::size_t top_ratio_few = 0;
    for (const auto& e : infos) {
      if (e.mean_ratio >= ratio_p90 && e.mean_ratio > 0) {
        ++top_ratio;
        top_ratio_few += e.violations < 3;
      }
    }
    claim("top-10%-by-ratio edges causing <3 TIVs",
          top_ratio == 0 ? std::nan("")
                         : static_cast<double>(top_ratio_few) /
                               static_cast<double>(top_ratio),
          2, "0.64");
  }

  // --- Vivaldi error and movement.
  {
    embedding::VivaldiParams vp;
    vp.seed = 3 ^ cfg.seed;
    embedding::VivaldiSystem sys(m, vp);
    sys.run(100);
    embedding::MovementRecorder rec;
    for (int t = 0; t < 100; ++t) rec.record(sys.tick());
    const auto err = sys.snapshot_error(200000).absolute_error();
    const auto speed = rec.speed_summary();
    claim("Vivaldi median abs error (ms)", err.median, 1, "20");
    claim("Vivaldi 90th abs error (ms)", err.p90, 1, "140");
    claim("median movement (ms/step)", speed.median, 2, "1.61");
    claim("90th movement (ms/step)", speed.p90, 2, "6.18");
  }

  // --- Cluster violation counts.
  {
    const auto clustering = delayspace::cluster_delay_space(m, {});
    const core::SeverityMatrix sev = analyzer.all_severities();
    const auto stats = core::cluster_tiv_stats(m, sev, clustering, 4000);
    claim("mean #TIVs, within-cluster edges", stats.mean_violations_within,
          0, "80");
    claim("mean #TIVs, cross-cluster edges", stats.mean_violations_cross, 0,
          "206");
  }

  const int status = claims >= 9 && valid_claims == claims ? 0 : 1;
  if (cfg.json) return status;
  print_section(std::cout, "In-text claims: paper vs this reproduction");
  emit(table, cfg);
  std::cout << "(absolute values depend on the synthetic matrix scale; the "
               "reproduction targets direction and rough magnitude)\n";
  return status;
}
