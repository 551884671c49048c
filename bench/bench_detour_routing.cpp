// Extension bench (DESIGN.md §6): TIV-aware one-hop detour routing — the
// constructive application of the alert mechanism. Sweeps the alert
// threshold and relay budget, reporting delay improvement vs probe cost
// against the random-relay and one-hop-oracle baselines, plus the measured
// speedup of the masked-view oracle scan over the seed's branchy scalar
// scan at the configured host count.
//
// One packed DelayMatrixView is built up front and shared by every
// evaluate call and oracle scan — the matrix is packed exactly once.
//
// --json emits a flat record stream (sections: threshold_sweep, baseline,
// oracle_scan) for machine-checkable regressions.
#include <iostream>
#include <optional>

#include "bench_common.hpp"
#include "core/detour.hpp"
#include "core/edge_sampling.hpp"
#include "embedding/vivaldi.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 600);
  const auto sample_edges =
      static_cast<std::size_t>(flags.get_int("edge-samples", 20000));
  reject_unknown_flags(flags);

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  embedding::VivaldiParams vp;
  vp.seed = 3 ^ cfg.seed;
  embedding::VivaldiSystem vivaldi(space.measured, vp);
  vivaldi.run(300);

  const delayspace::DelayMatrixView view(space.measured);
  std::optional<BenchReport> json;
  if (cfg.json) {
    json.emplace(std::cout, "bench_detour_routing");
    json->meta(cfg);
  }

  const auto pct_alerted = [](const core::DetourEvaluation& e) {
    return 100.0 * static_cast<double>(e.alerted_edges) /
           static_cast<double>(e.edges);
  };
  const auto probes_per_edge = [](const core::DetourEvaluation& e) {
    return static_cast<double>(e.probes_tiv_aware) /
           static_cast<double>(e.edges);
  };

  if (!cfg.json) {
    print_section(std::cout,
                  "TIV-aware detour routing: threshold sweep (8 relays)");
  }
  Table table({"threshold", "mean delay (ms)", "stretch vs oracle",
               "alerted %", "probes/edge"});
  for (const double t : {0.0, 0.3, 0.5, 0.6, 0.7, 0.9}) {
    core::DetourParams dp;
    dp.alert_threshold = t;
    const auto eval = core::evaluate_detour_routing(vivaldi, dp, sample_edges,
                                                    31 ^ cfg.seed, &view);
    if (cfg.json) {
      json->object()
          .field("section", std::string("threshold_sweep"))
          .field("threshold", t, 1)
          .field("edges", eval.edges)
          .field("edges_requested", eval.edges_requested)
          .field("mean_delay_ms", eval.achieved_ms.mean, 3)
          .field("stretch_vs_oracle", eval.mean_stretch_achieved, 4)
          .field("alerted_pct", pct_alerted(eval), 2)
          .field("probes_per_edge", probes_per_edge(eval), 3);
    } else {
      table.add_row(
          {format_double(t, 1), format_double(eval.achieved_ms.mean, 2),
           format_double(eval.mean_stretch_achieved, 3),
           format_double(pct_alerted(eval), 1),
           format_double(probes_per_edge(eval), 2)});
    }
  }
  if (!cfg.json) emit(table, cfg);

  if (!cfg.json) print_section(std::cout, "Baselines (threshold 0.6, 8 relays)");
  core::DetourParams dp;
  const auto eval = core::evaluate_detour_routing(vivaldi, dp, sample_edges,
                                                  31 ^ cfg.seed, &view);
  if (cfg.json) {
    json->object()
        .field("section", std::string("baseline"))
        .field("scheme", std::string("direct"))
        .field("mean_delay_ms", eval.direct_ms.mean, 3)
        .field("stretch_vs_oracle", eval.mean_stretch_direct, 4)
        .field("total_probes", std::uint64_t{0});
    json->object()
        .field("section", std::string("baseline"))
        .field("scheme", std::string("tiv_aware_detour"))
        .field("mean_delay_ms", eval.achieved_ms.mean, 3)
        .field("stretch_vs_oracle", eval.mean_stretch_achieved, 4)
        .field("total_probes", eval.probes_tiv_aware);
    json->object()
        .field("section", std::string("baseline"))
        .field("scheme", std::string("random_relay_detour"))
        .field("mean_delay_ms", eval.random_relay_ms.mean, 3)
        .field("total_probes", eval.probes_random);
    json->object()
        .field("section", std::string("baseline"))
        .field("scheme", std::string("one_hop_oracle"))
        .field("mean_delay_ms", eval.oracle_ms.mean, 3)
        .field("stretch_vs_oracle", 1.0, 4)
        .field("total_probes", std::uint64_t{0});
  } else {
    Table bt({"scheme", "mean delay (ms)", "stretch vs oracle",
              "total probes"});
    bt.add_row({"direct", format_double(eval.direct_ms.mean, 2),
                format_double(eval.mean_stretch_direct, 3), "0"});
    bt.add_row({"tiv-aware detour", format_double(eval.achieved_ms.mean, 2),
                format_double(eval.mean_stretch_achieved, 3),
                std::to_string(eval.probes_tiv_aware)});
    bt.add_row({"random-relay detour",
                format_double(eval.random_relay_ms.mean, 2), "-",
                std::to_string(eval.probes_random)});
    bt.add_row({"one-hop oracle", format_double(eval.oracle_ms.mean, 2),
                "1.000", "-"});
    emit(bt, cfg);
  }

  // Oracle-scan kernel: the seed's branchy per-element scan vs the masked
  // lane scan, over the same sampled edges. The two are exactly equivalent
  // (gtest-enforced in test_detour); here we report the measured speedup,
  // and the exit status is nonzero if the two sums differ at all.
  bool scans_equal = false;
  {
    core::PairSampleOptions opt;
    opt.require_positive = true;
    const auto sample = core::sample_measured_pairs(
        space.measured, std::min<std::size_t>(sample_edges, 4000),
        97 ^ cfg.seed, opt);
    const core::DetourRouter router(vivaldi, dp, &view);
    double sum_scalar = 0.0;
    const double scalar_ms = best_ms(3, [&] {
      sum_scalar = 0.0;
      for (const auto& [a, b] : sample.pairs) {
        sum_scalar += router.oracle_one_hop_scalar(a, b);
      }
    });
    double sum_masked = 0.0;
    const double masked_ms = best_ms(3, [&] {
      sum_masked = 0.0;
      for (const auto& [a, b] : sample.pairs) {
        sum_masked += router.oracle_one_hop(a, b);
      }
    });
    const double speedup = scalar_ms > 0.0 ? scalar_ms / masked_ms : 0.0;
    scans_equal = std::abs(sum_scalar - sum_masked) == 0.0;
    if (cfg.json) {
      json->object()
          .field("section", std::string("oracle_scan"))
          .field("n", space.measured.size())
          .field("edges", sample.pairs.size())
          .field("scalar_ms", scalar_ms, 3)
          .field("masked_ms", masked_ms, 3)
          .field("speedup", speedup, 3)
          .field_sig("sum_abs_diff", std::abs(sum_scalar - sum_masked), 3);
    } else {
      print_section(std::cout, "Oracle one-hop scan: scalar vs masked view");
      Table ot({"n", "edges", "scalar ms", "masked ms", "speedup"});
      ot.add_row({std::to_string(space.measured.size()),
                  std::to_string(sample.pairs.size()),
                  format_double(scalar_ms, 2), format_double(masked_ms, 2),
                  format_double(speedup, 2)});
      emit(ot, cfg);
    }
  }
  if (!scans_equal) {
    std::cerr << "bench_detour_routing: masked oracle scan differs from the "
                 "scalar scan\n";
    return 1;
  }
  return 0;
}
