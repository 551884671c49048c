// Figure 25: TIV-aware Meridian in the 200-node full-ring setting (every
// Meridian node keeps all 199 others as ring members). Three curves:
// original (beta = 0.5 termination), TIV alert, and the idealized
// no-termination variant. Paper shape: TIV alert beats even the
// no-termination ideal at ~5% extra probes, because it copes with TIV
// directly instead of merely probing more.
// Exit status is nonzero when a plotted series is empty.
#include <iostream>
#include <optional>

#include "bench_common.hpp"
#include "core/alert.hpp"
#include "core/tiv_aware.hpp"
#include "embedding/vivaldi.hpp"
#include "neighbor/meridian_experiment.hpp"
#include "scenario/score.hpp"
#include "util/flags.hpp"

namespace {

// Same shared-scorer quality record as bench_fig24 (see the comment
// there): ts = 0.6 alert graded by scenario::score_ratio_alert.
void emit_alert_quality(tiv::bench::BenchReport& json,
                        const tiv::embedding::VivaldiSystem& vivaldi,
                        std::uint64_t seed) {
  const auto samples =
      tiv::core::collect_ratio_severity_samples(vivaldi, 20000, 321 ^ seed);
  std::vector<double> ratios;
  std::vector<double> severities;
  ratios.reserve(samples.size());
  severities.reserve(samples.size());
  for (const auto& s : samples) {
    ratios.push_back(s.ratio);
    severities.push_back(s.severity);
  }
  for (const double w : {0.01, 0.05}) {
    const auto q = tiv::scenario::score_ratio_alert(ratios, severities, w,
                                                    /*threshold=*/0.6);
    json.object()
        .field("section", std::string("alert_quality"))
        .field("worst_fraction", w, 2)
        .field("threshold", 0.6, 1)
        .field("precision", q.counts.precision(), 4)
        .field("recall", q.counts.recall(), 4)
        .field("f1", q.counts.f1(), 4)
        .field("alert_fraction", q.alert_fraction, 4);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 800);
  const auto overlay = static_cast<std::uint32_t>(
      flags.get_int("meridian-nodes", 0));
  const auto runs = static_cast<std::uint32_t>(flags.get_int("runs", 3));
  reject_unknown_flags(flags);

  std::optional<BenchReport> json;
  if (cfg.json) {
    json.emplace(std::cout, "bench_fig25_meridian_alert_ideal");
    json->meta(cfg);
  }

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  const auto n = space.measured.size();
  const std::uint32_t m_nodes =
      overlay != 0 ? overlay : std::max<std::uint32_t>(20, n / 20);

  embedding::VivaldiParams vp;
  vp.seed = 3 ^ cfg.seed;
  embedding::VivaldiSystem vivaldi(space.measured, vp);
  vivaldi.run(300);

  neighbor::MeridianExperimentParams p;
  p.num_meridian_nodes = m_nodes;
  p.runs = runs;
  p.seed = 99 ^ cfg.seed;
  p.meridian.ring_capacity = 100000;  // full rings
  p.meridian.num_rings = 20;
  (cfg.json ? std::cerr : std::cout)
      << "hosts: " << n << ", overlay: " << m_nodes << " (full rings), runs: "
      << runs << "\n";

  const auto original = neighbor::run_meridian_experiment(space.measured, p);

  neighbor::MeridianExperimentParams p_alert = p;
  p_alert.meridian = core::tiv_aware_meridian_params(vivaldi, p.meridian);
  const auto alert =
      neighbor::run_meridian_experiment(space.measured, p_alert);

  neighbor::MeridianExperimentParams p_ideal = p;
  p_ideal.meridian.use_termination = false;
  const auto ideal =
      neighbor::run_meridian_experiment(space.measured, p_ideal);

  const std::vector<std::string> names{
      "Meridian-original", "Meridian-TIV-alert", "Meridian-no-termination"};
  const std::vector<Cdf> penalties{original.penalties, alert.penalties,
                                   ideal.penalties};
  const bool ok =
      check_series("bench_fig25_meridian_alert_ideal", names, penalties);
  if (cfg.json) {
    const neighbor::MeridianExperimentResult* results[] = {&original, &alert,
                                                           &ideal};
    emit_cdf_grid_json(*json, "penalty_cdf", names, penalties,
                       log_grid(1.0, 10000.0), 0);
    for (int s = 0; s < 3; ++s) {
      json->object()
          .field("section", std::string("probes"))
          .field("scheme", names[s])
          .field("probes_per_query", results[s]->probes_per_query(), 1)
          .field("overhead_pct",
                 100.0 * (results[s]->probes_per_query() /
                              original.probes_per_query() -
                          1.0),
                 1)
          .field("fraction_optimal_found", results[s]->fraction_optimal_found,
                 4);
    }
    emit_alert_quality(*json, vivaldi, cfg.seed);
    return ok ? 0 : 1;
  }

  print_cdfs_on_grid(
      "Figure 25: Meridian with TIV alert (200-node full-ring setting)",
      names, penalties, log_grid(1.0, 10000.0), cfg, 0);

  print_section(std::cout, "Probe accounting");
  Table table({"scheme", "probes/query", "overhead %", "found optimal"});
  auto add = [&](const std::string& name,
                 const neighbor::MeridianExperimentResult& r) {
    table.add_row(
        {name, format_double(r.probes_per_query(), 1),
         format_double(100.0 * (r.probes_per_query() /
                                    original.probes_per_query() -
                                1.0),
                       1),
         format_double(r.fraction_optimal_found, 3)});
  };
  add("Meridian-original", original);
  add("Meridian-TIV-alert", alert);
  add("Meridian-no-termination", ideal);
  emit(table, cfg);
  return ok ? 0 : 1;
}
