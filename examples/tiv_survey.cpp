// tiv_survey: the paper's §2 measurement study as a command-line tool.
// Point it at a saved delay matrix (DelayMatrix::save format) or let it
// generate a preset, and it reports the TIV characteristics: violating-
// triangle fraction, severity distribution, severity vs delay, cluster
// structure, and the worst offender edges.
//
//   ./tiv_survey [--matrix=path] [--dataset=ds2|meridian|p2psim|planetlab]
//                [--hosts=500] [--worst=10]
#include <algorithm>
#include <iostream>

#include "core/severity.hpp"
#include "delayspace/clustering.hpp"
#include "delayspace/datasets.hpp"
#include "delayspace/delay_matrix.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

tiv::delayspace::DatasetId parse_dataset(const std::string& name) {
  using tiv::delayspace::DatasetId;
  if (name == "ds2") return DatasetId::kDs2;
  if (name == "meridian") return DatasetId::kMeridian;
  if (name == "p2psim") return DatasetId::kP2psim;
  if (name == "planetlab") return DatasetId::kPlanetLab;
  throw std::invalid_argument("unknown dataset: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tiv;
  const Flags flags(argc, argv);
  const std::string matrix_path = flags.get_string("matrix", "");
  const std::string dataset = flags.get_string("dataset", "ds2");
  const auto hosts = static_cast<std::uint32_t>(flags.get_int("hosts", 500));
  const auto worst = static_cast<std::size_t>(flags.get_int("worst", 10));
  reject_unknown_flags(flags);

  delayspace::DelayMatrix matrix;
  if (!matrix_path.empty()) {
    matrix = delayspace::DelayMatrix::load(matrix_path);
    std::cout << "loaded " << matrix.size() << "-host matrix from "
              << matrix_path << "\n";
  } else {
    matrix =
        delayspace::make_dataset(parse_dataset(dataset), hosts).measured;
    std::cout << "generated " << dataset << " preset with " << matrix.size()
              << " hosts\n";
  }

  const core::TivAnalyzer analyzer(matrix);

  print_section(std::cout, "Delay distribution");
  const Summary delays = summarize(matrix.all_delays());
  Table dt({"metric", "value"});
  dt.add_row({"measured pairs", std::to_string(matrix.measured_pair_count())});
  dt.add_row({"missing fraction", format_double(matrix.missing_fraction(), 4)});
  dt.add_row({"median delay (ms)", format_double(delays.median, 1)});
  dt.add_row({"p90 delay (ms)", format_double(delays.p90, 1)});
  dt.add_row({"max delay (ms)", format_double(delays.max, 1)});
  dt.print(std::cout);

  print_section(std::cout, "Triangle inequality violations");
  const double tri = analyzer.violating_triangle_fraction(500000);
  const auto samples = analyzer.sampled_severities(10000);
  std::vector<double> sev;
  sev.reserve(samples.size());
  for (const auto& s : samples) sev.push_back(s.second);
  const Summary ss = summarize(sev);
  Table tt({"metric", "value"});
  tt.add_row({"violating triangle fraction", format_double(tri, 3)});
  tt.add_row({"edge severity median", format_double(ss.median, 4)});
  tt.add_row({"edge severity p90", format_double(ss.p90, 4)});
  tt.add_row({"edge severity max", format_double(ss.max, 3)});
  tt.print(std::cout);

  print_section(std::cout, "Severity vs edge delay (100 ms bins)");
  BinnedSeries series(0.0, 1000.0, 100.0);
  for (const auto& [edge, s] : samples) {
    series.add(matrix.at(edge.first, edge.second), s);
  }
  Table bt({"delay bin", "median sev", "p90 sev", "edges"});
  for (const auto& b : series.bins()) {
    bt.add_row({format_double(b.x_center, 0), format_double(b.median, 4),
                format_double(b.p90, 4), std::to_string(b.count)});
  }
  bt.print(std::cout);

  print_section(std::cout, "Cluster structure");
  const auto clustering = delayspace::cluster_delay_space(matrix, {});
  Table ct({"cluster", "size"});
  for (std::size_t c = 0; c < clustering.num_clusters(); ++c) {
    ct.add_row({std::to_string(c),
                std::to_string(clustering.members[c].size())});
  }
  ct.add_row({"noise", std::to_string(clustering.noise.size())});
  ct.print(std::cout);

  print_section(std::cout, "Worst edges by TIV severity");
  auto sorted = samples;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  sorted.resize(std::min(worst, sorted.size()));
  std::vector<std::pair<delayspace::HostId, delayspace::HostId>> worst_edges;
  for (const auto& [edge, s] : sorted) worst_edges.push_back(edge);
  const auto worst_stats = analyzer.edge_stats_batch(worst_edges);
  Table wt({"edge", "delay (ms)", "severity", "#TIVs", "max ratio"});
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const auto [edge, s] = sorted[i];
    const auto& stats = worst_stats[i];
    wt.add_row({std::to_string(edge.first) + "-" + std::to_string(edge.second),
                format_double(matrix.at(edge.first, edge.second), 1),
                format_double(s, 3), std::to_string(stats.violation_count),
                format_double(stats.max_ratio, 2)});
  }
  wt.print(std::cout);
  return 0;
}
