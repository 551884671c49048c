// Shared scaffolding for the figure-regeneration benches.
//
// Every bench accepts:
//   --hosts=N   host count for the main dataset (default: bench-specific
//               reduced scale; the TIV analysis is O(N^3))
//   --full      run at the paper's full dataset sizes instead
//   --seed=S    xor-ed into the generator seeds
//   --csv       print tables as CSV instead of aligned text
//   --json      emit a JsonArrayWriter record stream instead of tables
//               (machine-checkable regressions; benches opt in by checking
//               cfg.json — the kernel benches are JSON-only regardless)
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/severity.hpp"
#include "delayspace/datasets.hpp"
#include "delayspace/delay_matrix.hpp"
#include "obs/metrics.hpp"
#include "stream/delay_stream.hpp"
#include "stream/severity_engine.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace tiv::bench {

struct BenchConfig {
  std::uint32_t hosts = 0;  ///< 0 = dataset full size
  std::uint64_t seed = 0;
  bool csv = false;
  bool json = false;  ///< JSON record stream instead of tables
};

/// Parses the standard flags. default_hosts is the reduced scale used when
/// neither --hosts nor --full is given.
inline BenchConfig parse_config(const Flags& flags,
                                std::uint32_t default_hosts) {
  BenchConfig c;
  const bool full = flags.get_bool("full", false);
  c.hosts = static_cast<std::uint32_t>(
      flags.get_int("hosts", full ? 0 : default_hosts));
  c.seed = static_cast<std::uint64_t>(flags.get_int("seed", 0));
  c.csv = flags.get_bool("csv", false);
  c.json = flags.get_bool("json", false);
  return c;
}

/// Generates a dataset preset at the configured scale.
inline delayspace::DelaySpace make_space(delayspace::DatasetId id,
                                         const BenchConfig& c) {
  auto params = delayspace::dataset_params(id, c.hosts);
  params.topology.seed ^= c.seed;
  params.hosts.seed ^= c.seed;
  return delayspace::generate_delay_space(params);
}

inline void emit(const Table& table, const BenchConfig& c) {
  if (c.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// Prints several named CDFs as one table: rows are cumulative-fraction
/// levels, cells are the value at that quantile per series. This is the
/// transposed form of the paper's CDF plots (readable as "the q-th
/// percentile penalty of scheme X is ...").
inline void print_cdfs_by_quantile(const std::string& title,
                                   const std::vector<std::string>& names,
                                   const std::vector<Cdf>& cdfs,
                                   const BenchConfig& c) {
  print_section(std::cout, title);
  std::vector<std::string> header{"quantile"};
  header.insert(header.end(), names.begin(), names.end());
  Table table(header);
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.00}) {
    std::vector<std::string> row{format_double(q, 2)};
    for (const Cdf& cdf : cdfs) {
      row.push_back(cdf.empty() ? "-" : format_double(cdf.quantile(q), 2));
    }
    table.add_row(std::move(row));
  }
  emit(table, c);
}

/// Prints several named CDFs sampled on a fixed x grid: rows are x values,
/// cells are F(x) — the same orientation as the paper's figures.
inline void print_cdfs_on_grid(const std::string& title,
                               const std::vector<std::string>& names,
                               const std::vector<Cdf>& cdfs,
                               const std::vector<double>& grid,
                               const BenchConfig& c, int x_precision = 2) {
  print_section(std::cout, title);
  std::vector<std::string> header{"x"};
  header.insert(header.end(), names.begin(), names.end());
  Table table(header);
  for (double x : grid) {
    std::vector<std::string> row{format_double(x, x_precision)};
    for (const Cdf& cdf : cdfs) {
      row.push_back(format_double(cdf.fraction_at_most(x), 3));
    }
    table.add_row(std::move(row));
  }
  emit(table, c);
}

/// Prints a binned error-bar series (the paper's Figs. 4-8, 11, 13, 19).
inline void print_bins(const std::string& title, const std::vector<Bin>& bins,
                       const BenchConfig& c, int x_precision = 1) {
  print_section(std::cout, title);
  Table table({"x", "p10", "median", "p90", "mean", "count"});
  for (const Bin& b : bins) {
    table.add_row({format_double(b.x_center, x_precision),
                   format_double(b.p10, 3),
                   format_double(b.median, 3), format_double(b.p90, 3),
                   format_double(b.mean, 3), std::to_string(b.count)});
  }
  emit(table, c);
}

/// Repeated-timing summary: min-of-k (the regression-gate number — least
/// noise-contaminated), plus mean and relative spread so a baseline diff
/// can tell a real regression from a noisy box.
struct Timing {
  double best_ms = 0.0;  ///< minimum over reps — the gated metric
  double mean_ms = 0.0;
  double spread = 0.0;  ///< (max - min) / min; 0 when min is 0
  int reps = 1;
};

/// Streaming emitter for the machine-checkable kernel benches: a JSON array
/// of flat records, one object per measurement, so future PRs can diff
/// trajectories with jq instead of parsing aligned tables.
///
///   JsonArrayWriter json(std::cout);
///   json.object().field("n", n).field("ms", ms, 3).field_sig("err", e, 3);
///
/// The Object temporary closes itself at the end of the full expression;
/// the writer closes the array on destruction.
class JsonArrayWriter {
 public:
  class Object {
   public:
    explicit Object(std::ostream& out) : out_(out) { out_ << "{"; }
    /// Move transfers the close-brace duty (lets factories like
    /// BenchReport::meta return a prefilled record for the caller to
    /// extend); the moved-from object writes nothing.
    Object(Object&& o) noexcept : out_(o.out_), first_(o.first_) {
      o.active_ = false;
    }
    ~Object() {
      if (active_) out_ << "}";
    }
    Object(const Object&) = delete;
    Object& operator=(const Object&) = delete;
    Object& operator=(Object&&) = delete;

    /// One template for every integer type (size_t is unsigned long on
    /// LP64 glibc but unsigned long long elsewhere; per-type overloads
    /// would be ambiguous on one platform or the other). bool is excluded
    /// — use field_bool.
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    Object& field(const std::string& key, T v) {
      if constexpr (std::is_signed_v<T>) {
        sep() << quoted(key) << ":" << static_cast<std::int64_t>(v);
      } else {
        sep() << quoted(key) << ":" << static_cast<std::uint64_t>(v);
      }
      return *this;
    }
    /// Fixed-point with `decimals` fractional digits (timings, fractions).
    Object& field(const std::string& key, double v, int decimals = 3) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
      sep() << quoted(key) << ":" << buf;
      return *this;
    }
    /// Significant-digit form (errors spanning decades; emits e.g. 1.2e-09).
    Object& field_sig(const std::string& key, double v, int significant = 3) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.*g", significant, v);
      sep() << quoted(key) << ":" << buf;
      return *this;
    }
    Object& field(const std::string& key, const std::string& v) {
      sep() << quoted(key) << ":" << quoted(v);
      return *this;
    }
    Object& field_bool(const std::string& key, bool v) {
      sep() << quoted(key) << ":" << (v ? "true" : "false");
      return *this;
    }
    /// The standard repeated-timing fields: "ms" is min-of-reps (the
    /// number benchdiff gates), mean/spread qualify the measurement.
    Object& timing(const Timing& t) {
      return field("ms", t.best_ms, 3)
          .field("ms_mean", t.mean_ms, 3)
          .field("ms_spread", t.spread, 3)
          .field("reps", t.reps);
    }

   private:
    std::ostream& sep() {
      if (!first_) out_ << ",";
      first_ = false;
      return out_;
    }
    static std::string quoted(const std::string& s) {
      std::string out = "\"";
      for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      out += '"';
      return out;
    }

    std::ostream& out_;
    bool first_ = true;
    bool active_ = true;  ///< false once moved-from: dtor writes nothing
  };

  explicit JsonArrayWriter(std::ostream& out) : out_(out) { out_ << "[\n"; }
  ~JsonArrayWriter() { out_ << "\n]\n"; }
  JsonArrayWriter(const JsonArrayWriter&) = delete;
  JsonArrayWriter& operator=(const JsonArrayWriter&) = delete;

  /// Starts the next record (indented, comma-separated from the previous).
  Object object() {
    if (!first_) out_ << ",\n";
    first_ = false;
    out_ << "  ";
    return Object(out_);
  }

 private:
  std::ostream& out_;
  bool first_ = true;
};

/// The unified bench JSON envelope (docs/OBSERVABILITY.md, "Benchmark
/// methodology & baselines"). A BenchReport is a JsonArrayWriter whose
/// first record is a {"section":"meta"} envelope carrying everything a
/// baseline differ needs to refuse apples-to-oranges comparisons:
///
///   {"section":"meta","schema_version":1,"bench":"bench_severity_kernel",
///    "build":"release","obs_enabled":true,"hw_threads":4,
///    "hosts":0,"seed":7, ...bench-specific config chained by the caller}
///
/// Usage:
///   BenchReport report(std::cout, "bench_severity_kernel");
///   report.meta(cfg).field("reps", reps).field("quick", ...);
///   report.object().field("section", "engine")...;   // as before
///
/// tools/benchdiff keys on schema_version (mismatch = structural error,
/// exit 2) and on bench to reject diffing unrelated runs.
class BenchReport : public JsonArrayWriter {
 public:
  /// Bump when the envelope or the shared record conventions change
  /// incompatibly; benchdiff refuses to diff across versions.
  static constexpr int kSchemaVersion = 1;

  BenchReport(std::ostream& out, std::string bench)
      : JsonArrayWriter(out), bench_(std::move(bench)) {}

  /// Opens the meta record — call exactly once, before any other record.
  /// Returns the still-open Object so callers chain bench-specific config
  /// (sizes, thread sweeps, tile dims); it closes at the end of the full
  /// expression like any other record.
  Object meta(const BenchConfig& cfg) {
    Object o = object();
    o.field("section", std::string("meta"))
        .field("schema_version", kSchemaVersion)
        .field("bench", bench_)
        .field("build", std::string(
#ifdef NDEBUG
                            "release"
#else
                            "debug"
#endif
                            ))
        .field_bool("obs_enabled", obs::kEnabled)
        .field("hw_threads", std::thread::hardware_concurrency())
        .field("hosts", cfg.hosts)
        .field("seed", cfg.seed);
    return o;
  }

 private:
  std::string bench_;
};

/// Embeds a registry metrics snapshot into a bench's JSON record stream:
/// one flat {"section":"metrics",...} record per metric, so regressions in
/// telemetry totals (I/O volume, cache hit rates, repair counts) are as
/// diffable as the timing records. Pass a delta_since() snapshot to scope
/// the records to one bench phase.
inline void emit_metrics_json(JsonArrayWriter& json,
                              const obs::MetricsSnapshot& snap) {
  for (const auto& [name, value] : snap.counters) {
    json.object()
        .field("section", std::string("metrics"))
        .field("kind", std::string("counter"))
        .field("name", name)
        .field("value", value);
  }
  for (const auto& [name, value] : snap.gauges) {
    json.object()
        .field("section", std::string("metrics"))
        .field("kind", std::string("gauge"))
        .field("name", name)
        .field("value", value);
  }
  for (const auto& [name, h] : snap.histograms) {
    json.object()
        .field("section", std::string("metrics"))
        .field("kind", std::string("histogram"))
        .field("name", name)
        .field("count", h.count)
        .field("sum", h.sum)
        .field("mean", h.mean(), 1)
        .field("p50", h.quantile(0.5), 1)
        .field("p90", h.quantile(0.9), 1)
        .field("p99", h.quantile(0.99), 1);
  }
}

/// Exit-status check on the registry snapshot a bench embeds: every name
/// in `registered` must be present (as a counter, gauge or histogram) and
/// every counter in `positive` must be > 0. Each failure is reported on
/// stderr under `bench`; returns true when all hold.
inline bool check_metrics(const char* bench, const obs::MetricsSnapshot& snap,
                          std::initializer_list<const char*> registered,
                          std::initializer_list<const char*> positive = {}) {
  bool ok = true;
  for (const char* name : registered) {
    if (snap.counters.count(name) == 0 && snap.gauges.count(name) == 0 &&
        snap.histograms.count(name) == 0) {
      std::cerr << bench << ": metric " << name << " not registered\n";
      ok = false;
    }
  }
  for (const char* name : positive) {
    const auto it = snap.counters.find(name);
    if (it == snap.counters.end() || it->second == 0) {
      std::cerr << bench << ": counter " << name << " is not > 0\n";
      ok = false;
    }
  }
  return ok;
}

/// JSON twin of print_cdfs_on_grid: one record per (series, x) with the
/// fraction at-most x — the orientation the paper's CDF figures use.
inline void emit_cdf_grid_json(JsonArrayWriter& json,
                               const std::string& section,
                               const std::vector<std::string>& names,
                               const std::vector<Cdf>& cdfs,
                               const std::vector<double>& grid,
                               int x_decimals = 3) {
  for (std::size_t s = 0; s < names.size(); ++s) {
    for (const double x : grid) {
      json.object()
          .field("section", section)
          .field("series", names[s])
          .field("x", x, x_decimals)
          .field("fraction", cdfs[s].fraction_at_most(x), 4);
    }
  }
}

/// JSON twin of print_cdfs_by_quantile: one record per (series, quantile).
inline void emit_cdf_quantiles_json(JsonArrayWriter& json,
                                    const std::string& section,
                                    const std::vector<std::string>& names,
                                    const std::vector<Cdf>& cdfs) {
  for (std::size_t s = 0; s < names.size(); ++s) {
    if (cdfs[s].empty()) continue;
    for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.00}) {
      json.object()
          .field("section", section)
          .field("series", names[s])
          .field("quantile", q, 2)
          .field("value", cdfs[s].quantile(q), 4);
    }
  }
}

/// JSON twin of print_bins: one record per bin with the error-bar stats.
inline void emit_bins_json(JsonArrayWriter& json, const std::string& section,
                           const std::vector<Bin>& bins, int x_decimals = 2) {
  for (const Bin& b : bins) {
    json.object()
        .field("section", section)
        .field("x", b.x_center, x_decimals)
        .field("p10", b.p10, 4)
        .field("median", b.median, 4)
        .field("p90", b.p90, 4)
        .field("mean", b.mean, 4)
        .field("count", b.count);
  }
}

/// Synthetic uniform-random RTT matrix for the kernel benches: cost
/// depends only on n and the missing pattern, and this keeps large-n
/// setups cheap compared to generating a full delay space.
inline delayspace::DelayMatrix random_matrix(delayspace::HostId n,
                                             double missing_fraction,
                                             std::uint64_t seed) {
  delayspace::DelayMatrix m(n);
  Rng rng(seed);
  for (delayspace::HostId i = 0; i < n; ++i) {
    for (delayspace::HostId j = i + 1; j < n; ++j) {
      if (rng.bernoulli(missing_fraction)) continue;
      m.set(i, j, static_cast<float>(rng.uniform(1.0, 400.0)));
    }
  }
  return m;
}

/// One epoch of churn for the live-engine benches: `hosts` distinct hosts
/// paired off into disjoint edges, each re-measured once. Returns samples
/// ingested.
inline std::size_t replay_churn_epoch(stream::DelayStream& stream, Rng& rng,
                                      std::size_t hosts, double t) {
  const auto n = stream.matrix().size();
  const auto k = static_cast<std::uint32_t>(std::min<std::size_t>(
      hosts & ~std::size_t{1}, n & ~static_cast<std::size_t>(1)));
  const auto picks = rng.sample_without_replacement(n, k);
  std::vector<stream::DelaySample> batch;
  batch.reserve(k / 2);
  for (std::uint32_t e = 0; e + 1 < k; e += 2) {
    batch.push_back({picks[e], picks[e + 1],
                     static_cast<float>(rng.uniform(1.0, 400.0)), t});
  }
  stream.ingest(batch);
  return batch.size();
}

/// Cells whose float bits differ between the engine's severities, read
/// through severity_row, and `want` (0 = bit-identical).
inline std::size_t bit_mismatches(stream::SeverityEngine& engine,
                                  const core::SeverityMatrix& want) {
  std::size_t bad = 0;
  const delayspace::HostId n = engine.size();
  std::vector<float> row(n);
  for (delayspace::HostId a = 0; a < n; ++a) {
    engine.severity_row(a, row);
    for (delayspace::HostId b = 0; b < n; ++b) {
      bad += std::bit_cast<std::uint32_t>(row[b]) !=
             std::bit_cast<std::uint32_t>(want.at(a, b));
    }
  }
  return bad;
}

/// Wall time of one invocation of fn, in milliseconds.
inline double time_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Best-of-reps wall time of fn, which must assign its result out of the
/// timed region so the work is not optimized away.
inline double best_ms(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, time_ms(fn));
  return best;
}

/// best_ms plus dispersion: runs fn `reps` times and keeps min, mean and
/// the (max-min)/min relative spread. The min is what the regression gate
/// compares (least contaminated by scheduler noise); the spread is how a
/// reader judges whether the box was quiet.
inline Timing repeat_ms(int reps, const std::function<void()>& fn) {
  Timing t;
  t.reps = reps < 1 ? 1 : reps;
  double sum = 0.0;
  double worst = 0.0;
  t.best_ms = 1e300;
  for (int r = 0; r < t.reps; ++r) {
    const double ms = time_ms(fn);
    sum += ms;
    t.best_ms = std::min(t.best_ms, ms);
    worst = std::max(worst, ms);
  }
  t.mean_ms = sum / static_cast<double>(t.reps);
  t.spread = t.best_ms > 0.0 ? (worst - t.best_ms) / t.best_ms : 0.0;
  return t;
}

/// Log-spaced grid (the paper's percentage-penalty CDFs use a log x axis
/// from 10^0 to 10^4).
inline std::vector<double> log_grid(double lo, double hi,
                                    std::size_t points_per_decade = 2) {
  std::vector<double> grid;
  for (double x = lo; x <= hi * 1.0001;
       x *= std::pow(10.0, 1.0 / static_cast<double>(points_per_decade))) {
    grid.push_back(x);
  }
  return grid;
}

}  // namespace tiv::bench
