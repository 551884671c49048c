// tivbench — end-to-end benchmark of the live TIV monitor.
//
// One process runs one workload (README.md explains why each exists):
//
//   tivbench --workload=NAME --seed=S --seconds=T --dir=SCRATCH
//            [--trace=DIR] [--smoke]
//
// Every workload runs the same phases, each outside the others' timers:
//
//   base      the base delay matrix: the DS^2 preset, or a uniform matrix
//             drawn from the seed (untimed)
//   setup     three monitor constructions on the base; the median is
//             setup_s and the last one is kept
//   warm-up   20 closed-loop epochs, not recorded
//   measured  closed-loop epochs for --seconds (and at least 100): the
//             epoch's samples are generated, then timed from the start of
//             ingest to the return of apply_epoch (the severities are
//             queryable), then the query mix is timed
//   verify    every severity bit-compared with a from-scratch
//             TivAnalyzer::all_severities of the monitor's matrix
//   jobs      the batch pipeline: generate topology -> policy routing ->
//             hosts -> all_severities -> exact violating-triangle fraction
//
// The benchmark drives the monitor only through public calls. Per-layer
// numbers come from timing those calls from outside, from deltas of the
// metrics registry the program already keeps, and — with --trace — from
// the spans the program already records (src/obs/trace.hpp), attached on
// every other measured epoch so traced and untraced epochs interleave.
//
// Every reported time is clock-corrected (see ClockProbe below).
//
// Output: one JSON line with metrics/metrics_wall/layers/properties/checks,
// then the result line {"correct","attempted","failed","metrics"} carrying
// the end-to-end metrics (or, with --trace, the per-layer ones). Exit status
// is 1 when a check fails and 2 when the run could not complete.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/severity.hpp"
#include "delayspace/datasets.hpp"
#include "delayspace/generate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/policy_routing.hpp"
#include "scenario/generators.hpp"
#include "stream/delay_stream.hpp"
#include "stream/incremental_severity.hpp"
#include "stream/shard_stream.hpp"
#include "topology/generator.hpp"
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
using tiv::stream::EstimatorParams;
using tiv::stream::SmoothingPolicy;

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Quantile with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Clock correction
//
// The reference host, a KVM guest with no cycle counter, moves its core
// clock with the load of other tenants: every workload ran up to 40% slower
// at once for a minute or two, so raw wall times of one commit spread 20-36%
// between runs (README.md, "Clock-corrected timings"). A chain of dependent
// integer multiply-adds costs a fixed number of cycles, so its wall time
// measures the clock. The clock hops between frequency steps within
// milliseconds, so one probe says little about a unit of work that lasts
// longer; the probe runs before each setup and each job and every 100 ms of
// the live loop, and every time the run reports is scaled by
// kProbeNominalMs / (the median probe): what the work would take at the
// clock where the probe takes kProbeNominalMs.

constexpr int kProbeIters = 100000;
/// The probe's fastest time on the reference host: about 4 cycles per
/// multiply-add at a 3.0 GHz clock.
constexpr double kProbeNominalMs = 0.1336;
constexpr double kProbePeriodMs = 100.0;

class ClockProbe {
 public:
  void sample() {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {  // an interrupt only adds time
      std::uint64_t x = static_cast<std::uint64_t>(rep) + 1;
      const auto t0 = Clock::now();
      for (int i = 0; i < kProbeIters; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        __asm__ __volatile__("" : "+r"(x));  // keep the chain serial
      }
      best = std::min(best, ms_between(t0, Clock::now()));
    }
    last_ = Clock::now();
    probe_ms_.push_back(best);
  }

  /// Samples once kProbePeriodMs have passed since the last sample.
  void periodic() {
    if (ms_between(last_, Clock::now()) >= kProbePeriodMs) sample();
  }

  /// The factor that turns the run's wall times into clock-corrected ones.
  double scale() const { return kProbeNominalMs / quantile(probe_ms_, 0.5); }

  const std::vector<double>& probe_ms() const { return probe_ms_; }

 private:
  Clock::time_point last_;
  std::vector<double> probe_ms_;
};

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  bool out_of_core;  ///< ShardStreamEngine; otherwise IncrementalSeverity
  HostId n;
  bool ds2_base;  ///< DS^2 preset; otherwise uniform 1..400 ms, 10% missing
  EstimatorParams estimator;
  /// Scenario family (src/scenario/generators.hpp) whose sample stream
  /// drives the epochs; nullptr selects the probe load below.
  const char* scenario;
  std::size_t targets;        ///< scenario: edges re-measured per epoch
  std::size_t probe_samples;  ///< probe load: samples per epoch
  std::size_t floor_drops;    ///< probe load: edges whose floor drops 20%
};

constexpr EstimatorParams kEwma{SmoothingPolicy::kEwma, 0.3f, 8};
constexpr EstimatorParams kWindowedMin{SmoothingPolicy::kWindowedMin, 0.25f, 8};

const Workload kWorkloads[] = {
    {"ooc-steady", true, 1024, true, kEwma, "diurnal_drift", 2, 0, 0},
    {"ooc-burst", true, 1024, false, kEwma, "flash_crowd", 51, 0, 0},
    {"probe-inmem", false, 1024, true, kWindowedMin, nullptr, 0, 32768, 4},
    {"analyze-batch", false, 2048, true, kEwma, "diurnal_drift", 2, 0, 0},
};

/// Epochs per generated scenario trace; the load generates the next trace,
/// from a fresh seed, when one runs out.
constexpr std::uint32_t kScenarioEpochs = 32;

/// Run-size knobs; --smoke shrinks every workload to a seconds-long check.
struct Scale {
  HostId n;
  std::uint32_t tile_dim;
  std::size_t targets;
  int warmup_epochs;
  std::size_t min_epochs;  ///< p90 over >= 100 epochs has 10 beyond it
  double seconds;
  int jobs;  ///< batch-pipeline jobs
};

constexpr int kSetups = 3;
constexpr std::size_t kPointReads = 256;
constexpr std::size_t kPointGroup = 16;  ///< reads timed as one group
constexpr std::size_t kRowReads = 10;
constexpr std::size_t kInputBudget = std::size_t{1} << 20;
constexpr std::size_t kSinkBudget = std::size_t{512} << 10;

/// The DS^2 preset is a fixed dataset, the same for every seed: --seed
/// drives the load (and the uniform base), so violation density — which
/// density-dependent kernels are sensitive to — does not vary between runs.
tiv::delayspace::DelaySpaceParams ds2_params(HostId n) {
  return tiv::delayspace::dataset_params(tiv::delayspace::DatasetId::kDs2, n);
}

DelayMatrix uniform_matrix(HostId n, std::uint64_t seed) {
  DelayMatrix m(n);
  Rng rng(seed);
  for (HostId i = 0; i < n; ++i) {
    for (HostId j = i + 1; j < n; ++j) {
      if (rng.bernoulli(0.1)) continue;
      m.set(i, j, static_cast<float>(rng.uniform(1.0, 400.0)));
    }
  }
  return m;
}

std::vector<std::pair<HostId, HostId>> measured_edges(const DelayMatrix& m) {
  std::vector<std::pair<HostId, HostId>> edges;
  for (HostId i = 0; i < m.size(); ++i) {
    for (HostId j = i + 1; j < m.size(); ++j) {
      if (m.has(i, j)) edges.emplace_back(i, j);
    }
  }
  return edges;
}

// ---------------------------------------------------------------------------
// The monitor adapter: the only code that knows which engine runs.

struct EngineWork {
  std::size_t edges_recomputed = 0;
  std::size_t input_tiles_repacked = 0;
  std::size_t severity_tiles_committed = 0;
};

class Monitor {
 public:
  Monitor(const DelayMatrix& base, const Workload& w, const Scale& scale,
          const std::string& scratch_dir)
      : stream_(base, w.estimator) {
    if (w.probe_samples > 0) prime();
    if (w.out_of_core) {
      tiv::stream::ShardStreamConfig cfg;
      cfg.tile_dim = scale.tile_dim;
      // Budgets floored at the pinned working set (3 input tiles per
      // worker plus a prefetch, one sink tile per reader), as in
      // bench_shard_stream, so no thread count can overshoot them.
      const std::size_t T = scale.tile_dim;
      const std::size_t in_tile = T * T * sizeof(float) +
                                  T * ((T + 63) / 64) * sizeof(std::uint64_t);
      const std::size_t threads = tiv::parallel_thread_count();
      cfg.input_budget_bytes =
          std::max(kInputBudget, (3 * threads + 2) * in_tile);
      cfg.output_budget_bytes =
          std::max(kSinkBudget, (threads + 1) * T * T * sizeof(float));
      const std::string stem = scratch_dir + "/tivbench_" +
                               std::to_string(::getpid());
      cfg.input_path = stem + "_in.tiles";
      cfg.sink_path = stem + "_sev.tiles";
      ooc_.emplace(stream_.matrix(), cfg);
    } else {
      mem_.emplace(stream_.matrix());
    }
  }

  void ingest(std::span<const DelaySample> batch) { stream_.ingest(batch); }
  tiv::stream::Epoch commit() { return stream_.commit_epoch(); }

  EngineWork apply(const tiv::stream::Epoch& epoch) {
    EngineWork w;
    if (ooc_) {
      const auto s = ooc_->apply_epoch(stream_.matrix(), epoch.dirty_hosts);
      w.edges_recomputed = s.edges_recomputed;
      w.input_tiles_repacked = s.input_tiles_repacked;
      w.severity_tiles_committed = s.severity_tiles_committed;
    } else {
      const auto s = mem_->apply_epoch(stream_.matrix(), epoch.dirty_hosts);
      w.edges_recomputed = s.edges_recomputed;
    }
    return w;
  }

  float severity(HostId a, HostId b) {
    return ooc_ ? ooc_->severity(a, b) : mem_->severities().at(a, b);
  }

  void severity_row(HostId a, std::span<float> out) {
    if (ooc_) {
      ooc_->severity_row(a, out);
      return;
    }
    const SeverityMatrix& s = mem_->severities();
    for (HostId b = 0; b < s.size(); ++b) out[b] = s.at(a, b);
  }

  const DelayMatrix& matrix() const { return stream_.matrix(); }

 private:
  /// Feeds every measured edge its current value, so each estimator starts
  /// at the edge's floor and the epochs after are clean unless a floor moves.
  void prime() {
    std::vector<DelaySample> batch;
    for (const auto& [a, b] : measured_edges(stream_.matrix())) {
      batch.push_back({a, b, stream_.matrix().at(a, b), -1.0});
    }
    stream_.ingest(batch);
    if (!stream_.commit_epoch().dirty_hosts.empty()) {
      throw std::logic_error("priming dirtied hosts");
    }
  }

  tiv::stream::DelayStream stream_;
  std::optional<tiv::stream::ShardStreamEngine> ooc_;
  std::optional<tiv::stream::IncrementalSeverity> mem_;
};

// ---------------------------------------------------------------------------
// Load generation: all randomness of the live loop, run outside the timers.

struct QueryMix {
  std::vector<std::pair<HostId, HostId>> points;
  std::vector<HostId> rows;
};

class LoadGen {
 public:
  LoadGen(const DelayMatrix& base, const Workload& w, const Scale& scale,
          std::uint64_t seed)
      : base_(base), w_(w), targets_(scale.targets), rng_(seed) {
    if (w.scenario == nullptr) {
      edges_ = measured_edges(base);
      floors_.reserve(edges_.size());
      for (const auto& [a, b] : edges_) floors_.push_back(base.at(a, b));
    }
  }

  /// The next epoch's samples, stamped with the generator's epoch clock
  /// (per-edge timestamps must never go backwards, and each scenario trace
  /// restarts its own clock at 0).
  std::vector<DelaySample> epoch() {
    const double t = clock_++;
    if (w_.scenario != nullptr) {
      if (next_ == trace_.epochs.size()) {
        tiv::scenario::ScenarioParams p;
        p.epochs = kScenarioEpochs;
        p.seed = rng_();
        p.max_targets = static_cast<std::uint32_t>(targets_);
        trace_ = tiv::scenario::generate_scenario(w_.scenario, base_, p);
        next_ = 0;
      }
      std::vector<DelaySample> batch = std::move(trace_.epochs[next_++].samples);
      for (DelaySample& s : batch) s.timestamp = t;
      return batch;
    }
    // The probe load. Its rates are assumptions, not taken from a trace: a
    // few floors drop (a route improved) and are seen at once; every other
    // probe reads the floor or a queueing-inflated value that the
    // windowed-min filter absorbs.
    std::vector<DelaySample> batch;
    batch.reserve(w_.probe_samples);
    for (std::size_t k = 0; k < w_.floor_drops; ++k) {
      const std::size_t e = rng_.uniform_index(edges_.size());
      floors_[e] *= 0.8f;
      batch.push_back({edges_[e].first, edges_[e].second, floors_[e], t});
    }
    while (batch.size() < w_.probe_samples) {
      const std::size_t e = rng_.uniform_index(edges_.size());
      float d = floors_[e];
      if (rng_.uniform() >= 0.7) d *= static_cast<float>(rng_.uniform(1.01, 1.5));
      batch.push_back({edges_[e].first, edges_[e].second, d, t});
    }
    return batch;
  }

  QueryMix queries() {
    QueryMix q;
    const HostId n = base_.size();
    while (q.points.size() < kPointReads) {
      const auto a = static_cast<HostId>(rng_.uniform_index(n));
      const auto b = static_cast<HostId>(rng_.uniform_index(n));
      if (a != b) q.points.emplace_back(a, b);
    }
    for (std::size_t k = 0; k < kRowReads; ++k) {
      q.rows.push_back(static_cast<HostId>(rng_.uniform_index(n)));
    }
    return q;
  }

 private:
  const DelayMatrix& base_;
  const Workload& w_;
  std::size_t targets_;
  Rng rng_;
  double clock_ = 0;
  tiv::scenario::DelayTrace trace_;  ///< scenario load only
  std::size_t next_ = 0;             ///< next epoch of trace_
  std::vector<std::pair<HostId, HostId>> edges_;  ///< probe load only
  std::vector<float> floors_;
};

// ---------------------------------------------------------------------------
// Measurement records

struct EpochRecord {
  double freshness_ms = 0;
  double ingest_ms = 0;
  double commit_ms = 0;
  double apply_ms = 0;
  bool traced = false;
  std::size_t samples = 0;
  std::size_t dirty_hosts = 0;
  std::size_t edges_touched = 0;
  EngineWork work;
};

struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  template <typename Fn>
  void run(Fn&& fn) {
    ++attempted;
    try {
      fn();
    } catch (const std::exception& e) {
      ++failed;
      std::cerr << "tivbench: operation failed: " << e.what() << "\n";
    }
  }
};

struct LoopResult {
  std::vector<EpochRecord> epochs;
  std::vector<double> point_us;  ///< per read, one value per timed group
  std::vector<double> row_us;
  double wall_ms = 0;
  double checksum = 0;  ///< keeps the reads observable
};

/// Runs closed-loop epochs, each followed by its query mix, until both
/// `count` epochs and `seconds` have passed. With `out`, the epochs and read
/// latencies are recorded; with a tracer, every other epoch runs with it
/// attached.
void run_epochs(Monitor& monitor, LoadGen& load, Ops& ops, ClockProbe& clock,
                std::size_t count, double seconds,
                tiv::obs::SpanTracer* tracer, LoopResult* out) {
  std::vector<float> row(monitor.matrix().size());
  const auto loop_t0 = Clock::now();
  double checksum = 0;
  for (std::size_t e = 0;; ++e) {
    const double elapsed_s = ms_between(loop_t0, Clock::now()) / 1e3;
    if (e >= count && elapsed_s >= seconds) break;
    const std::vector<DelaySample> batch = load.epoch();
    const QueryMix q = load.queries();
    clock.periodic();

    EpochRecord rec;
    rec.samples = batch.size();
    rec.traced = tracer != nullptr && e % 2 == 1;
    if (rec.traced) tiv::obs::SpanTracer::attach(tracer);
    ops.run([&] {
      const auto t0 = Clock::now();
      monitor.ingest(batch);
      const auto t1 = Clock::now();
      const tiv::stream::Epoch epoch = monitor.commit();
      const auto t2 = Clock::now();
      rec.work = monitor.apply(epoch);
      const auto t3 = Clock::now();
      rec.ingest_ms = ms_between(t0, t1);
      rec.commit_ms = ms_between(t1, t2);
      rec.apply_ms = ms_between(t2, t3);
      rec.freshness_ms = ms_between(t0, t3);
      rec.dirty_hosts = epoch.dirty_hosts.size();
      rec.edges_touched = epoch.stats.edges_touched;
    });
    if (rec.traced) tiv::obs::SpanTracer::attach(nullptr);

    for (std::size_t g = 0; g < q.points.size(); g += kPointGroup) {
      ops.run([&] {
        const auto t0 = Clock::now();
        for (std::size_t k = g; k < g + kPointGroup; ++k) {
          checksum += monitor.severity(q.points[k].first, q.points[k].second);
        }
        const auto t1 = Clock::now();
        if (out) out->point_us.push_back(ms_between(t0, t1) * 1e3 / kPointGroup);
      });
    }
    for (const HostId a : q.rows) {
      ops.run([&] {
        const auto t0 = Clock::now();
        monitor.severity_row(a, row);
        const auto t1 = Clock::now();
        checksum += row[a == 0 ? 1 : 0];
        if (out) out->row_us.push_back(ms_between(t0, t1) * 1e3);
      });
    }
    if (out) out->epochs.push_back(rec);
  }
  if (out) {
    out->wall_ms = ms_between(loop_t0, Clock::now());
    out->checksum = checksum;
  }
}

std::uint64_t counter(const tiv::obs::MetricsSnapshot& d, const char* name) {
  const auto it = d.counters.find(name);
  return it == d.counters.end() ? 0 : it->second;
}

struct JobResult {
  std::vector<double> job_s, topology_ms, routing_ms, hosts_ms, severities_ms,
      triangle_ms;
  double triangle_fraction = 0;
  bool identical = true;
  bool base_matches = true;
  std::uint64_t heap_pops = 0;
  std::uint64_t edges_relaxed = 0;
};

/// The figure pipelines' unit of work, run scale.jobs times on the DS^2
/// preset; every job must reproduce the first bit for bit.
JobResult run_jobs(const Workload& w, const Scale& scale,
                   const DelayMatrix& base, Ops& ops, ClockProbe& clock) {
  JobResult r;
  const auto params = ds2_params(scale.n);
  std::optional<SeverityMatrix> first;
  std::optional<double> first_fraction;
  auto& reg = tiv::obs::MetricsRegistry::instance();
  const auto snap0 = reg.snapshot();
  for (int j = 0; j < scale.jobs; ++j) {
    clock.sample();
    ops.run([&] {
      const auto t0 = Clock::now();
      const auto graph = tiv::topology::generate_topology(params.topology);
      const auto t1 = Clock::now();
      const tiv::routing::PolicyRoutingMatrix policy(graph);
      const auto t2 = Clock::now();
      const auto space =
          tiv::delayspace::generate_hosts_over(graph, policy, params.hosts);
      const auto t3 = Clock::now();
      const TivAnalyzer analyzer(space.measured);
      SeverityMatrix sev = analyzer.all_severities();
      const auto t4 = Clock::now();
      const double fraction = analyzer.violating_triangle_fraction();
      const auto t5 = Clock::now();
      r.topology_ms.push_back(ms_between(t0, t1));
      r.routing_ms.push_back(ms_between(t1, t2));
      r.hosts_ms.push_back(ms_between(t2, t3));
      r.severities_ms.push_back(ms_between(t3, t4));
      r.triangle_ms.push_back(ms_between(t4, t5));
      r.job_s.push_back(ms_between(t0, t5) / 1e3);
      if (w.ds2_base && !(space.measured == base)) r.base_matches = false;
      if (!first) {
        first = std::move(sev);
        first_fraction = fraction;
        return;
      }
      r.identical = r.identical && fraction == *first_fraction;
      for (HostId a = 0; a < scale.n && r.identical; ++a) {
        for (HostId b = 0; b < scale.n; ++b) {
          if (std::bit_cast<std::uint32_t>(sev.at(a, b)) !=
              std::bit_cast<std::uint32_t>(first->at(a, b))) {
            r.identical = false;
            break;
          }
        }
      }
    });
  }
  const auto d = reg.snapshot().delta_since(snap0);
  const std::uint64_t jobs = std::max<std::size_t>(1, r.job_s.size());
  r.heap_pops = counter(d, "routing.heap_pops") / jobs;
  r.edges_relaxed = counter(d, "routing.edges_relaxed") / jobs;
  r.triangle_fraction = first_fraction.value_or(0.0);
  r.identical = r.identical && r.job_s.size() == static_cast<std::size_t>(scale.jobs);
  return r;
}

/// Monitor severities vs a from-scratch all_severities, cells whose float
/// bits differ.
std::size_t bit_mismatches(Monitor& monitor) {
  const DelayMatrix& m = monitor.matrix();
  const SeverityMatrix want = TivAnalyzer(m).all_severities();
  std::vector<float> row(m.size());
  std::size_t bad = 0;
  for (HostId a = 0; a < m.size(); ++a) {
    monitor.severity_row(a, row);
    for (HostId b = 0; b < m.size(); ++b) {
      bad += std::bit_cast<std::uint32_t>(row[b]) !=
             std::bit_cast<std::uint32_t>(want.at(a, b));
    }
  }
  return bad;
}

// ---------------------------------------------------------------------------
// JSON output

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// The metrics clock-corrected (see ClockProbe): times scale by `scale`,
/// rates by its inverse, and counts and ratios stay.
std::vector<Metric> clock_corrected(std::vector<Metric> ms, double scale) {
  for (Metric& m : ms) {
    if (m.unit == "s" || m.unit == "ms" || m.unit == "us" || m.unit == "ns") {
      m.value *= scale;
    } else if (m.unit == "1/s" || m.unit == "Gop/s") {
      m.value /= scale;
    }
  }
  return ms;
}

std::string metrics_object(const std::vector<Metric>& ms, bool with_units) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) s += ",";
    s += "\"" + ms[i].name + "\":";
    s += with_units ? "{\"value\":" + num(ms[i].value) + ",\"unit\":\"" +
                          ms[i].unit + "\"}"
                    : num(ms[i].value);
  }
  return s + "}";
}


}  // namespace

int main(int argc, char** argv) {
  try {
    const tiv::Flags flags(argc, argv);
    const std::string name = flags.get_string("workload", "");
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    const double seconds = flags.get_double("seconds", 10.0);
    const std::string scratch = flags.get_string("dir", "build-bench/scratch");
    const std::string trace_dir = flags.get_string("trace", "");
    const bool smoke = flags.get_bool("smoke", false);
    tiv::reject_unknown_flags(flags);

    const Workload* found = nullptr;
    for (const Workload& w : kWorkloads) {
      if (name == w.name) found = &w;
    }
    if (found == nullptr) {
      throw std::invalid_argument("unknown --workload '" + name + "'");
    }
    const Workload& w = *found;
    Scale scale{w.n, 64, w.targets, 20, 100, seconds, 5};
    if (smoke) {
      scale = {128, 16, std::max<std::size_t>(1, w.targets * 128 / w.n),
               2, 10, 0.0, 2};
    }

    // Width n-1 leaves a core to the OS and the tile prefetch thread, so
    // they do not stall a pool job's slowest worker.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    tiv::set_parallel_thread_count(std::max(1u, hw - 1));
    std::filesystem::create_directories(scratch);

    const DelayMatrix base =
        w.ds2_base
            ? tiv::delayspace::generate_delay_space(ds2_params(scale.n))
                  .measured
            : uniform_matrix(scale.n, seed);
    const double base_triangle_fraction =
        TivAnalyzer(base).violating_triangle_fraction();

    Ops ops;
    ClockProbe clock;
    std::vector<double> setup_s;
    std::optional<Monitor> monitor;
    for (int k = 0; k < kSetups; ++k) {
      monitor.reset();
      clock.sample();
      const auto t0 = Clock::now();
      monitor.emplace(base, w, scale, scratch);
      setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    }

    // Salted so the load stream differs from the uniform base's stream.
    LoadGen load(base, w, scale, seed ^ 0x7469766265ull);
    run_epochs(*monitor, load, ops, clock, scale.warmup_epochs, 0.0, nullptr,
               nullptr);

    std::optional<tiv::obs::SpanTracer> tracer;
    if (!trace_dir.empty()) tracer.emplace(std::size_t{1} << 16);
    auto& reg = tiv::obs::MetricsRegistry::instance();
    const auto snap0 = reg.snapshot();
    LoopResult loop;
    run_epochs(*monitor, load, ops, clock, scale.min_epochs, scale.seconds,
               tracer ? &*tracer : nullptr, &loop);
    const auto d = reg.snapshot().delta_since(snap0);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    const std::size_t mismatches = bit_mismatches(*monitor);
    monitor.reset();
    const bool scratch_empty = std::filesystem::is_empty(scratch);

    const JobResult jobs = run_jobs(w, scale, base, ops, clock);

    // ---- end-to-end metrics
    const auto& E = loop.epochs;
    const double epochs = static_cast<double>(E.size());
    std::vector<double> fresh, ingest, commit, apply;
    std::vector<double> dirty, touched, recomputed, repacked, committed;
    double samples = 0;
    for (const EpochRecord& r : E) {
      fresh.push_back(r.freshness_ms);
      ingest.push_back(r.ingest_ms);
      commit.push_back(r.commit_ms);
      apply.push_back(r.apply_ms);
      dirty.push_back(static_cast<double>(r.dirty_hosts));
      touched.push_back(static_cast<double>(r.edges_touched));
      recomputed.push_back(static_cast<double>(r.work.edges_recomputed));
      repacked.push_back(static_cast<double>(r.work.input_tiles_repacked));
      committed.push_back(static_cast<double>(r.work.severity_tiles_committed));
      samples += static_cast<double>(r.samples);
    }
    // Timings are wall time here and clock-corrected below.
    const std::vector<Metric> wall = {
        {"setup_s", "s", quantile(setup_s, 0.5)},
        {"epoch_ms_p50", "ms", quantile(fresh, 0.5)},
        {"epoch_ms_p90", "ms", quantile(fresh, 0.9)},
        {"samples_per_s", "1/s", ratio(samples, sum(fresh) / 1e3)},
        {"query_us_p50", "us", quantile(loop.point_us, 0.5)},
        {"query_us_p90", "us", quantile(loop.point_us, 0.9)},
        {"row_us_p50", "us", quantile(loop.row_us, 0.5)},
        {"row_us_p90", "us", quantile(loop.row_us, 0.9)},
        {"job_s", "s", quantile(jobs.job_s, 0.5)},
        {"peak_rss_mb", "MB", peak_rss_mb},
    };
    const double clock_scale = clock.scale();
    const std::vector<Metric> end_to_end = clock_corrected(wall, clock_scale);

    // ---- per-layer metrics
    const double mb = 1024.0 * 1024.0;
    const double in_hits = static_cast<double>(counter(d, "cache.input.hits"));
    const double in_miss = static_cast<double>(counter(d, "cache.input.misses"));
    const double sk_hits = static_cast<double>(counter(d, "cache.sink.hits"));
    const double sk_miss = static_cast<double>(counter(d, "cache.sink.misses"));
    const double queries =
        static_cast<double>(loop.point_us.size() * kPointGroup + loop.row_us.size());
    const double threads = static_cast<double>(tiv::parallel_thread_count());
    const double n = static_cast<double>(scale.n);
    const double witness_ops = n * (n - 1) / 2 * n;

    // Span split over the traced epochs: the engine's phase spans against
    // the apply time measured around the call. The out-of-core engine wraps
    // its phases in an "epoch" span, so its split is checked: that span must
    // match the timed call within 1%. The in-memory engine records a single
    // "view-repair" span and no parent; its residual is the timed call minus
    // that span, which leaves nothing to check beyond dropped spans.
    double traced_fresh_p50 = 0, untraced_fresh_p50 = 0;
    double children_ms = 0, unattributed_ms = 0, unattributed_frac = 0;
    std::optional<bool> span_sum_ok;
    std::size_t spans_dropped = 0;
    std::vector<Metric> span_names;
    if (tracer) {
      std::vector<double> tf, uf;
      double traced_epochs = 0, traced_apply = 0;
      for (const EpochRecord& r : E) {
        (r.traced ? tf : uf).push_back(r.freshness_ms);
        if (r.traced) {
          traced_apply += r.apply_ms;
          traced_epochs += 1;
        }
      }
      traced_fresh_p50 = quantile(tf, 0.5);
      untraced_fresh_p50 = quantile(uf, 0.5);
      const auto span_ms = [&](const char* s) {
        return static_cast<double>(tracer->total_ns(s)) / 1e6;
      };
      double children = 0;
      for (const char* s :
           {"tile-repack", "band-pair-stream", "sink-commit", "view-repair"}) {
        children += span_ms(s);
      }
      double parent = traced_apply;
      if (w.out_of_core) {
        parent = span_ms("epoch");
        span_sum_ok = std::abs(parent - traced_apply) <= 0.01 * traced_apply;
      }
      const double unattributed = parent - children;
      spans_dropped = tracer->dropped();
      children_ms = ratio(children, traced_epochs);
      unattributed_ms = ratio(unattributed, traced_epochs);
      unattributed_frac = ratio(unattributed, traced_apply);
      for (const auto& [s, m] :
           {std::pair{"ingest", "span.ingest_ms"},
            std::pair{"epoch", "span.epoch_ms"},
            std::pair{"tile-repack", "span.tile_repack_ms"},
            std::pair{"band-pair-stream", "span.band_pair_stream_ms"},
            std::pair{"sink-commit", "span.sink_commit_ms"},
            std::pair{"view-repair", "span.view_repair_ms"}}) {
        span_names.push_back({m, "ms", ratio(span_ms(s), traced_epochs)});
      }
      std::filesystem::create_directories(trace_dir);
      std::ofstream out(trace_dir + "/" + w.name + "-s" +
                        std::to_string(seed) + ".trace.json");
      tracer->write_chrome_trace(out);
    }

    const std::vector<Metric> layers_wall = {
        {"stream.ingest_ms_p50", "ms", quantile(ingest, 0.5)},
        {"stream.ingest_ns_per_sample", "ns", ratio(sum(ingest) * 1e6, samples)},
        {"stream.commit_ms_p50", "ms", quantile(commit, 0.5)},
        {"stream.dirty_hosts_per_epoch", "count", quantile(dirty, 0.5)},
        {"stream.edges_touched_per_epoch", "count", quantile(touched, 0.5)},
        {"engine.apply_ms_p50", "ms", quantile(apply, 0.5)},
        {"engine.apply_ms_p90", "ms", quantile(apply, 0.9)},
        {"engine.edges_recomputed_per_epoch", "count", quantile(recomputed, 0.5)},
        {"engine.input_tiles_repacked_per_epoch", "count", quantile(repacked, 0.5)},
        {"engine.severity_tiles_committed_per_epoch", "count",
         quantile(committed, 0.5)},
        {"core.witness_ops_per_epoch", "count", quantile(recomputed, 0.5) * n},
        {"span.children_ms", "ms", children_ms},
        {"span.unattributed_ms", "ms", unattributed_ms},
        {"span.unattributed_frac", "ratio", unattributed_frac},
        {"cache.input.hit_ratio", "ratio", ratio(in_hits, in_hits + in_miss)},
        {"cache.input.misses_per_epoch", "count", ratio(in_miss, epochs)},
        {"cache.input.evictions_per_epoch", "count",
         ratio(static_cast<double>(counter(d, "cache.input.evictions")), epochs)},
        {"cache.input.prefetch_drops_per_epoch", "count",
         ratio(static_cast<double>(counter(d, "cache.input.prefetch_drops")),
               epochs)},
        {"shard.input.read_mb_per_epoch", "MB",
         ratio(static_cast<double>(counter(d, "shard.input.read_bytes")) / mb,
               epochs)},
        {"shard.input.write_mb_per_epoch", "MB",
         ratio(static_cast<double>(counter(d, "shard.input.write_bytes")) / mb,
               epochs)},
        {"cache.sink.hit_ratio", "ratio", ratio(sk_hits, sk_hits + sk_miss)},
        {"cache.sink.misses_per_query", "count", ratio(sk_miss, queries)},
        {"cache.sink.invalidations_per_epoch", "count",
         ratio(static_cast<double>(counter(d, "cache.sink.invalidations")),
               epochs)},
        {"shard.sink.read_mb_per_epoch", "MB",
         ratio(static_cast<double>(counter(d, "shard.sink.read_bytes")) / mb,
               epochs)},
        {"shard.sink.write_mb_per_epoch", "MB",
         ratio(static_cast<double>(counter(d, "shard.sink.write_bytes")) / mb,
               epochs)},
        {"core.all_severities_ms", "ms", quantile(jobs.severities_ms, 0.5)},
        {"core.witness_gops", "Gop/s",
         ratio(witness_ops / 1e9, quantile(jobs.severities_ms, 0.5) / 1e3)},
        {"core.triangle_fraction_ms", "ms", quantile(jobs.triangle_ms, 0.5)},
        {"delayspace.hosts_ms", "ms", quantile(jobs.hosts_ms, 0.5)},
        {"topology.generate_ms", "ms", quantile(jobs.topology_ms, 0.5)},
        {"routing.policy_matrix_ms", "ms", quantile(jobs.routing_ms, 0.5)},
        {"routing.heap_pops", "count", static_cast<double>(jobs.heap_pops)},
        {"routing.edges_relaxed", "count", static_cast<double>(jobs.edges_relaxed)},
        {"pool.idle_frac", "ratio",
         ratio(static_cast<double>(counter(d, "pool.idle_ns")) / 1e6,
               (threads - 1) * loop.wall_ms)},
        {"pool.jobs_per_epoch", "count",
         ratio(static_cast<double>(counter(d, "pool.jobs")), epochs)},
        {"trace.overhead_frac", "ratio",
         untraced_fresh_p50 > 0 ? traced_fresh_p50 / untraced_fresh_p50 - 1 : 0},
    };
    const std::vector<Metric> layers = clock_corrected(layers_wall, clock_scale);

    const std::uint64_t rejected = counter(d, "stream.samples_rejected");
    const bool correct = ops.failed == 0 && mismatches == 0 && scratch_empty &&
                         rejected == 0 && jobs.identical && jobs.base_matches &&
                         spans_dropped == 0 && span_sum_ok.value_or(true);

    std::vector<Metric> layer_report = layers_wall;
    layer_report.insert(layer_report.end(), span_names.begin(), span_names.end());
    layer_report = clock_corrected(layer_report, clock_scale);
    std::cout << "{\"workload\":\"" << w.name << "\",\"seed\":" << seed
              << ",\"smoke\":" << (smoke ? "true" : "false")
              << ",\"traced\":" << (tracer ? "true" : "false")
              << ",\"metrics\":" << metrics_object(end_to_end, false)
              << ",\"metrics_wall\":" << metrics_object(wall, false)
              << ",\"layers\":" << metrics_object(layer_report, false)
              << ",\"properties\":{\"hosts\":" << scale.n
              << ",\"tile_dim\":" << scale.tile_dim
              << ",\"threads\":" << tiv::parallel_thread_count()
              << ",\"hw_threads\":" << hw
              << ",\"epochs_measured\":" << E.size()
              << ",\"loop_wall_ms\":" << num(loop.wall_ms)
              << ",\"samples_per_epoch\":" << num(ratio(samples, epochs))
              << ",\"point_reads\":" << loop.point_us.size() * kPointGroup
              << ",\"row_reads\":" << loop.row_us.size()
              << ",\"jobs\":" << jobs.job_s.size()
              << ",\"violating_triangle_fraction\":" << num(base_triangle_fraction)
              << ",\"job_triangle_fraction\":" << num(jobs.triangle_fraction)
              << ",\"query_checksum\":" << num(loop.checksum)
              << ",\"clock_scale\":" << num(clock_scale)
              << ",\"probes\":" << clock.probe_ms().size()
              << ",\"probe_ms_p50\":" << num(quantile(clock.probe_ms(), 0.5))
              << ",\"probe_ms_min\":" << num(quantile(clock.probe_ms(), 0.0))
              << ",\"probe_ms_max\":" << num(quantile(clock.probe_ms(), 1.0))
              << "},\"checks\":{\"bit_mismatches\":" << mismatches
              << ",\"ops_failed\":" << ops.failed
              << ",\"samples_rejected\":" << rejected
              << ",\"scratch_empty\":" << (scratch_empty ? "true" : "false")
              << ",\"jobs_identical\":" << (jobs.identical ? "true" : "false")
              << ",\"base_matches_job\":" << (jobs.base_matches ? "true" : "false")
              << ",\"spans_dropped\":" << spans_dropped;
    if (span_sum_ok) {
      std::cout << ",\"span_sum_within_1pct\":" << (*span_sum_ok ? "true" : "false");
    }
    std::cout << "}}\n";
    std::cout << "{\"correct\":" << (correct ? "true" : "false")
              << ",\"attempted\":" << ops.attempted
              << ",\"failed\":" << ops.failed << ",\"metrics\":"
              << metrics_object(tracer ? layers : end_to_end, true) << "}"
              << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "tivbench: " << e.what() << "\n";
    return 2;
  }
}
