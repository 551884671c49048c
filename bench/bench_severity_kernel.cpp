// Severity-engine kernel benchmark: scalar reference vs. the blocked,
// branch-free kernel, across matrix sizes and thread counts, plus the
// witness-body leg (the compiled witness_ratio_accumulate against its
// portable body) and a measured divide-throughput ceiling.
//
// Emits a BenchReport JSON array (meta envelope first) so future PRs can
// track the trajectory:
//   [{"section":"meta","schema_version":1,"bench":"bench_severity_kernel",...},
//    {"section":"kernel","n":1024,"threads":1,"missing_fraction":0.1,
//     "scalar_ms":..., "blocked_ms":..., "speedup":..., "max_rel_err":...,
//     "witness_ops":..., "bytes_touched":..., "gops_per_s":..., "gb_per_s":...},
//    ...,
//    {"section":"calibration","div_ceiling_gdiv_s":...},
//    {"section":"kernel_isa","series":"ds2","n":512,"threads":1,
//     "kernel_isa":"avx512","masked_ms":...,"portable_ms":...,
//     "masked_vs_portable":...,"violators_per_witness":...,
//     "fraction_of_ceiling":...,"bit_mismatches":0},
//    ...]
//
// The roofline fields are algorithmic, not cache-measured: the severity
// kernel examines every witness k for every pair (i,j), so
//   witness_ops   = C(n,2) * n        (pair-witness relaxations)
//   bytes_touched = witness_ops * 8   (two float loads per relaxation)
// and gb_per_s / gops_per_s divide those by the measured blocked_ms. They
// make the ROADMAP's bandwidth-vs-compute positioning machine-checkable
// without hardware counters.
//
// The witness-body leg sweeps every measured pair (a, c) of a packed view
// through witness_ratio_accumulate (masked_ms: the body this build
// compiles, named by kernel_isa) and through
// witness_ratio_accumulate_portable (portable_ms), one thread, on the DS^2
// preset ("series":"ds2") and on the uniform matrix ("series":"uniform").
// masked_vs_portable = portable_ms / masked_ms from the same run;
// violators_per_witness is the share of scanned (pair, witness) slots that
// violate; bit_mismatches counts pairs whose 8 accumulator lanes differ in
// any bit between the two bodies. The calibration record's
// div_ceiling_gdiv_s is this box's double-divide throughput (independent
// divides of L1-resident operands), and fraction_of_ceiling is the masked
// sweep's violator divides per second over it.
//
// Exit status is nonzero when a kernel record's max_rel_err exceeds 1e-6,
// when any witness-body record has bit_mismatches > 0, or when an
// "avx512" build's DS^2 masked_vs_portable falls below 1.6 (3.2 at n=1024
// on one Sapphire Rapids core).
//
// Flags:
//   --quick        n in {256, 512} only, 1 repetition; witness-body leg at
//                  n = 512 only (CI smoke run)
//   --threads=T    benchmark only thread count T (default: 1, 2, 4, hw)
//   --missing=F    missing-entry fraction of the synthetic matrix (default
//                  0.1; the mask trick means it barely matters)
//   --seed=S       RNG seed for the synthetic matrix
//
// The kernel records use synthetic uniform-random RTTs rather than a
// generated delay space: their cost depends only on n and the missing
// pattern, and this keeps the 2048-host case cheap to set up. The
// witness-body leg adds the DS^2 preset because the masked body's cost
// depends on violation density, which uniform RTTs overstate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/severity.hpp"
#include "core/witness_kernels.hpp"
#include "delayspace/delay_matrix.hpp"
#include "delayspace/generate.hpp"
#include "reference/oracles.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using tiv::core::kWitnessLanes;
using tiv::core::SeverityMatrix;
using tiv::core::TivAnalyzer;
using tiv::delayspace::DelayMatrix;
using tiv::delayspace::DelayMatrixView;
using tiv::delayspace::HostId;

using tiv::bench::random_matrix;
using tiv::bench::repeat_ms;
using tiv::bench::Timing;

double max_rel_err(const SeverityMatrix& got, const SeverityMatrix& want) {
  double worst = 0.0;
  const HostId n = got.size();
  for (HostId i = 0; i < n; ++i) {
    for (HostId j = i + 1; j < n; ++j) {
      const double g = got.at(i, j);
      const double w = want.at(i, j);
      const double scale = std::max({1.0, std::abs(g), std::abs(w)});
      worst = std::max(worst, std::abs(g - w) / scale);
    }
  }
  return worst;
}

/// Double divides per second of this box, in 1e9/s: best of 5 timed runs
/// of 2^21 divides into 32 independent accumulators over an L1-resident
/// divisor array. The numerator changes every pass, so no divide can be
/// hoisted out of the pass loop.
double div_ceiling_gdiv_s() {
  constexpr std::size_t kDivisors = 1024;
  constexpr std::size_t kAccs = 32;
  constexpr int kPasses = 2048;
  std::vector<double> den(kDivisors);
  for (std::size_t i = 0; i < kDivisors; ++i) {
    den[i] = 1.0 + static_cast<double>(i) * 0x1p-10;
  }
  volatile double sink = 0.0;
  const double ms = tiv::bench::best_ms(5, [&] {
    // Function-local lanes: accumulating through a captured array keeps
    // every lane in memory and the divides scalar.
    double acc[kAccs] = {};
    for (int p = 0; p < kPasses; ++p) {
      const double num = 1.0 + static_cast<double>(p);
      for (std::size_t i = 0; i < kDivisors; i += kAccs) {
        for (std::size_t l = 0; l < kAccs; ++l) acc[l] += num / den[i + l];
      }
    }
    for (const double a : acc) sink = sink + a;
  });
  const double divides = static_cast<double>(kPasses) * kDivisors;
  return ms > 0.0 ? divides / (ms / 1e3) / 1e9 : 0.0;
}

/// Runs body(ra, rc, stride, dac, lanes) over every measured pair a < c of
/// the view in all_severities' order (16x16 tiles of (a, c), so a tile's
/// rows stay cache-resident) and stores each reduced ratio sum in out, so
/// the work cannot be optimized away.
template <class Body>
void witness_sweep(const DelayMatrixView& v, std::vector<double>& out,
                   Body body) {
  constexpr HostId kTile = 16;
  const HostId n = v.size();
  std::size_t e = 0;
  for (HostId a0 = 0; a0 < n; a0 += kTile) {
    for (HostId c0 = a0; c0 < n; c0 += kTile) {
      for (HostId a = a0; a < std::min<HostId>(a0 + kTile, n); ++a) {
        for (HostId c = std::max<HostId>(c0, a + 1);
             c < std::min<HostId>(c0 + kTile, n); ++c) {
          const float dac = v.row(a)[c];
          if (dac >= DelayMatrixView::kMaskedDelay) continue;
          double lanes[kWitnessLanes] = {};
          body(v.row(a), v.row(c), v.stride(), dac, lanes);
          out[e++] = tiv::core::witness_ratio_reduce(lanes);
        }
      }
    }
  }
}

/// One witness-body record's measurements.
struct BodyLeg {
  double masked_ms = 0.0;
  double portable_ms = 0.0;
  std::uint64_t witnesses = 0;  // (pair, witness) slots scanned per sweep
  std::uint64_t violators = 0;
  std::uint64_t bit_mismatches = 0;
};

/// Times the compiled and portable witness bodies over the view's pairs,
/// interleaved, best of reps each; then, untimed, counts violators and
/// compares the two bodies' accumulator lanes bit for bit on every pair.
BodyLeg measure_bodies(const DelayMatrix& m, int reps) {
  const DelayMatrixView v(m);
  const HostId n = v.size();
  BodyLeg leg;
  std::size_t pairs = 0;
  for (HostId a = 0; a < n; ++a) {
    for (HostId c = a + 1; c < n; ++c) {
      const float dac = v.row(a)[c];
      if (dac >= DelayMatrixView::kMaskedDelay) continue;
      ++pairs;
      leg.violators +=
          tiv::core::witness_violation_minmax(v.row(a), v.row(c), v.stride(),
                                              dac)
              .count;
      double masked[kWitnessLanes] = {};
      double portable[kWitnessLanes] = {};
      tiv::core::witness_ratio_accumulate(v.row(a), v.row(c), v.stride(),
                                          dac, masked);
      tiv::core::witness_ratio_accumulate_portable(v.row(a), v.row(c),
                                                   v.stride(), dac, portable);
      leg.bit_mismatches +=
          std::memcmp(masked, portable, sizeof masked) != 0 ? 1 : 0;
    }
  }
  leg.witnesses = pairs * v.stride();
  std::vector<double> out(pairs);
  leg.masked_ms = 1e300;
  leg.portable_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    leg.masked_ms = std::min(leg.masked_ms, tiv::bench::time_ms([&] {
      witness_sweep(v, out, [](auto... args) {
        tiv::core::witness_ratio_accumulate(args...);
      });
    }));
    leg.portable_ms = std::min(leg.portable_ms, tiv::bench::time_ms([&] {
      witness_sweep(v, out, [](auto... args) {
        tiv::core::witness_ratio_accumulate_portable(args...);
      });
    }));
  }
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  const tiv::Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const double missing = flags.get_double("missing", 0.1);
  const auto only_threads = flags.get_int("threads", 0);
  tiv::reject_unknown_flags(flags);

  std::vector<HostId> sizes =
      quick ? std::vector<HostId>{256, 512}
            : std::vector<HostId>{256, 512, 1024, 2048};
  std::vector<std::size_t> thread_counts;
  if (only_threads > 0) {
    thread_counts.push_back(static_cast<std::size_t>(only_threads));
  } else {
    thread_counts = {1, 2, 4};
    const std::size_t hw = std::thread::hardware_concurrency();
    if (hw > 4) thread_counts.push_back(hw);
  }

  bool ok = true;
  tiv::bench::BenchConfig cfg;
  cfg.seed = seed;
  tiv::bench::BenchReport json(std::cout, "bench_severity_kernel");
  json.meta(cfg)
      .field("missing_fraction", missing, 3)
      .field_bool("quick", quick)
      .field("max_n", sizes.back());
  for (const HostId n : sizes) {
    const DelayMatrix m = random_matrix(n, missing, seed);
    const TivAnalyzer analyzer(m);
    const int reps = quick ? 1 : (n >= 2048 ? 2 : 3);

    // Scalar baseline is always single-threaded: it is the seed kernel's
    // per-core cost, the denominator of every speedup below.
    tiv::set_parallel_thread_count(1);
    SeverityMatrix ref;
    const Timing scalar = repeat_ms(
        reps, [&] { ref = tiv::reference::all_severities_reference(m); });

    // Algorithmic roofline: every pair (i,j) relaxes through every
    // witness k, two float loads per relaxation.
    const double witness_ops = static_cast<double>(n) *
                               static_cast<double>(n - 1) / 2.0 *
                               static_cast<double>(n);
    const double bytes_touched = witness_ops * 8.0;

    for (const std::size_t threads : thread_counts) {
      tiv::set_parallel_thread_count(threads);
      SeverityMatrix blocked;
      const Timing t =
          repeat_ms(reps, [&] { blocked = analyzer.all_severities(); });
      const double err = max_rel_err(blocked, ref);
      const double secs = t.best_ms / 1e3;
      json.object()
          .field("section", std::string("kernel"))
          .field("n", n)
          .field("threads", threads)
          .field("missing_fraction", missing, 3)
          .field("reps", reps)
          .field("scalar_ms", scalar.best_ms, 3)
          .field("scalar_ms_spread", scalar.spread, 3)
          .field("blocked_ms", t.best_ms, 3)
          .field("blocked_ms_mean", t.mean_ms, 3)
          .field("blocked_ms_spread", t.spread, 3)
          .field("speedup", scalar.best_ms / t.best_ms, 3)
          .field_sig("max_rel_err", err, 3)
          .field("witness_ops", static_cast<std::uint64_t>(witness_ops))
          .field("bytes_touched", static_cast<std::uint64_t>(bytes_touched))
          .field_sig("gops_per_s", secs > 0 ? witness_ops / secs / 1e9 : 0.0,
                     4)
          .field_sig("gb_per_s", secs > 0 ? bytes_touched / secs / 1e9 : 0.0,
                     4);
      if (!(err <= 1e-6)) ok = false;
    }
  }
  tiv::set_parallel_thread_count(0);

  const double ceiling = div_ceiling_gdiv_s();
  json.object()
      .field("section", std::string("calibration"))
      .field("kernel_isa", std::string(tiv::core::kWitnessKernelIsa))
      .field_sig("div_ceiling_gdiv_s", ceiling, 4);
  const bool avx512 = std::string(tiv::core::kWitnessKernelIsa) == "avx512";
  const std::vector<HostId> body_sizes =
      quick ? std::vector<HostId>{512} : std::vector<HostId>{512, 1024};
  for (const HostId n : body_sizes) {
    for (const bool ds2 : {true, false}) {
      const DelayMatrix m =
          ds2 ? tiv::delayspace::generate_delay_space(
                    tiv::delayspace::dataset_params(
                        tiv::delayspace::DatasetId::kDs2, n))
                    .measured
              : random_matrix(n, missing, seed);
      const BodyLeg leg = measure_bodies(m, quick ? 3 : 5);
      const double ratio = leg.portable_ms / leg.masked_ms;
      const double violators_per_s = leg.violators / (leg.masked_ms / 1e3);
      auto rec = json.object();
      rec.field("section", std::string("kernel_isa"))
          .field("series", std::string(ds2 ? "ds2" : "uniform"))
          .field("n", n)
          .field("threads", 1);
      if (!ds2) rec.field("missing_fraction", missing, 3);
      rec.field("kernel_isa", std::string(tiv::core::kWitnessKernelIsa))
          .field("masked_ms", leg.masked_ms, 3)
          .field("portable_ms", leg.portable_ms, 3)
          .field("masked_vs_portable", ratio, 3)
          .field_sig("violators_per_witness",
                     static_cast<double>(leg.violators) /
                         static_cast<double>(leg.witnesses),
                     4)
          .field_sig("fraction_of_ceiling",
                     ceiling > 0 ? violators_per_s / (ceiling * 1e9) : 0.0, 4)
          .field("bit_mismatches", leg.bit_mismatches);
      if (leg.bit_mismatches != 0) ok = false;
      if (avx512 && ds2 && ratio < 1.6) ok = false;
    }
  }
  return ok ? 0 : 1;
}
