// Deterministic seeded trace generators — the scenario families the
// quality observatory scores detection against.
//
// Each family perturbs a handful of measured edges of a base matrix over a
// fixed number of epochs, writing the exact ground-truth delay into the
// trace's truth stream and a noisy measurement into the sample stream (see
// trace.hpp for the two-stream contract). Generation is a pure function of
// (family, base, params): the same inputs produce a byte-identical trace
// file, which is what lets test_scenario pin detection counts as exact
// numbers instead of noisy estimates.
//
// Families (ROADMAP "Scenario engine" item; WangZN07 §4-5 dynamics):
//   diurnal_drift     every target edge swells and relaxes on a smooth
//                     sinusoid with a random phase — the daily load cycle.
//   correlated_links  a cut between two host groups inflates all crossing
//                     edges together for a window — one congested link
//                     shared by many overlay paths.
//   flash_crowd       one hotspot host's edges ramp up geometrically, hold
//                     at peak, then decay — a flash-crowd arrival.
//   partition_heal    cross edges of a host subset go dark (loss reports)
//                     and later heal — a partition and its repair.
//   oscillation       targets alternate base/inflated on a square wave —
//                     the paper's Fig. 11 severity-oscillation trace.
#pragma once

#include <string>
#include <vector>

#include "scenario/trace.hpp"

namespace tiv::scenario {

struct ScenarioParams {
  std::uint32_t epochs = 16;
  std::uint64_t seed = 1;

  /// Fraction of measured edges each family perturbs (before the cap).
  double target_fraction = 0.02;
  std::uint32_t max_targets = 64;

  /// Multiplicative measurement noise: each sample reports
  /// truth * uniform(1 - noise, 1 + noise). This is the monitor's handicap
  /// — the gap precision/recall measures.
  double measurement_noise = 0.08;

  /// Peak delay multiplier on perturbed edges. Must be > 1 to create
  /// violations worth detecting.
  double inflation = 6.0;

  /// Event window for the windowed families (correlated_links,
  /// partition_heal, flash_crowd onset/decay), as fractions of `epochs`.
  double onset_fraction = 0.25;
  double clear_fraction = 0.65;

  /// Square-wave half period in epochs (oscillation).
  std::uint32_t oscillation_half_period = 2;
};

/// The registered family names, in canonical order.
const std::vector<std::string>& scenario_families();

bool is_scenario_family(const std::string& name);

/// Generates a trace of `family` over `base`. Throws std::invalid_argument
/// for an unknown family, epochs == 0, inflation <= 1, or a base matrix
/// with no positive measured edge to perturb.
DelayTrace generate_scenario(const std::string& family,
                             const DelayMatrix& base,
                             const ScenarioParams& params = {});

}  // namespace tiv::scenario
