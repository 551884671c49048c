#include "shard/fault_injector.hpp"

#include "obs/metrics.hpp"

namespace tiv::shard {
namespace {

// Injection telemetry: process-wide counts across all injectors, so a soak
// run's metrics snapshot shows what was thrown at the storage layer
// alongside what the recovery layer absorbed. Per-instance counts stay in
// FaultInjector::stats().
obs::Counter& injected(const char* name) {
  return obs::MetricsRegistry::instance().counter(name);
}
obs::Counter& injected_bitflips() {
  static obs::Counter& c = injected("fault.injected_bitflips");
  return c;
}
obs::Counter& injected_eio() {
  static obs::Counter& c = injected("fault.injected_eio");
  return c;
}
obs::Counter& injected_torn_writes() {
  static obs::Counter& c = injected("fault.injected_torn_writes");
  return c;
}
obs::Counter& injected_commit_fails() {
  static obs::Counter& c = injected("fault.injected_commit_fails");
  return c;
}

/// splitmix64 finalizer — the standard 64-bit avalanche.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits.
double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjector::FaultInjector(const Config& config) : config_(config) {
  // Registered up front, so a snapshot lists every kind before it fires.
  injected_bitflips();
  injected_eio();
  injected_torn_writes();
  injected_commit_fails();
}

std::uint64_t FaultInjector::mix(std::uint64_t n) const {
  return splitmix64(config_.seed ^ splitmix64(n));
}

void FaultInjector::before_read() {
  const std::uint64_t n = reads_.fetch_add(1, std::memory_order_relaxed);
  if (config_.eio_read_rate > 0.0 &&
      to_unit(mix(n ^ 0xe10ull)) < config_.eio_read_rate) {
    eio_errors_.fetch_add(1, std::memory_order_relaxed);
    injected_eio().increment();
    throw InjectedIoError("FaultInjector: injected EIO on tile read");
  }
}

bool FaultInjector::corrupt_read(std::size_t bytes, std::size_t* byte_index,
                                 unsigned* bit) {
  if (bytes == 0) return false;
  // reads_ was already bumped by before_read; the ordinal of THIS read is
  // the pre-bump value, recovered without a second counter.
  const std::uint64_t n = reads_.load(std::memory_order_relaxed) - 1;
  bool flip = false;
  if (config_.bitflip_every_kth_read > 0) {
    flip = (n + 1) % config_.bitflip_every_kth_read == 0;
  }
  if (!flip && config_.bitflip_read_rate > 0.0) {
    flip = to_unit(mix(n ^ 0xf11ull)) < config_.bitflip_read_rate;
  }
  if (!flip) return false;
  const std::uint64_t h = mix(n ^ 0x0b17ull);
  *byte_index = static_cast<std::size_t>(h % bytes);
  *bit = static_cast<unsigned>((h >> 32) & 7);
  bitflips_.fetch_add(1, std::memory_order_relaxed);
  injected_bitflips().increment();
  return true;
}

WriteFault FaultInjector::on_write() {
  const std::uint64_t n = writes_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (config_.torn_write_at_commit != 0 &&
      n == config_.torn_write_at_commit) {
    torn_writes_.fetch_add(1, std::memory_order_relaxed);
    injected_torn_writes().increment();
    return WriteFault::kTornWrite;
  }
  if (config_.fail_at_commit != 0 && n == config_.fail_at_commit) {
    commit_fails_.fetch_add(1, std::memory_order_relaxed);
    injected_commit_fails().increment();
    return WriteFault::kFailBeforeChecksum;
  }
  return WriteFault::kNone;
}

FaultInjector::Stats FaultInjector::stats() const {
  Stats s;
  s.reads = reads_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.bitflips = bitflips_.load(std::memory_order_relaxed);
  s.eio_errors = eio_errors_.load(std::memory_order_relaxed);
  s.torn_writes = torn_writes_.load(std::memory_order_relaxed);
  s.commit_fails = commit_fails_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace tiv::shard
