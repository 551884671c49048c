#include "obs/trace.hpp"

#include <bit>
#include <chrono>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <string>

namespace tiv::obs {
namespace {

/// Nanoseconds as exact microseconds, three decimals (Chrome's ts/dur
/// unit). A default-precision double keeps six significant digits, which
/// rounds timestamps past 1 s of process time to 10 us or coarser and
/// breaks the nesting of short spans.
void write_us(std::ostream& out, std::uint64_t ns) {
  const char frac[4] = {static_cast<char>('0' + ns / 100 % 10),
                        static_cast<char>('0' + ns / 10 % 10),
                        static_cast<char>('0' + ns % 10), '\0'};
  out << ns / 1000 << '.' << frac;
}

}  // namespace

std::atomic<SpanTracer*> SpanTracer::current_{nullptr};

std::uint64_t SpanTracer::now_ns() {
  using clock = std::chrono::steady_clock;
  // Process-relative epoch so trace timestamps start near zero (Chrome's
  // viewer handles absolute steady-clock values, but small numbers keep
  // the JSON compact and the timeline readable).
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           epoch)
          .count());
}

std::uint32_t SpanTracer::thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ord =
      next.fetch_add(1, std::memory_order_relaxed);
  return ord;
}

SpanTracer::SpanTracer(std::size_t capacity) {
  const std::size_t cap = std::bit_ceil(capacity == 0 ? 1 : capacity);
  ring_.resize(cap);
  mask_ = cap - 1;
}

SpanTracer::~SpanTracer() {
  // Self-detach so a tracer destroyed while attached cannot dangle.
  SpanTracer* self = this;
  current_.compare_exchange_strong(self, nullptr,
                                   std::memory_order_acq_rel);
}

void SpanTracer::record(const char* name, std::uint64_t start_ns,
                        std::uint64_t end_ns) {
  const std::uint64_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  TraceEvent& e = ring_[slot & mask_];
  e.name = name;
  e.tid = thread_ordinal();
  e.start_ns = start_ns;
  e.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
}

SpanTracer::Sum SpanTracer::sum(const char* name, std::uint64_t since,
                                bool clamp) const {
  const std::uint64_t n = recorded();
  const std::uint64_t first = n > ring_.size() ? n - ring_.size() : 0;
  if (since < first) {
    if (!clamp) {
      throw std::out_of_range(
          "SpanTracer: " + std::to_string(first - since) +
          " span(s) since the mark were overwritten (ring capacity " +
          std::to_string(ring_.size()) + ")");
    }
    since = first;
  }
  Sum s;
  for (std::uint64_t i = since; i < n; ++i) {
    const TraceEvent& e = ring_[i & mask_];
    if (e.name == name || std::strcmp(e.name, name) == 0) {
      s.ns += e.dur_ns;
      ++s.count;
    }
  }
  return s;
}

void SpanTracer::write_chrome_trace(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // Oldest retained slot first: when wrapped, that is slot `n mod cap`
  // (the slot the next record would overwrite).
  const std::uint64_t n = recorded();
  const std::uint64_t first = n > ring_.size() ? n - ring_.size() : 0;
  for (std::uint64_t i = first; i < n; ++i) {
    const TraceEvent& e = ring_[i & mask_];
    if (i != first) out << ",\n";
    // Complete ("X") events; ts/dur are microseconds.
    out << "{\"name\":\"" << e.name
        << "\",\"cat\":\"tiv\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
        << ",\"ts\":";
    write_us(out, e.start_ns);
    out << ",\"dur\":";
    write_us(out, e.dur_ns);
    out << "}";
  }
  out << "]}\n";
}

}  // namespace tiv::obs
