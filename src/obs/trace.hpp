// Epoch span tracing — bounded-ring phase timing for the live pipeline
// (docs/OBSERVABILITY.md).
//
// A Span is an RAII phase marker: construction stamps a steady-clock
// start, destruction records (name, thread, start, duration) into the
// attached SpanTracer's ring buffer. The instrumented phase names are the
// pipeline's stages:
//
//   epoch                 one SeverityEngine::apply_epoch on the tile store
//   ├─ ingest             DelayStream::ingest(batch)   (precedes the epoch)
//   ├─ view-repair        one SeverityEngine::apply_epoch on the in-memory
//   │  │                  store (screen, view repack and repair)
//   │  ├─ epoch-screen    the screen's diff of the dirty view rows
//   │  └─ edge-repair     the flagged-edge repair loop over the view's rows
//   ├─ epoch-screen       pre-epoch dirty rows read and diffed, edges flagged
//   ├─ epoch-journal      journal record planning and write
//   ├─ tile-repack        changed input tiles rewritten in place
//   ├─ band-pair-stream   the streaming severity driver (build or repair)
//   │  ├─ edge-repair     repair: flagged edges over rows packed from the
//   │  │                  live matrix (one per host group)
//   │  └─ sink-merge      repair: flagged edges merged into their sink tiles
//   └─ sink-commit        rewritten tiles' cache invalidation + record clear
//   recovery-action       one heal (tile rebuild/repack) or replay
//
// Attachment mirrors shard::FaultInjector: a process-global tracer pointer,
// null by default — a detached Span costs one null test and no clock
// reads. Ring slots are claimed with a relaxed fetch_add, so spans from
// pool workers record concurrently; when the ring wraps, the oldest spans
// are overwritten (dropped() reports how many).
//
// The buffer dumps as Chrome trace_event JSON (write_chrome_trace) loadable
// in about://tracing or https://ui.perfetto.dev — nested spans on one
// thread render as a flame graph because RAII guarantees containment.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/metrics.hpp"

namespace tiv::obs {

struct TraceEvent {
  const char* name = "";   ///< phase name; must outlive the tracer (literals)
  std::uint32_t tid = 0;   ///< dense per-thread ordinal (not the OS tid)
  std::uint64_t start_ns = 0;  ///< steady clock, process-relative
  std::uint64_t dur_ns = 0;
};

class SpanTracer {
 public:
  /// `capacity` is rounded up to a power of two (slot index = claim mod
  /// capacity with one multiply-free mask).
  explicit SpanTracer(std::size_t capacity = 1 << 14);

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;
  ~SpanTracer();

  /// Records one completed span. Thread-safe, wait-free (one fetch_add).
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns);

  std::size_t capacity() const { return ring_.size(); }
  /// Total record() calls (including overwritten ones).
  std::uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  /// Spans lost to ring wraparound.
  std::uint64_t dropped() const {
    const auto n = recorded();
    return n > ring_.size() ? n - ring_.size() : 0;
  }

  /// Sum of durations of retained spans named `name` (C-string compare).
  /// Readers are valid once writers have quiesced (between epochs / after
  /// a run): concurrent record() calls may tear the slots they overwrite.
  std::uint64_t total_ns(const char* name) const {
    return sum(name, 0, /*clamp=*/true).ns;
  }
  /// Number of retained spans named `name`.
  std::size_t count(const char* name) const {
    return sum(name, 0, /*clamp=*/true).count;
  }

  /// The same over the spans claimed at or after `since`, a recorded()
  /// mark taken earlier: exactly the spans recorded in between, wrap or
  /// not. Walks those slots in place, so a per-epoch reader costs O(spans
  /// in the epoch). Throws std::out_of_range when any of them has been
  /// overwritten (more than capacity() since the mark).
  std::uint64_t total_ns(const char* name, std::uint64_t since) const {
    return sum(name, since, /*clamp=*/false).ns;
  }
  std::size_t count(const char* name, std::uint64_t since) const {
    return sum(name, since, /*clamp=*/false).count;
  }

  /// Forgets all recorded spans. Caller must ensure no concurrent record().
  void clear() { next_.store(0, std::memory_order_relaxed); }

  /// Dumps the retained spans, oldest first, as a Chrome trace_event JSON
  /// document ({"traceEvents":[...]}; "X" complete events, microsecond
  /// timestamps) for about://tracing / Perfetto.
  void write_chrome_trace(std::ostream& out) const;

  /// Attaches `tracer` as the process-global span sink (nullptr detaches).
  /// Spans already open keep the tracer they captured at construction, so
  /// detach only when the pipeline is quiescent.
  static void attach(SpanTracer* tracer) {
    current_.store(tracer, std::memory_order_release);
  }
  static SpanTracer* current() {
    return current_.load(std::memory_order_acquire);
  }

  /// Steady-clock nanoseconds relative to the first use in this process.
  static std::uint64_t now_ns();
  /// Dense ordinal of the calling thread (stable for the thread's life).
  static std::uint32_t thread_ordinal();

 private:
  struct Sum {
    std::uint64_t ns = 0;
    std::size_t count = 0;
  };
  /// Spans named `name` claimed at or after `since`; an overwritten
  /// `since` is raised to the oldest retained span when `clamp`, else
  /// throws std::out_of_range.
  Sum sum(const char* name, std::uint64_t since, bool clamp) const;

  static std::atomic<SpanTracer*> current_;

  std::vector<TraceEvent> ring_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> next_{0};
};

/// RAII phase span. Captures the attached tracer at construction (so an
/// attach/detach mid-span is safe) and records on destruction.
class Span {
 public:
  explicit Span(const char* name)
      : tracer_(SpanTracer::current()), name_(name) {
    if (tracer_ != nullptr) start_ns_ = SpanTracer::now_ns();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->record(name_, start_ns_, SpanTracer::now_ns());
    }
  }

 private:
  SpanTracer* tracer_ = nullptr;
  const char* name_ = "";
  std::uint64_t start_ns_ = 0;
};

}  // namespace tiv::obs
