// Epoch span tracing — bounded-ring phase timing for the live pipeline
// (docs/OBSERVABILITY.md).
//
// A Span is an RAII phase marker: construction stamps a steady-clock
// start, destruction records (name, thread, start, duration) into the
// attached SpanTracer's ring buffer. The instrumented phase names are the
// pipeline's stages:
//
//   epoch                 one ShardStreamEngine::apply_epoch call
//   ├─ ingest             DelayStream::ingest(batch)   (precedes the epoch)
//   ├─ view-repair        IncrementalSeverity view repair (in-memory path)
//   │  ├─ epoch-screen    the screen's diff of the dirty view rows
//   │  └─ edge-repair     the flagged-edge repair loop over the view's rows
//   ├─ epoch-screen       pre-epoch dirty rows read and diffed, edges flagged
//   ├─ epoch-journal      manifest planning and write
//   ├─ tile-repack        dirty input tiles rewritten in place
//   ├─ band-pair-stream   the streaming severity driver (build or repair)
//   │  ├─ edge-repair     repair: flagged edges over rows packed from the
//   │  │                  live matrix (one per host group)
//   │  └─ sink-merge      repair: flagged edges merged into their sink tiles
//   └─ sink-commit        rewritten tiles' cache invalidation + manifest clear
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

#include <array>
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

  /// The retained spans, oldest first. Valid once writers have quiesced
  /// (between epochs / after a run) — concurrent record() calls may tear
  /// the slots they are overwriting.
  std::vector<TraceEvent> events() const;

  /// Sum of durations of retained spans named `name` (C-string compare).
  std::uint64_t total_ns(const char* name) const;
  /// Number of retained spans named `name`.
  std::size_t count(const char* name) const;

  /// Forgets all recorded spans. Caller must ensure no concurrent record().
  void clear() { next_.store(0, std::memory_order_relaxed); }

  /// Dumps the retained spans as a Chrome trace_event JSON document
  /// ({"traceEvents":[...]}; "X" complete events, microsecond timestamps)
  /// for about://tracing / Perfetto.
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
  static std::atomic<SpanTracer*> current_;

  std::vector<TraceEvent> ring_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> next_{0};
};

/// Per-thread current-span registry — the sampling profiler's read surface
/// (src/obs/prof.hpp).
///
/// When publishing is enabled (SpanProfiler::start flips it), every Span
/// additionally pushes its name onto the calling thread's slot — a fixed
/// array of name pointers plus an atomic depth — and pops it on
/// destruction. A sampler thread can then read any slot's current span
/// path with two ordered loads and no locks: depth (acquire) then the
/// name pointers below it (relaxed). Names must be string literals (the
/// same rule TraceEvent already imposes), so a racing read can at worst
/// see a frame from a neighbouring moment — sampling noise — never a
/// dangling pointer.
///
/// Like the tracer and FaultInjector, the detached state costs one relaxed
/// load per Span; only the owner thread ever writes its slot's depth, so
/// push/pop need no read-modify-write.
class SpanStack {
 public:
  static constexpr std::size_t kMaxDepth = 16;   ///< frames kept per thread
  static constexpr std::size_t kMaxThreads = 64; ///< profiled-thread slots

  struct alignas(64) Slot {
    std::atomic<std::uint32_t> depth{0};
    std::array<std::atomic<const char*>, kMaxDepth> names{};
  };

  static bool publishing() {
    return publishing_.load(std::memory_order_relaxed);
  }
  /// Enables/disables Span push/pop publication. Spans already open keep
  /// the slot pointer they captured, so their pops stay balanced across a
  /// disable.
  static void set_publishing(bool on) {
    publishing_.store(on, std::memory_order_release);
  }

  /// The calling thread's slot, assigned on first use (nullptr once
  /// kMaxThreads threads hold one — those threads go unprofiled).
  static Slot* slot();

  /// Slots handed out so far (sampler iteration bound). A slot stays
  /// valid for the process lifetime once assigned.
  static std::size_t slots_in_use();
  static const Slot& slot_at(std::size_t i);

  /// Owner-thread push/pop. Deeper-than-kMaxDepth nesting still counts
  /// depth (so pops balance) but records no name; readers clamp.
  static void push(Slot& s, const char* name) {
    const std::uint32_t d = s.depth.load(std::memory_order_relaxed);
    if (d < kMaxDepth) s.names[d].store(name, std::memory_order_relaxed);
    s.depth.store(d + 1, std::memory_order_release);
  }
  static void pop(Slot& s) {
    const std::uint32_t d = s.depth.load(std::memory_order_relaxed);
    s.depth.store(d > 0 ? d - 1 : 0, std::memory_order_release);
  }

  /// Sampler-side read of one slot's current path, innermost frame last.
  /// Returns the frame count (clamped to kMaxDepth; 0 = thread idle).
  static std::uint32_t read(const Slot& s,
                            std::array<const char*, kMaxDepth>& frames) {
    std::uint32_t d = s.depth.load(std::memory_order_acquire);
    if (d > kMaxDepth) d = kMaxDepth;
    for (std::uint32_t i = 0; i < d; ++i) {
      frames[i] = s.names[i].load(std::memory_order_relaxed);
    }
    return d;
  }

 private:
  static std::atomic<bool> publishing_;
};

/// RAII phase span. Captures the attached tracer at construction (so an
/// attach/detach mid-span is safe) and records on destruction; when the
/// profiler has span-stack publishing enabled, also pushes onto the
/// thread's SpanStack slot. Compiled to nothing under TIV_OBS_DISABLE.
class Span {
 public:
  explicit Span(const char* name)
#ifndef TIV_OBS_DISABLE
      : tracer_(SpanTracer::current()), name_(name) {
    if (tracer_ != nullptr) start_ns_ = SpanTracer::now_ns();
    if (SpanStack::publishing()) {
      slot_ = SpanStack::slot();
      if (slot_ != nullptr) SpanStack::push(*slot_, name);
    }
  }
#else
  {
    (void)name;
  }
#endif

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
#ifndef TIV_OBS_DISABLE
    if (slot_ != nullptr) SpanStack::pop(*slot_);
    if (tracer_ != nullptr) {
      tracer_->record(name_, start_ns_, SpanTracer::now_ns());
    }
#endif
  }

 private:
#ifndef TIV_OBS_DISABLE
  SpanTracer* tracer_ = nullptr;
  SpanStack::Slot* slot_ = nullptr;
  const char* name_ = "";
  std::uint64_t start_ns_ = 0;
#endif
};

}  // namespace tiv::obs
