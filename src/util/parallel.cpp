#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace tiv {
namespace {

// Pool telemetry (docs/OBSERVABILITY.md). Function-local statics: resolved
// once, then each update is a relaxed sharded add.
obs::Counter& pool_jobs() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter("pool.jobs");
  return c;
}
obs::Counter& pool_chunks_claimed() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("pool.chunks_claimed");
  return c;
}
obs::Counter& pool_idle_ns() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("pool.idle_ns");
  return c;
}
obs::Gauge& pool_threads() {
  static obs::Gauge& g =
      obs::MetricsRegistry::instance().gauge("pool.threads");
  return g;
}
obs::Histogram& pool_job_ns() {
  static obs::Histogram& h =
      obs::MetricsRegistry::instance().histogram("pool.job_ns");
  return h;
}

std::atomic<std::size_t> g_thread_override{0};

// True while this thread is executing loop iterations (worker or caller).
// Nested parallel calls from such a thread run inline: the pool's job slot
// is single-occupancy, and a worker blocking on a sub-job would deadlock.
thread_local bool t_in_parallel_region = false;

std::size_t hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

/// Persistent worker pool. One job is resident at a time; the calling thread
/// participates, so a pool sized for T-way parallelism holds T-1 threads.
/// Workers sleep on a condition variable between jobs and claim work in
/// [begin, begin + grain) chunks from an atomic counter — the same mechanism
/// serves static partitions (grain = ceil(n / threads)) and dynamic
/// balancing (small caller-chosen grain).
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void run(std::size_t n, std::size_t grain,
           const std::function<void(std::size_t, std::size_t)>& body) {
    // The job slot is single-occupancy: concurrent top-level callers queue
    // here, so the loops stay safe to call from several threads at once.
    // Same-thread re-entry cannot reach this point — nested calls run
    // inline via t_in_parallel_region.
    std::lock_guard<std::mutex> run_lock(run_mutex_);
    {
      std::unique_lock<std::mutex> lk(mutex_);
      // Size the pool from the configured width, not this job's chunk
      // count: with atomic chunk claiming, surplus workers wake, claim
      // nothing, and ack. The pool therefore only shrinks when
      // set_parallel_thread_count lowers the target — never because one
      // small job came through (a restart-shrink per small job would cost
      // a thread spawn per worker).
      resize_locked(lk, parallel_thread_count() - 1);
      job_body_ = &body;
      job_n_ = n;
      job_grain_ = grain;
      next_.store(0, std::memory_order_relaxed);
      pending_ = workers_.size();
      ++generation_;
    }
    work_cv_.notify_all();
    pool_jobs().increment();
    const auto job_t0 = std::chrono::steady_clock::now();
    {
      // The caller is a full participant. The guard marks it as inside a
      // parallel region (nested calls from body run inline) and — even if
      // body throws on this thread — waits for the workers, which hold a
      // reference to `body`, to finish draining before run() unwinds.
      JobGuard guard(*this);
      drain();
    }
    pool_job_ns().record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - job_t0)
            .count()));
  }

 private:
  ThreadPool() = default;

  /// Caller-side completion guard: restores the nesting flag and joins the
  /// job barrier on every exit path, including exceptional unwinding.
  class JobGuard {
   public:
    explicit JobGuard(ThreadPool& pool) : pool_(pool) {
      t_in_parallel_region = true;
    }
    ~JobGuard() {
      t_in_parallel_region = false;
      std::unique_lock<std::mutex> lk(pool_.mutex_);
      pool_.done_cv_.wait(lk, [&] { return pool_.pending_ == 0; });
      pool_.job_body_ = nullptr;
    }

   private:
    ThreadPool& pool_;
  };

  ~ThreadPool() {
    std::unique_lock<std::mutex> lk(mutex_);
    stop_all_locked(lk);
  }

  // Claims chunks until the job's iteration space is exhausted.
  void drain() {
    const std::size_t n = job_n_;
    const std::size_t grain = job_grain_;
    const auto& body = *job_body_;
    std::size_t claimed = 0;
    for (;;) {
      const std::size_t begin =
          next_.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) break;
      ++claimed;
      body(begin, std::min(begin + grain, n));
    }
    // One add for the whole drain, not one per chunk — the claim loop is
    // the hot path of parallel_for_dynamic with small grains.
    if (claimed != 0) pool_chunks_claimed().add(claimed);
  }

  void worker_loop(std::uint64_t seen_generation) {
    t_in_parallel_region = true;
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
      const auto idle_t0 = std::chrono::steady_clock::now();
      work_cv_.wait(lk, [&] {
        return stop_ || generation_ != seen_generation;
      });
      pool_idle_ns().add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - idle_t0)
              .count()));
      if (stop_) return;
      seen_generation = generation_;
      lk.unlock();
      drain();
      lk.lock();
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }

  // Grows or shrinks to `target` resident workers. Shrinking restarts the
  // pool (rare: only when set_parallel_thread_count lowers the count), so
  // the worker loop never needs per-thread retirement logic.
  void resize_locked(std::unique_lock<std::mutex>& lk, std::size_t target) {
    if (workers_.size() == target) return;
    if (workers_.size() > target) stop_all_locked(lk);
    workers_.reserve(target);
    while (workers_.size() < target) {
      workers_.emplace_back(
          [this, gen = generation_] { worker_loop(gen); });
    }
    // Workers plus the participating caller.
    pool_threads().set(static_cast<std::int64_t>(workers_.size()) + 1);
  }

  // Joins every worker. Expects mutex_ held via lk; reacquires it before
  // returning.
  void stop_all_locked(std::unique_lock<std::mutex>& lk) {
    stop_ = true;
    lk.unlock();
    work_cv_.notify_all();
    for (auto& t : workers_) t.join();
    workers_.clear();
    lk.lock();
    stop_ = false;
  }

  std::mutex run_mutex_;  ///< serializes top-level jobs
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;

  // Job slot (valid while pending_ > 0 or the caller is draining).
  const std::function<void(std::size_t, std::size_t)>* job_body_ = nullptr;
  std::size_t job_n_ = 0;
  std::size_t job_grain_ = 1;
  std::atomic<std::size_t> next_{0};
  std::size_t pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

void dispatch(std::size_t n, std::size_t grain,
              const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t threads =
      std::min(parallel_thread_count(), (n + grain - 1) / grain);
  if (threads <= 1 || t_in_parallel_region) {
    body(0, n);
    return;
  }
  ThreadPool::instance().run(n, grain, body);
}

}  // namespace

std::size_t parallel_thread_count() {
  const std::size_t o = g_thread_override.load(std::memory_order_relaxed);
  return o != 0 ? o : hardware_threads();
}

void set_parallel_thread_count(std::size_t n) {
  g_thread_override.store(n, std::memory_order_relaxed);
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  // Static contiguous partition: one chunk per thread.
  const std::size_t threads = std::max<std::size_t>(parallel_thread_count(), 1);
  dispatch(n, (n + threads - 1) / threads,
           [&body](std::size_t begin, std::size_t end) {
             for (std::size_t i = begin; i < end; ++i) body(i);
           });
}

void parallel_for_dynamic(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  dispatch(n, grain, body);
}

}  // namespace tiv
