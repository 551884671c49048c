// Data-parallel loops over a persistent worker pool.
//
// The pool is created lazily on the first parallel call and reused for every
// subsequent one: dispatch is a condition-variable wakeup plus an atomic
// chunk counter, not a spawn/join of fresh std::threads per call, so the
// per-call overhead is microseconds instead of the ~100 us a thread spawn
// costs. That matters because the O(N^3) TIV analyzer issues a
// parallel section per matrix and the delay-space generators issue several
// per generation.
//
// Scheduling comes in two flavors:
//  - parallel_for: contiguous static ranges, one per worker. Right for
//    uniform per-iteration cost (rows of a rectangular matrix).
//  - parallel_for_dynamic: fixed-size chunks claimed from an atomic counter.
//    Right for skewed cost (triangular loops, per-edge work that varies),
//    where a static partition leaves the first worker with several times the
//    work of the last.
#pragma once

#include <cstddef>
#include <functional>

namespace tiv {

/// Number of threads a parallel loop will use, including the calling thread
/// (>= 1).
std::size_t parallel_thread_count();

/// Overrides the thread count; 0 restores the hardware default. Intended for
/// tests and for benchmarks that want single-threaded baselines. The pool
/// resizes lazily on the next parallel call.
void set_parallel_thread_count(std::size_t n);

/// Runs body(i) for every i in [0, n), distributing iterations over worker
/// threads in contiguous chunks. Blocks until all iterations complete.
///
/// body must be safe to invoke concurrently for distinct i. An exception
/// thrown by body on a pool worker terminates the process; one thrown on the
/// calling thread propagates after the workers finish draining (the analyzer
/// loops are noexcept in practice). Nested parallel calls from inside body
/// run serially inline — they do not deadlock the pool — and concurrent
/// top-level calls from different threads are serialized, never corrupted.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

/// Dynamically scheduled variant: ranges [begin, begin + grain) are claimed
/// from a shared atomic counter, so threads that finish early keep pulling
/// work. Use for skewed workloads (e.g. the triangular (a, c) pair loop of
/// the severity engine). grain trades scheduling overhead against balance;
/// it is clamped to >= 1. Same concurrency/exception contract as
/// parallel_for.
void parallel_for_dynamic(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace tiv
