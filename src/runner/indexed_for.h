// Deterministic indexed parallel-for: the one execution engine underneath
// SweepRunner and wb::serve's per-session dispatch, so every fan-out in
// the codebase shares one scheduling policy instead of growing its own
// threads.
//
// Contract:
//   * workers <= 1 or num_tasks <= 1 runs every task inline on the
//     calling thread in ascending index order — no extra threads, serial
//     behaviour preserved exactly;
//   * otherwise min(workers, num_tasks) fresh threads claim indices from
//     one shared counter, and no task runs on the calling thread (sweeps
//     rely on this: a task's thread-local obs scopes never touch the
//     caller's). A throwing task does not abort its siblings — after
//     every thread has joined, the *lowest-index* exception is rethrown,
//     so failures are as deterministic as successes.
//
// This is the only place in the codebase allowed to create threads: the
// wb_analyze no-raw-thread rule forbids raw std::thread / std::async
// outside src/runner/ so parallelism stays behind this deterministic API.
#pragma once

#include <cstddef>
#include <functional>

namespace wb::runner {

/// Number of workers to use when the caller does not say: the hardware
/// concurrency, with a floor of 1 (hardware_concurrency() may return 0).
unsigned default_threads() noexcept;

/// Runs task(i) for every i in [0, num_tasks). `task` must be safe to
/// invoke concurrently for distinct indices (shared state only via its
/// own synchronisation); per-index state needs none.
void for_each_index(unsigned workers, std::size_t num_tasks,
                    const std::function<void(std::size_t)>& task);

}  // namespace wb::runner
