#include "runner/indexed_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace wb::runner {

unsigned default_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

void for_each_index(unsigned workers, std::size_t num_tasks,
                    const std::function<void(std::size_t)>& task) {
  if (num_tasks == 0) return;

  const std::size_t effective =
      std::min<std::size_t>(workers == 0 ? 1 : workers, num_tasks);
  if (effective <= 1) {
    // Serial path: the calling thread, in index order — exactly what the
    // pre-runner benches did, with no thread start-up cost.
    for (std::size_t i = 0; i < num_tasks; ++i) task(i);
    return;
  }

  std::vector<std::exception_ptr> errors(num_tasks);
  std::atomic<std::size_t> next{0};
  {
    // Declared after `errors` and `next`: a jthread joins when destroyed,
    // so every started thread is joined before they go out of scope — on
    // the normal path and when a later thread fails to start (the running
    // threads still claim every index; the start error then propagates).
    std::vector<std::jthread> threads;
    threads.reserve(effective);
    for (std::size_t t = 0; t < effective; ++t) {
      threads.emplace_back([&task, &errors, &next, num_tasks] {
        for (std::size_t i = next.fetch_add(1); i < num_tasks;
             i = next.fetch_add(1)) {
          try {
            task(i);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      });
    }
  }
  // Deterministic failure: rethrow the lowest task index's exception, not
  // whichever thread happened to fail first.
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace wb::runner
