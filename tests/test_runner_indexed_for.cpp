#include "runner/indexed_for.h"

#include <atomic>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace wb::runner {
namespace {

TEST(DefaultThreads, AtLeastOne) {
  EXPECT_GE(default_threads(), 1u);
}

TEST(IndexedFor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kTasks = 200;
  std::vector<std::atomic<int>> hits(kTasks);
  for_each_index(4, kTasks, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(IndexedFor, ZeroTasksIsANoOp) {
  std::atomic<int> ran{0};
  for_each_index(1, 0, [&ran](std::size_t) { ran.fetch_add(1); });
  for_each_index(4, 0, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
}

TEST(IndexedFor, SerialRunsInlineInIndexOrder) {
  // workers <= 1, or a single task, runs on the caller in index order.
  struct Case {
    unsigned workers;
    std::size_t tasks;
  };
  for (const Case c : {Case{0, 5}, Case{1, 5}, Case{8, 1}}) {
    std::vector<std::size_t> order;
    std::set<std::thread::id> ids;
    for_each_index(c.workers, c.tasks, [&order, &ids](std::size_t i) {
      order.push_back(i);
      ids.insert(std::this_thread::get_id());
    });
    ASSERT_EQ(order.size(), c.tasks) << "workers " << c.workers;
    for (std::size_t i = 0; i < c.tasks; ++i) EXPECT_EQ(order[i], i);
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
  }
}

TEST(IndexedFor, ParallelRunsNothingOnTheCaller) {
  // Sweeps install their per-task obs scopes thread-locally; that is
  // only isolated from the caller's if no task runs on the caller.
  for (const std::size_t tasks : {std::size_t{2}, std::size_t{64}}) {
    std::mutex mu;
    std::set<std::thread::id> ids;
    for_each_index(4, tasks, [&mu, &ids](std::size_t) {
      const std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_GE(ids.size(), 1u);
    EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u) << tasks;
  }
}

TEST(IndexedFor, TasksThatWaitForEachOtherBothFinish) {
  // Two tasks that each wait for the other to start can only finish if
  // two distinct threads run them — a serial fallback would deadlock
  // (guarded by the surrounding ctest timeout).
  std::atomic<int> started{0};
  for_each_index(2, 2, [&started](std::size_t) {
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
  });
  EXPECT_EQ(started.load(), 2);
}

TEST(IndexedFor, LowestIndexExceptionWins) {
  // Task 7 throws first: task 3 waits for it, then throws too. Every
  // sibling still runs, and the rethrown exception is task 3's.
  constexpr std::size_t kTasks = 10;
  std::vector<std::atomic<int>> hits(kTasks);
  std::atomic<bool> seven_threw{false};
  try {
    for_each_index(4, kTasks, [&hits, &seven_threw](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 7) {
        seven_threw.store(true);
        throw std::runtime_error("task 7");
      }
      if (i == 3) {
        while (!seven_threw.load()) std::this_thread::yield();
        throw std::runtime_error("task 3");
      }
    });
    ADD_FAILURE() << "no exception propagated";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
}

}  // namespace
}  // namespace wb::runner
