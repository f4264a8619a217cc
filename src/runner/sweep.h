#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace omr::runner {

/// Degree of parallelism for sweep execution: the OMR_JOBS environment
/// variable when set (clamped to >= 1), otherwise hardware_concurrency.
/// OMR_JOBS=1 selects the exact serial path — no threads are created and
/// tasks interleave with commits precisely like a plain for loop.
std::size_t default_jobs();

/// Runs task(0) .. task(n-1) on min(jobs, n) threads and commits each
/// result on the calling thread in index order, so any output produced
/// from the commits (tables, report JSON) is byte-identical to a serial
/// run regardless of scheduling. `jobs == 0` means default_jobs(); with
/// jobs == 1 or n <= 1 it is a plain for loop and starts no thread.
///
/// Each thread claims the lowest unclaimed index from a shared cursor.
/// Tasks must be thread-isolated: each should build its own Engine /
/// Network / Rng and touch no shared mutable state. `commit(i, result)`
/// runs only on the caller's thread and needs no synchronization.
///
/// A task that throws has its exception rethrown on the calling thread
/// once every commit with a smaller index has run; no commit at or past
/// it runs, no new task starts, and every running task finishes before the
/// call returns.
template <typename R>
void parallel_for_each(std::size_t n,
                       const std::function<R(std::size_t)>& task,
                       const std::function<void(std::size_t, R&&)>& commit,
                       std::size_t jobs = 0) {
  if (jobs == 0) jobs = default_jobs();
  if (jobs == 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) commit(i, task(i));
    return;
  }

  struct Slot {
    std::optional<R> result;
    std::exception_ptr error;
    bool done() const { return result.has_value() || error != nullptr; }
  };
  std::vector<Slot> slots(n);
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<std::size_t> cursor{0};
  auto work = [&] {
    for (std::size_t i = cursor++; i < n; i = cursor++) {
      Slot local;
      try {
        local.result.emplace(task(i));
      } catch (...) {
        local.error = std::current_exception();
      }
      std::lock_guard<std::mutex> lk(mu);
      slots[i] = std::move(local);
      cv.notify_one();
    }
  };
  // Declared after the state the threads use, so it is joined first on
  // every way out of this scope.
  std::vector<std::jthread> threads;
  for (std::size_t t = 0; t < std::min(jobs, n); ++t) {
    threads.emplace_back(work);
  }

  for (std::size_t i = 0; i < n; ++i) {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return slots[i].done(); });
    Slot slot = std::move(slots[i]);
    lk.unlock();
    if (slot.error != nullptr) {
      cursor.store(n);
      std::rethrow_exception(slot.error);
    }
    commit(i, std::move(*slot.result));
  }
}

}  // namespace omr::runner
