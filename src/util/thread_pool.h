// Thread pool plus a parallel_for helper. Used to pre-implement
// independent CNN components concurrently (the paper's
// function-optimization stage is embarrassingly parallel).
//
// Determinism contract: the pool only schedules; any result computed
// through parallel_for must depend on the iteration index alone (seeds
// derived from the index, outputs keyed by the index), never on execution
// order. Under that contract every pool width produces bit-identical
// results, and width 1 executes the iterations inline, in order, on the
// calling thread — exactly the serial loop.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace fpgasim {

class ThreadPool {
 public:
  /// `threads` workers; 0 selects default_width().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task at the back of the pool's one FIFO queue; the returned
  /// future reports completion/exceptions.
  std::future<void> submit(std::function<void()> task);

  std::size_t size() const { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  /// Resolved automatic width: FPGASIM_THREADS when set to a positive
  /// integer, else hardware_concurrency (min 1).
  static std::size_t default_width();

  /// Process-wide shared pool (width: default_width()).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::mutex mutex_;  // guards tasks_ and stop_
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(i) for i in [begin, end) across the pool; blocks until done.
/// Iterations are claimed from a shared counter, so per-iteration cost
/// imbalance does not serialize. Exceptions from iterations are rethrown
/// (first one wins). On a width-1 pool — or when called from inside a pool
/// worker — the loop runs inline, serially and in index order, on the
/// calling thread.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  ThreadPool* pool = nullptr);

}  // namespace fpgasim
