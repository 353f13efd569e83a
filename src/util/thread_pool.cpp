#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/env.h"

namespace fpgasim {
namespace {

/// The pool whose worker the current thread is, if any.
thread_local const ThreadPool* tls_pool = nullptr;

}  // namespace

std::size_t ThreadPool::default_width() {
  if (const std::size_t width = env_positive("FPGASIM_THREADS")) return width;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_width();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::on_worker_thread() const { return tls_pool == this; }

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  tls_pool = this;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      // Drain before stopping: every submitted future gets its result.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn, ThreadPool* pool) {
  if (begin >= end) return;
  if (pool == nullptr) pool = &ThreadPool::global();
  const std::size_t n = end - begin;
  // Serial path: a width-1 pool must reproduce the plain loop exactly, and
  // a worker thread must never block on futures of its own pool (the tasks
  // could be queued behind the blocked worker).
  if (n == 1 || pool->size() <= 1 || pool->on_worker_thread()) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Every participant claims the next index from a shared counter, so
  // uneven iteration costs balance out.
  std::atomic<std::size_t> next{begin};
  auto run = [&fn, &next, end] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= end) return;
      fn(i);
    }
  };
  const std::size_t helpers = std::min(pool->size(), n - 1);
  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (std::size_t i = 0; i < helpers; ++i) futures.push_back(pool->submit(run));
  // The calling thread participates instead of sleeping on the futures.
  std::exception_ptr first_error;
  try {
    run();
  } catch (...) {
    first_error = std::current_exception();
  }
  // Wait for every helper before rethrowing: tasks capture `fn` and `next`
  // by reference, so no worker may touch them after we return.
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace fpgasim
