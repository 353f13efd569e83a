#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <string>

#include "util/env.h"

namespace fpgasim {
namespace {

/// Identity of the current thread inside its owning pool, if any.
struct WorkerIdentity {
  const ThreadPool* pool = nullptr;
  std::size_t index = 0;
};
thread_local WorkerIdentity tls_worker;

}  // namespace

std::size_t ThreadPool::default_width() {
  if (const std::size_t width = env_positive("FPGASIM_THREADS")) return width;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(ThreadPoolOptions opt) {
  const std::size_t threads = opt.threads > 0 ? opt.threads : default_width();
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) queues_.push_back(std::make_unique<Queue>());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_.store(true);
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::on_worker_thread() const { return tls_worker.pool == this; }

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  // A worker pushes onto its own deque back (depth-first, cache-warm);
  // external submitters round-robin across deques.
  const std::size_t target = on_worker_thread()
                                 ? tls_worker.index
                                 : next_.fetch_add(1, std::memory_order_relaxed) %
                                       queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(packaged));
  }
  {
    // Published under the sleep mutex: a worker that just saw pending_ == 0
    // holds it until it is inside cv_.wait, so the notify cannot fall
    // between its check and its sleep (a lost wakeup hangs the caller).
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    pending_.fetch_add(1);
  }
  cv_.notify_one();
  return future;
}

bool ThreadPool::try_pop(std::size_t self, std::packaged_task<void()>& out) {
  const std::size_t n = queues_.size();
  for (std::size_t k = 0; k < n; ++k) {
    Queue& queue = *queues_[(self + k) % n];
    std::lock_guard<std::mutex> lock(queue.mutex);
    if (queue.tasks.empty()) continue;
    if (k == 0) {  // own deque: LIFO end
      out = std::move(queue.tasks.back());
      queue.tasks.pop_back();
    } else {  // steal: FIFO end, the oldest (largest) work
      out = std::move(queue.tasks.front());
      queue.tasks.pop_front();
    }
    pending_.fetch_sub(1);
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  tls_worker = WorkerIdentity{this, self};
  for (;;) {
    std::packaged_task<void()> task;
    if (try_pop(self, task)) {
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    cv_.wait(lock, [this] { return stop_.load() || pending_.load() > 0; });
    if (stop_.load() && pending_.load() == 0) return;
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
  // Iteration-level work stealing: every participant claims the next index
  // from a shared counter, so uneven iteration costs balance out.
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
