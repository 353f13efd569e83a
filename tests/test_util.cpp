#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>

#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace fpgasim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextIntCoversInclusiveRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // roughly uniform
}

TEST(Rng, ReseedRestartsSequence) {
  Rng rng(5);
  const auto first = rng();
  rng.reseed(5);
  EXPECT_EQ(rng(), first);
}

TEST(Table, RendersHeaderAndRows) {
  Table t("demo");
  t.set_header({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t("csv");
  t.set_header({"x"});
  t.add_row({"a,b\"c"});
  EXPECT_EQ(t.to_csv(), "x\n\"a,b\"\"c\"\n");
}

TEST(Table, DropsCellsBeyondHeader) {
  Table t("wide");
  t.set_header({"only"});
  t.add_row({"kept", "dropped"});
  EXPECT_EQ(t.to_string().find("dropped"), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(1.2345, 2), "1.23");
  EXPECT_EQ(Table::pct(0.695, 1), "69.5%");
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, EnvVariableControlsAutomaticWidth) {
  setenv("FPGASIM_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_width(), 3u);
  ThreadPool pool;
  EXPECT_EQ(pool.size(), 3u);
  unsetenv("FPGASIM_THREADS");
  const std::size_t automatic = ThreadPool::default_width();
  EXPECT_GE(automatic, 1u);
  // Parsed strictly: anything but a positive integer with nothing after it
  // falls back to the automatic width.
  for (const char* bad : {"garbage", "3x", "-2", "", "0"}) {
    setenv("FPGASIM_THREADS", bad, 1);
    EXPECT_EQ(ThreadPool::default_width(), automatic) << "FPGASIM_THREADS='" << bad << "'";
  }
  unsetenv("FPGASIM_THREADS");
}

TEST(ThreadPool, ExplicitWidthBeatsEnvironment) {
  setenv("FPGASIM_THREADS", "7", 1);
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  unsetenv("FPGASIM_THREADS");
}

TEST(ThreadPool, QuickTasksNeverWaitBehindABlockedWorker) {
  // One worker blocks on the gate; the 16 quick tasks queued after it can
  // only run on the other worker — and the blocker is only released once
  // they all ran.
  ThreadPool pool(2);
  std::promise<void> unblock;
  std::shared_future<void> gate = unblock.get_future().share();
  std::vector<std::future<void>> futures;
  futures.push_back(pool.submit([gate] { gate.wait(); }));
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&done] { done.fetch_add(1); }));
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < 16 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), 16) << "quick tasks stuck behind the blocked worker";
  unblock.set_value();
  for (auto& f : futures) f.get();
}

TEST(ThreadPool, ShortLivedPoolsNeverLoseAWakeup) {
  // Every round submits to workers that are just going to sleep and then
  // shuts the pool down: both notifies race a worker between its "no work"
  // check and its wait. A lost wakeup leaves a round blocked for good, so
  // the rounds run on a detached thread and the test bounds the wait.
  std::promise<void> finished;
  std::future<void> done = finished.get_future();
  std::thread([finished = std::move(finished)]() mutable {
    for (int round = 0; round < 2000; ++round) {
      ThreadPool pool(2);
      std::atomic<int> total{0};
      parallel_for(0, 3, [&total](std::size_t) { total.fetch_add(1); }, &pool);
    }
    finished.set_value();
  }).detach();
  ASSERT_EQ(done.wait_for(std::chrono::seconds(60)), std::future_status::ready)
      << "a pool round never finished: a worker missed its wakeup";
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  parallel_for(5, 5, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ParallelFor, WidthOnePoolRunsInOrderOnCallingThread) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  parallel_for(
      3, 9,
      [&](std::size_t i) {
        order.push_back(i);
        EXPECT_EQ(std::this_thread::get_id(), caller);
      },
      &pool);
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 4, 5, 6, 7, 8}));
}

TEST(ParallelFor, NestedCallFromWorkerRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  parallel_for(
      0, 4,
      [&](std::size_t) {
        parallel_for(0, 8, [&](std::size_t) { total.fetch_add(1); }, &pool);
      },
      &pool);
  EXPECT_EQ(total.load(), 32);
}

TEST(ParallelFor, RethrowsWorkerException) {
  EXPECT_THROW(parallel_for(0, 16,
                            [](std::size_t i) {
                              if (i == 7) throw std::runtime_error("bad");
                            }),
               std::runtime_error);
}

TEST(Stopwatch, MeasuresElapsedNonNegative) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
  sw.restart();
  EXPECT_GE(sw.milliseconds(), 0.0);
}

}  // namespace
}  // namespace fpgasim
