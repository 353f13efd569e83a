// In-memory span and counter recorder for the zoo benchmark.
//
// Spans are taken from outside the library: the benchmark opens one around
// every call it makes into a module's public functions. A span carries its
// name, start and end, the span that caused it (its parent) and the id of
// the benchmark operation it belongs to, so all spans of one request share
// an id. Calls too hot to record one by one (SimContext::step, the port
// I/O calls) feed a Tally instead: a call count and a summed duration.
//
// Tracing is off by default; a disabled Span or Tally costs one branch.
// The recorder is single-threaded by design: the benchmark only calls into
// the library from its main thread, and the library's own workers are
// never instrumented from here.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace zoobench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct SpanRecord {
    std::string name;
    std::int64_t start_ns = 0;  // since the tracer's epoch
    std::int64_t end_ns = 0;
    int parent = -1;            // index into spans(), -1 for a root
    std::uint64_t op = 0;       // benchmark operation id (0: none)
  };

  /// Duration sum and call count of one hot call site.
  struct Tally {
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
  };

  /// Aggregate of every span with one name.
  struct SpanTotals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  // total minus the time child spans cover
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Starts a new benchmark operation; spans opened until the next call
  /// carry its id.
  std::uint64_t begin_op() { return current_op_ = ++last_op_; }

  int open(std::string name);
  void close(int index);

  /// Adds `value` to the named counter (recorded only while enabled).
  void count(const std::string& name, double value);
  Tally& tally(const std::string& name) { return tallies_[name]; }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::map<std::string, double>& counters() const { return counters_; }
  const std::map<std::string, Tally>& tallies() const { return tallies_; }

  /// Per-name count, total and self time over every closed span.
  std::map<std::string, SpanTotals> totals() const;

  /// Writes the spans, counters and tallies as Chrome trace-event JSON
  /// (loadable in Perfetto or chrome://tracing). `metadata_json` is a
  /// rendered JSON object stored under "otherData". Returns false on I/O
  /// failure.
  bool write_chrome_trace(const std::string& path, const std::string& metadata_json) const;

  static std::int64_t now_ns(Clock::time_point epoch) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
  }

 private:
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;  // open spans, innermost last
  std::uint64_t last_op_ = 0, current_op_ = 0;
  std::map<std::string, double> counters_;
  std::map<std::string, Tally> tallies_;
};

/// The process-wide recorder.
Tracer& tracer();

/// RAII span: records [construction, destruction) when tracing is on.
class Span {
 public:
  explicit Span(const std::string& name)
      : index_(tracer().enabled() ? tracer().open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

/// Times `fn()` into the named tally when tracing is on; otherwise just
/// calls it. Used around calls made millions of times per run.
template <typename Fn>
decltype(auto) timed(Tracer::Tally& tally, Fn&& fn) {
  if (!tracer().enabled()) return fn();
  struct Guard {
    Tracer::Tally& tally;
    Tracer::Clock::time_point start = Tracer::Clock::now();
    ~Guard() {
      tally.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Tracer::Clock::now() - start)
                      .count();
      ++tally.calls;
    }
  } guard{tally};
  return fn();
}

}  // namespace zoobench
