#include "trace.h"

#include <cstdio>
#include <fstream>

#include "util/json.h"

namespace zoobench {

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

int Tracer::open(std::string name) {
  SpanRecord record;
  record.name = std::move(name);
  record.start_ns = now_ns(epoch_);
  record.parent = stack_.empty() ? -1 : stack_.back();
  record.op = current_op_;
  spans_.push_back(std::move(record));
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns(epoch_);
  // Spans are RAII-scoped on one thread, so the closing span is innermost.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::count(const std::string& name, double value) {
  if (enabled_) counters_[name] += value;
}

std::map<std::string, Tracer::SpanTotals> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.self_s += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& metadata_json) const {
  using fpgasim::JsonWriter;
  JsonWriter json;
  json.begin_object();
  json.key("displayTimeUnit").value("ms");
  json.key("traceEvents").begin_array();
  const std::int64_t end_ns = now_ns(epoch_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    json.begin_object();
    json.key("name").value(s.name);
    json.key("ph").value("X");
    json.key("pid").value(1);
    json.key("tid").value(1);
    json.key("ts").value(static_cast<double>(s.start_ns) * 1e-3);
    json.key("dur").value(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    json.key("args").begin_object();
    json.key("op").value(static_cast<std::size_t>(s.op));
    json.key("span").value(i);
    json.key("parent").value(static_cast<long>(s.parent));
    json.end_object();
    json.end_object();
  }
  // Counters and hot-call tallies close the trace as counter events.
  for (const auto& [name, value] : counters_) {
    json.begin_object();
    json.key("name").value(name);
    json.key("ph").value("C");
    json.key("pid").value(1);
    json.key("ts").value(static_cast<double>(end_ns) * 1e-3);
    json.key("args").begin_object().key("value").value(value).end_object();
    json.end_object();
  }
  for (const auto& [name, tally] : tallies_) {
    json.begin_object();
    json.key("name").value(name);
    json.key("ph").value("C");
    json.key("pid").value(1);
    json.key("ts").value(static_cast<double>(end_ns) * 1e-3);
    json.key("args").begin_object();
    json.key("calls").value(static_cast<std::size_t>(tally.calls));
    json.key("total_ms").value(static_cast<double>(tally.ns) * 1e-6);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.key("otherData").raw(metadata_json);
  json.end_object();

  std::ofstream out(path);
  out << json.str() << '\n';
  return static_cast<bool>(out);
}

}  // namespace zoobench
