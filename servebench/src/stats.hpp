// Statistics and span bookkeeping shared by the benchmark program and its
// tests: the percentile rule every timing is reported under, in-memory
// spans with per-layer self time, and a small JSON writer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

// Nearest-rank percentile of an ascending-sorted sample, p in (0, 100].
double percentile_sorted(const std::vector<double>& sorted, double p);

// A timing summary: the median and the highest percentile of the ladder
// {99.9, 99, 95, 90, 75} that leaves at least ten samples beyond it, plus the
// sample count. `tail_pct` is 0 (and `tail` the maximum) when the sample is
// too small for any of them.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
};
Summary summarize(std::vector<double> values);
// The highest ladder percentile with at least ten samples beyond it for a
// sample of n values; 0 when there is none.
double supported_percentile(std::size_t n);

double median(std::vector<double> values);

// One recorded span: a call into a layer, timed from outside it.
struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  // index into the same vector, -1 for a root
  std::uint64_t request = 0;
};

// Collects spans in memory; nothing is written until the run ends.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one; returns its index (or -1
  // when recording is off).
  int open(std::string_view name, std::uint64_t request);
  void close(int index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

// RAII helper around SpanRecorder::open/close.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string_view name,
             std::uint64_t request)
      : recorder_(recorder), index_(recorder.open(name, request)) {}
  ~ScopedSpan() { recorder_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

// Per-name self time: each span's duration minus the part of its interval
// covered by its direct children (overlapping children are merged), summed
// over every span of that name.
std::map<std::string, double> self_time_us(const std::vector<SpanRecord>& spans);

double now_us();

// Minimal JSON object writer (keys in insertion order).
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& integer(std::string_view key, long long value);
  JsonObject& boolean(std::string_view key, bool value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& raw(std::string_view key, std::string_view json);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view key);
  std::string body_;
};

std::string json_string(std::string_view text);
// Shortest round-trip rendering of a double (all its digits).
std::string json_number(double value);

}  // namespace servebench
