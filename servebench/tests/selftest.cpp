// The benchmark's own tests: the percentile rule, span self time, the
// workload generator's determinism per seed, and the Poisson schedule.
//
//   python3 servebench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "client.hpp"
#include "harness.hpp"
#include "stats.hpp"
#include "workload.hpp"

using namespace servebench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      ++g_failures;                                                  \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);   \
    }                                                                \
  } while (0)

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void percentile_rule() {
  // p99 needs 1000 samples (10 beyond rank 990); one fewer drops to p95.
  CHECK(supported_percentile(1000) == 99.0);
  CHECK(supported_percentile(999) == 95.0);
  CHECK(supported_percentile(10000) == 99.9);
  CHECK(supported_percentile(9999) == 99.0);
  CHECK(supported_percentile(200) == 95.0);
  CHECK(supported_percentile(100) == 90.0);
  CHECK(supported_percentile(40) == 75.0);
  CHECK(supported_percentile(10) == 0.0);

  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);  // unsorted input
  Summary s = summarize(values);
  CHECK(s.count == 1000);
  CHECK(s.p50 == 500.0);
  CHECK(s.tail_pct == 99.0);
  CHECK(s.tail == 990.0);

  Summary small = summarize({3.0, 1.0, 2.0});
  CHECK(small.count == 3);
  CHECK(small.p50 == 2.0);
  CHECK(small.tail_pct == 0.0);
  CHECK(small.tail == 3.0);  // no supported percentile: the maximum
  CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void self_time() {
  // root [0,100] with children A [10,40] and B [30,60] (overlapping, so
  // they cover [10,60]); A has child C [15,20]; a second root D [100,110]
  // shares A's name.
  std::vector<SpanRecord> spans = {
      {"root", 0, 100, -1, 1}, {"A", 10, 40, 0, 1}, {"B", 30, 60, 0, 1},
      {"C", 15, 20, 1, 1},     {"A", 100, 110, -1, 2},
  };
  auto self = self_time_us(spans);
  CHECK(near(self["root"], 50, 1e-9));
  CHECK(near(self["A"], 25 + 10, 1e-9));
  CHECK(near(self["B"], 30, 1e-9));
  CHECK(near(self["C"], 5, 1e-9));

  // A recorder nests spans by open order and records nothing when off.
  SpanRecorder on(true), off(false);
  {
    ScopedSpan outer(on, "outer", 7);
    ScopedSpan inner(on, "inner", 7);
    ScopedSpan quiet(off, "outer", 7);
  }
  CHECK(on.spans().size() == 2);
  CHECK(on.spans()[1].parent == 0);
  CHECK(on.spans()[0].parent == -1);
  CHECK(on.spans()[1].request == 7);
  CHECK(on.spans()[0].end_us >= on.spans()[1].end_us);
  CHECK(off.spans().empty());
}

bool same_workload(const Workload& a, const Workload& b) {
  if (a.items.size() != b.items.size() || a.arrivals.size() != b.arrivals.size())
    return false;
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    const auto& x = a.items[i];
    const auto& y = b.items[i];
    if (x.request.context != y.request.context ||
        x.request.prompt != y.request.prompt ||
        x.request.indent != y.request.indent || x.gold != y.gold)
      return false;
  }
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    const auto& x = a.arrivals[i];
    const auto& y = b.arrivals[i];
    if (x.item != y.item || x.due_s != y.due_s || x.phase != y.phase ||
        x.repeat != y.repeat)
      return false;
  }
  return true;
}

void generator_determinism() {
  const Recipe recipe;
  for (const char* name : {"ide-cold", "ide-session", "batch-eval"}) {
    Workload a = make_workload(name, 7, 2.0, recipe, nullptr);
    Workload b = make_workload(name, 7, 2.0, recipe, nullptr);
    Workload c = make_workload(name, 8, 2.0, recipe, nullptr);
    CHECK(!a.arrivals.empty());
    CHECK(same_workload(a, b));
    CHECK(!same_workload(a, c));
    if (std::string(name) == "batch-eval") continue;
    // Open loop: both phases present, each sorted by due time.
    std::size_t per_phase[2] = {0, 0};
    for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
      ++per_phase[static_cast<int>(a.arrivals[i].phase)];
      if (i > 0 && a.arrivals[i].phase == a.arrivals[i - 1].phase)
        CHECK(a.arrivals[i].due_s >= a.arrivals[i - 1].due_s);
    }
    CHECK(per_phase[0] > 0 && per_phase[1] > 0);
  }
  // ide-cold never repeats a request; ide-session re-triggers some.
  Workload cold = make_workload("ide-cold", 3, 4.0, recipe, nullptr);
  CHECK(cold.items.size() == cold.arrivals.size());
  Workload session = make_workload("ide-session", 3, 4.0, recipe, nullptr);
  std::size_t repeats = 0;
  for (const Arrival& a : session.arrivals) repeats += a.repeat;
  CHECK(repeats > 0);
}

void poisson_schedule_shape() {
  wisdom::util::Rng rng(42);
  const double rate = 100.0;
  const std::size_t n = 20000;
  auto due = poisson_schedule(rng, rate, n);
  CHECK(due.size() == n);
  double sum = 0, sq = 0;
  bool increasing = true;
  for (std::size_t i = 0; i < n; ++i) {
    double gap = due[i] - (i ? due[i - 1] : 0.0);
    increasing = increasing && gap > 0;
    sum += gap;
    sq += gap * gap;
  }
  CHECK(increasing);
  const double mean = sum / n;
  const double cv = std::sqrt(sq / n - mean * mean) / mean;
  CHECK(near(mean, 1.0 / rate, 0.03 / rate));  // exponential gaps...
  CHECK(near(cv, 1.0, 0.05));                  // ...with CV 1
  // Counts in fixed one-second windows: Poisson, variance == mean.
  std::vector<double> counts(static_cast<std::size_t>(due.back()) + 1, 0.0);
  for (double t : due) counts[static_cast<std::size_t>(t)] += 1;
  counts.pop_back();  // the last window is partial
  double cm = 0, cv2 = 0;
  for (double c : counts) cm += c;
  cm /= static_cast<double>(counts.size());
  for (double c : counts) cv2 += (c - cm) * (c - cm);
  cv2 /= static_cast<double>(counts.size() - 1);
  CHECK(near(cm, rate, 0.03 * rate));
  CHECK(near(cv2 / cm, 1.0, 0.25));
  // Same seed, same schedule.
  wisdom::util::Rng again(42);
  CHECK(poisson_schedule(again, rate, n) == due);
}

void wire_helpers() {
  CHECK(json_string_field(R"({"text": "a\n\"b\"A", "reset": false})", "text") ==
        std::string("a\n\"b\"A"));
  CHECK(!json_string_field(R"({"other": 1})", "text"));
  CHECK(std::strtod(json_number(0.1 + 0.2).c_str(), nullptr) == 0.1 + 0.2);
  // Prometheus samples: every label set summed, prefixes not confused.
  const std::string text =
      "# TYPE w_width histogram\n"
      "w_width_bucket{le=\"10\"} 3\n"
      "w_width_sum 42.5\n"
      "w_width_count 7\n"
      "w_shed_total{reason=\"queue\"} 2\n"
      "w_shed_total{reason=\"breaker\"} 1\n"
      "w_shed_total_extra 9\n";
  CHECK(prom_value(text, "w_width_sum") == 42.5);
  CHECK(prom_value(text, "w_width_count") == 7);
  CHECK(prom_value(text, "w_shed_total") == 3);
  CHECK(prom_value(text, "w_missing") == 0);
}

}  // namespace

int main() {
  percentile_rule();
  self_time();
  generator_determinism();
  poisson_schedule_shape();
  wire_helpers();
  if (g_failures == 0) std::printf("servebench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
