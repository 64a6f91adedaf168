// servebench: the repository's serving benchmark.
//
//   servebench run --workload ide-cold|ide-session|batch-eval --seed N
//                  --seconds S --trace 0|1 --checkpoint PATH
//   servebench serve --checkpoint PATH      (the serving process)
//   servebench train PATH                   (re-create the checkpoint)
//
// `run --trace 0` starts the real serving stack in its own process, drives
// it with the workload's seeded traffic (or, for batch-eval, runs the
// closed evaluation loop in-process), checks every output against the
// sequential reference, and prints the end-to-end metrics. `--trace 1`
// prints the per-layer metrics instead (layers.hpp). The last line of
// standard output is the result object.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "client.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "metrics/aggregate.hpp"
#include "obs/trace.hpp"
#include "serve/wire.hpp"
#include "stats.hpp"
#include "util/thread_pool.hpp"

using namespace servebench;
using wisdom::serve::SuggestionResponse;

namespace {

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;  // broken exchanges and failed output checks
  std::size_t shed = 0;    // 429s: counted in failed_share, not failures
  std::size_t responses = 0;
  std::size_t degraded = 0;
  std::map<std::string, std::size_t> reasons;
  bool invalid = false;  // the run is not a measurement

  void fail(const std::string& why) {
    ++failed;
    ++reasons[why];
  }
};

// The median goes to `report`; the p99 and the highest percentile with at
// least ten samples beyond it go to `extra`.
void add_timing(Report& report, const std::string& stem,
                const std::vector<double>& values, Report& extra) {
  Summary s = summarize(values);
  report.add(stem + "_p50_ms", s.p50, "ms", s.count);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  extra.add(stem + "_p99_ms", percentile_sorted(sorted, 99.0), "ms", s.count,
            s.tail_pct >= 99.0 ? "" : "fewer than 10 samples beyond p99");
  char pct[32];
  std::snprintf(pct, sizeof pct, "_tail_p%g_ms", s.tail_pct);
  extra.add(stem + pct, s.tail, "ms", s.count,
            "highest percentile with >= 10 samples beyond");
}

// Printed with the end-to-end metrics; not in the result object, because a
// healthy run reads exactly 0.
void add_shares(Report& extra, const Tally& tally) {
  auto share = [](std::size_t part, std::size_t whole) {
    return whole ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
  };
  extra.add("failed_share", share(tally.failed + tally.shed, tally.attempted),
            "ratio", tally.attempted);
  extra.add("degraded_share", share(tally.degraded, tally.responses), "ratio",
            tally.responses);
}

// Checks one response against the stream it arrived on and against the
// sequential reference for the same request. Returns whether it was served
// (not shed or broken), so its timings and content count in the metrics.
// A shed request is the service's answer to overload, not a broken output:
// it lowers goodput and raises failed_share but does not fail the run.
bool check_response(const Outcome& o, const SuggestionResponse& reference,
                    Tally& tally) {
  ++tally.attempted;
  if (!o.protocol_error.empty()) {
    tally.fail("protocol: " + o.protocol_error);
    return false;
  }
  if (o.http_status == 429 ||
      (o.response && o.response->error == wisdom::serve::ServiceError::Overloaded)) {
    ++tally.shed;
    return false;
  }
  if (o.http_status != 200 || !o.response) {
    tally.fail("http " + std::to_string(o.http_status));
    return false;
  }
  const SuggestionResponse& r = *o.response;
  ++tally.responses;
  if (o.streamed != r.snippet) {
    tally.fail("stream != done snippet");
    return false;
  }
  if (r.degraded) ++tally.degraded;
  else if (!same_output(r, reference))
    tally.fail("differs from sequential reference");
  return true;
}

int run_ide(const RunOptions& options, const ServedModel& served,
            const Workload& w, Report& result, Report& extra, Tally& tally) {
  HttpRun run;
  std::string error;
  if (!drive_http(options, w, &run, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const std::vector<Outcome>& outcomes = run.outcomes;
  // The sequential reference for every item that was sent.
  std::vector<std::size_t> sent_items;
  std::map<std::size_t, std::size_t> ref_index;
  for (const Arrival& a : w.arrivals)
    if (ref_index.emplace(a.item, sent_items.size()).second)
      sent_items.push_back(a.item);
  std::vector<Item> ref_items;
  for (std::size_t i : sent_items) ref_items.push_back(w.items[i]);
  auto reference = reference_responses(served, ref_items, kReferenceThreads);

  std::vector<double> ttft, latency, itl, lag[2], peak_ttft, peak_latency;
  double good = 0, peak_tokens = 0, schema_ok = 0;
  // The peak phase's achieved window: its first due time until its last
  // `done`, so a backlog the service builds lengthens it.
  double peak_first_due = 0, peak_last_done = 0;
  wisdom::metrics::MetricsAccumulator quality;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    const Arrival& a = w.arrivals[i];
    const bool nominal = a.phase == Phase::Nominal;
    lag[nominal ? 0 : 1].push_back((o.noticed_us - o.due_us) / 1e3);
    if (!nominal) {
      if (peak_first_due == 0 || o.due_us < peak_first_due) peak_first_due = o.due_us;
      peak_last_done = std::max(peak_last_done, o.done_us);
    }
    if (!check_response(o, reference[ref_index[a.item]], tally)) continue;
    const SuggestionResponse& r = *o.response;
    if (r.degraded) continue;
    schema_ok += r.schema_correct ? 1 : 0;
    quality.add(r.snippet, w.items[a.item].gold);
    const double first_ms = (o.first_delta_us - o.due_us) / 1e3;
    const double total_ms = (o.done_us - o.due_us) / 1e3;
    if (nominal) {
      if (o.first_delta_us > 0) ttft.push_back(first_ms);
      latency.push_back(total_ms);
      // Deltas that reach the client in one read share a timestamp, which
      // splits their gaps into a long one and zeros; the mean gap of a
      // request keeps their sum, so a stalled client does not read as a
      // faster service.
      const std::size_t deltas = o.delta_us.size();
      if (deltas >= 2)
        itl.push_back((o.delta_us.back() - o.delta_us.front()) / 1e3 /
                      static_cast<double>(deltas - 1));
    } else {
      if (o.first_delta_us > 0) peak_ttft.push_back(first_ms);
      peak_latency.push_back(total_ms);
      peak_tokens += r.generated_tokens;
      if (o.first_delta_us > 0 && first_ms <= kGoodTtftMs &&
          total_ms <= kGoodLatencyMs)
        good += 1;
    }
  }
  const auto report = quality.report();
  result.add("setup_s", run.setup.p50, "s", run.setup.count,
             "median of serving-process starts");
  // TTFT and total latency medians move with host speed by more than any
  // usable bound (see README), so they are printed, not gated.
  add_timing(extra, "ttft", ttft, extra);
  add_timing(extra, "latency", latency, extra);
  add_timing(result, "itl", itl, extra);
  for (auto* v : {&peak_ttft, &peak_latency}) {
    std::sort(v->begin(), v->end());
    const std::string stem = v == &peak_ttft ? "peak.ttft" : "peak.latency";
    for (double p : {50.0, 90.0, 99.0})
      extra.add(stem + "_p" + json_number(p) + "_ms", percentile_sorted(*v, p),
                "ms", v->size());
  }
  std::size_t peak_n = 0;
  for (const Arrival& a : w.arrivals) peak_n += a.phase == Phase::Peak;
  const double window_s = (peak_last_done - peak_first_due) / 1e6;
  result.add("goodput_rps", window_s > 0 ? good / window_s : 0.0, "req/s", peak_n,
             "peak phase over the achieved window, ttft <= " +
                 json_number(kGoodTtftMs) + " ms and latency <= " +
                 json_number(kGoodLatencyMs) + " ms");
  extra.add("peak.completed_rps",
            window_s > 0 ? static_cast<double>(peak_latency.size()) / window_s : 0.0,
            "req/s", peak_latency.size(), "served responses over the achieved window");
  result.add("tokens_per_s", window_s > 0 ? peak_tokens / window_s : 0.0,
             "tok/s", peak_n,
             "peak phase, first due time to last done (" +
                 json_number(window_s) + " s)");
  const std::size_t full = tally.responses - tally.degraded;
  result.add("schema_correct_share",
             full ? schema_ok / static_cast<double>(full) : 0.0, "ratio", full);
  result.add("ansible_aware", report.ansible_aware, "score", report.count);
  result.add("rss_peak_mb", run.rss_mb, "MB", 1, "serving process VmHWM");

  add_shares(extra, tally);
  for (int phase = 0; phase < 2; ++phase) {
    std::sort(lag[phase].begin(), lag[phase].end());
    const double p99 = percentile_sorted(lag[phase], 99.0);
    const char* name = phase == 0 ? "nominal" : "peak";
    extra.add(std::string("loadgen.lag_p99_ms.") + name, p99, "ms",
              lag[phase].size());
    if (p99 > kMaxLagP99Ms) {
      std::printf("INVALID: the generator ran %.3f ms behind schedule at p99 "
                  "in the %s phase (bound %.1f ms)\n",
                  p99, name, kMaxLagP99Ms);
      tally.invalid = true;
    }
  }
  // kConnections never exceeds kQueueCapacity, so this reads 0 under this
  // client; it is printed so a change to either constant shows.
  extra.add("serve.shed_share",
            (prom_value(run.metrics_after, "wisdom_serve_shed_total") -
             prom_value(run.metrics_before, "wisdom_serve_shed_total")) /
                static_cast<double>(std::max<std::size_t>(tally.attempted, 1)),
            "ratio", tally.attempted);
  return 0;
}

int run_batch(const RunOptions& options, const ServedModel& served,
              const Workload& w, Report& result, Report& extra, Tally& tally) {
  Summary setup;
  std::string error;
  if (!measure_setup(options, false, &setup, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  wisdom::serve::InferenceService service(
      served.model, served.tokenizer,
      service_options(kBatchRequests, kBatchInFlight));
  auto chunk_requests = [&](std::size_t begin, std::size_t end,
                            std::vector<wisdom::obs::Trace>* traces) {
    std::vector<wisdom::serve::SuggestionRequest> requests;
    for (std::size_t i = begin; i < end; ++i) {
      requests.push_back(w.items[w.arrivals[i].item].request);
      if (traces) requests.back().trace = &(*traces)[i - begin];
    }
    return requests;
  };
  // Warm-up pass over one chunk (lazy set-up), then every timed pass
  // starts from empty caches.
  service.suggest_batch(chunk_requests(
      0, std::min<std::size_t>(kBatchRequests, w.arrivals.size()), nullptr));

  // Throughput is taken per suggest_batch call (predicting and scoring 64
  // requests) and reported as the median over calls, which a transient
  // stall of the host moves less than a per-pass total. The loop idles
  // after each call for as long as the call took, so the measuring thread
  // is busy half the time, like an HTTP worker at the peak rate: in eight
  // interleaved pairs of runs on a shared 4-vCPU host this narrowed the
  // IQR/median of itl_p50_ms, tokens_per_s and goodput_rps from 0.17, 0.10
  // and 0.10 to 0.09, 0.07 and 0.07. Idle time is not in any timing.
  // Every pass must repeat the first byte for byte; the first is checked
  // against the sequential reference once timing is over. Keeping one pass
  // keeps the harness's memory out of rss_peak_mb.
  std::vector<double> tps, goodput, ttft, latency, itl;
  std::vector<SuggestionResponse> first_pass;
  std::size_t passes = 0;
  double schema_ok = 0, aware = 0;
  std::size_t aware_n = 0;
  const double t_begin = now_us();
  while (passes < 2 || now_us() - t_begin < options.seconds * 1e6) {
    service.invalidate_caches();
    wisdom::metrics::MetricsAccumulator quality;
    std::vector<SuggestionResponse> pass;
    pass.reserve(w.arrivals.size());
    for (std::size_t b = 0; b < w.arrivals.size(); b += kBatchRequests) {
      const std::size_t e = std::min(w.arrivals.size(), b + kBatchRequests);
      std::vector<wisdom::obs::Trace> traces(e - b);
      const auto requests = chunk_requests(b, e, &traces);
      const double t0 = now_us();
      auto responses = service.suggest_batch(requests);
      double tokens = 0, good = 0;
      for (std::size_t k = 0; k < responses.size(); ++k) {
        const SuggestionResponse& r = responses[k];
        quality.add(r.snippet, w.items[w.arrivals[b + k].item].gold);
        tokens += r.generated_tokens;
        good += r.ok && !r.degraded ? 1 : 0;
      }
      const double wall_s = (now_us() - t0) / 1e6;
      tps.push_back(tokens / wall_s);
      goodput.push_back(good / wall_s);
      // Per-request timings from the service's own request trace: first
      // committed token, token gaps, end of generation.
      for (const auto& trace : traces) {
        double first = -1, prev = -1, last = -1;
        std::size_t steps = 0;
        for (const auto& span : trace.spans) {
          if (span.name != "decode") continue;
          if (first < 0) first = span.start_ms;
          prev = span.start_ms;
          last = span.start_ms + span.duration_ms;
          ++steps;
        }
        if (first >= 0) {
          ttft.push_back(first);
          latency.push_back(last);
        }
        if (steps >= 2) itl.push_back((prev - first) / static_cast<double>(steps - 1));
      }
      for (auto& r : responses) pass.push_back(std::move(r));
      // Idle as long as the call took: a vCPU kept busy without pause is
      // slowed more, and more unevenly, by its neighbours on a shared host.
      ::usleep(static_cast<useconds_t>(wall_s * 1e6));
    }
    if (passes++ == 0) {
      auto report = quality.report();
      aware = report.ansible_aware;
      aware_n = report.count;
      for (const auto& r : pass) schema_ok += r.schema_correct ? 1 : 0;
      first_pass = std::move(pass);
      continue;
    }
    for (std::size_t i = 0; i < pass.size(); ++i) {
      ++tally.attempted;
      if (!same_output(pass[i], first_pass[i]))
        tally.fail("pass differs from the first pass");
    }
  }
  const double rss = rss_peak_mb_of(::getpid());

  std::vector<Item> ref_items;
  for (const Arrival& a : w.arrivals) ref_items.push_back(w.items[a.item]);
  auto reference = reference_responses(served, ref_items, kReferenceThreads);
  for (std::size_t i = 0; i < first_pass.size(); ++i) {
    Outcome o;
    o.http_status = 200;
    o.response = first_pass[i];
    o.streamed = first_pass[i].snippet;
    check_response(o, reference[i], tally);
  }
  const std::size_t n = w.arrivals.size();
  result.add("setup_s", setup.p50, "s", setup.count,
             "median of serving-process starts");
  // TTFT and total latency medians move with host speed by more than any
  // usable bound (see README), so they are printed, not gated.
  add_timing(extra, "ttft", ttft, extra);
  add_timing(extra, "latency", latency, extra);
  add_timing(result, "itl", itl, extra);
  result.add("goodput_rps", median(goodput), "req/s", goodput.size(),
             "non-degraded responses per second, median over calls");
  result.add("tokens_per_s", median(tps), "tok/s", tps.size(),
             "predicting and scoring, median over calls");
  result.add("schema_correct_share", schema_ok / static_cast<double>(n),
             "ratio", n);
  result.add("ansible_aware", aware, "score", aware_n);
  result.add("rss_peak_mb", rss, "MB", 1, "in-process VmHWM before the reference");
  add_shares(extra, tally);
  return 0;
}

std::string self_exe() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : std::string();
}

int usage() {
  std::fprintf(stderr,
               "usage: servebench run --workload W --seed N --seconds S "
               "--trace 0|1 --checkpoint PATH\n"
               "       servebench serve --checkpoint PATH\n"
               "       servebench train PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  RunOptions options;
  options.exe = self_exe();
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") options.seconds = std::atof(value.c_str());
    else if (key == "--trace") options.trace = value == "1";
    else if (key == "--checkpoint") options.checkpoint = value;
    else return usage();
  }
  if (cmd == "train") {
    if (argc != 3) return usage();
    return train_checkpoint(Recipe{}, argv[2]) ? 0 : 1;
  }
  if (cmd == "serve") return serve_main(options.checkpoint);
  if (cmd != "run" || !is_workload(options.workload) || options.seconds <= 0)
    return usage();

  wisdom::util::ThreadPool::set_global_threads(kPoolThreads);
  std::string error;
  auto served = load_served(options.checkpoint, &error);
  if (!served) {
    std::fprintf(stderr, "error: cannot load %s: %s\n",
                 options.checkpoint.c_str(), error.c_str());
    return 2;
  }
  const Recipe recipe;
  Workload w = make_workload(options.workload, options.seed, options.seconds,
                             recipe, &served->tokenizer);
  const int max_new = service_options(kQueueCapacity, kHttpMaxBatch).max_new_tokens;
  const InputProperties props = measure_properties(w, *served, max_new);
  const std::string fingerprint = fingerprint_json(*served, options.checkpoint);
  std::printf("servebench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("fingerprint: %s\n", fingerprint.c_str());
  std::printf("inputs: %s\n", properties_json(props).c_str());
  std::fflush(stdout);

  Report result, extra;
  Tally tally;
  int rc;
  if (options.trace) rc = run_traced(options, *served, w, result, extra, &tally.attempted, &tally.failed);
  else if (options.workload == "batch-eval")
    rc = run_batch(options, *served, w, result, extra, tally);
  else rc = run_ide(options, *served, w, result, extra, tally);
  if (rc != 0) return rc;

  std::printf("%s metrics:\n", options.trace ? "per-layer" : "end-to-end");
  result.print();
  std::printf("also:\n");
  extra.print();
  for (const auto& [why, count] : tally.reasons)
    std::printf("FAILED %zu: %s\n", count, why.c_str());
  const bool correct = tally.failed == 0 && !tally.invalid;
  std::printf("report: %s\n",
              JsonObject()
                  .str("workload", options.workload)
                  .integer("seed", static_cast<long long>(options.seed))
                  .num("seconds", options.seconds)
                  .boolean("trace", options.trace)
                  .raw("fingerprint", fingerprint)
                  .raw("inputs", properties_json(props))
                  .raw("metrics", result.metrics_json())
                  .raw("also", extra.metrics_json())
                  .done()
                  .c_str());
  std::printf("%s\n", JsonObject()
                          .boolean("correct", correct)
                          .integer("attempted", static_cast<long long>(tally.attempted))
                          .integer("failed", static_cast<long long>(tally.failed))
                          .raw("metrics", result.metrics_json())
                          .done()
                          .c_str());
  return correct ? 0 : 1;
}
