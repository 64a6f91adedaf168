#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "analysis/engine.hpp"
#include "core/postprocess.hpp"
#include "metrics/aggregate.hpp"
#include "net/http.hpp"
#include "nn/ops.hpp"
#include "obs/metrics.hpp"
#include "serve/lint_gate.hpp"
#include "serve/wire.hpp"
#include "util/thread_pool.hpp"

namespace servebench {

namespace {

using wisdom::model::Transformer;
using wisdom::serve::SuggestionResponse;

// Keeps a computed value observable so the timed call is not elided.
volatile std::size_t g_sink = 0;

// Requests replayed in-process per traced run (each replay calls the model
// three times per request, so this bounds the traced run's length), and
// the untraced/traced replay pairs run to compare their wall times.
constexpr std::size_t kReplayRequests = 150;
constexpr int kReplayRounds = 2;
// suggest_batch calls an open-loop workload's traced run makes to measure
// the scheduler (batch-eval makes one per 64 requests of its test split).
constexpr std::size_t kSchedSampleCalls = 10;

// The result of replaying a workload's first requests through each layer's
// public function, in the order the service calls them.
struct Replay {
  double wall_us = 0;
  std::size_t requests = 0;
  std::vector<SpanRecord> spans;
  double prompt_tokens = 0, kept_tokens = 0;
  std::vector<double> kept_lengths;
  std::size_t lint_calls = 0, lint_repaired = 0;
  // Requests whose layer-by-layer snippet differs from suggest()'s.
  std::size_t mismatches = 0;
  wisdom::serve::PrefixCacheStats prefix;
  wisdom::serve::ResponseCacheStats memo;
};

Replay replay(const ServedModel& served, const Workload& w, bool traced) {
  Replay out;
  SpanRecorder rec(traced);
  const wisdom::serve::ServiceOptions options =
      service_options(0, kHttpMaxBatch);
  wisdom::serve::InferenceService service(served.model, served.tokenizer,
                                          options);
  wisdom::metrics::MetricsAccumulator quality;
  out.requests = std::min(kReplayRequests, w.arrivals.size());
  const double t0 = now_us();
  for (std::size_t i = 0; i < out.requests; ++i) {
    const Item& item = w.items[w.arrivals[i].item];
    const std::string body = wisdom::serve::to_json(item.request);
    const std::string bytes = stream_request_bytes(body);
    ScopedSpan root(rec, "request", i);
    {
      ScopedSpan s(rec, "net.parse", i);
      wisdom::net::HttpParser parser;
      std::size_t consumed = 0;
      parser.feed(bytes, &consumed);
      g_sink = g_sink + parser.request().body.size();
    }
    std::optional<wisdom::serve::SuggestionRequest> request;
    {
      ScopedSpan s(rec, "serve.wire", i);
      request = wisdom::serve::request_from_json(body);
    }
    const std::string name_line =
        std::string(static_cast<std::size_t>(item.request.indent), ' ') +
        "- name: " + item.request.prompt + "\n";
    std::vector<std::int32_t> ids;
    {
      ScopedSpan s(rec, "text.encode", i);
      ids = served.tokenizer.encode(item.request.context + name_line);
    }
    const auto kept = served.model.kept_prompt(ids, options.max_new_tokens);
    out.prompt_tokens += static_cast<double>(ids.size());
    out.kept_tokens += static_cast<double>(kept.size());
    out.kept_lengths.push_back(static_cast<double>(kept.size()));
    {
      ScopedSpan s(rec, "model.prefill", i);
      Transformer::GenerateOptions gen;
      gen.max_new_tokens = 1;
      g_sink = g_sink + served.model.generate(kept, gen).size();
    }
    std::vector<std::int32_t> tokens;
    {
      ScopedSpan s(rec, "model.generate", i);
      Transformer::GenerateOptions gen;
      gen.max_new_tokens = options.max_new_tokens;
      gen.stop_token = wisdom::text::BpeTokenizer::kEndOfText;
      tokens = served.model.generate(ids, gen);
    }
    std::string generated;
    {
      ScopedSpan s(rec, "core.postprocess", i);
      generated = wisdom::core::truncate_to_first_task(
          wisdom::core::trim_generation(served.tokenizer.decode(tokens)),
          static_cast<std::size_t>(item.request.indent));
    }
    std::string layered = name_line;  // the service's empty-body answer
    if (!generated.empty()) {
      wisdom::serve::LintOutcome gate;
      {
        ScopedSpan s(rec, "serve.lint_gate", i);
        gate = wisdom::serve::lint_gate(name_line + generated,
                                        wisdom::serve::LintPolicy::Repair);
      }
      ++out.lint_calls;
      out.lint_repaired += gate.repaired ? 1 : 0;
      layered = gate.snippet;
      ScopedSpan s(rec, "analysis.analyze", i);
      g_sink = g_sink + wisdom::analysis::analyze(gate.snippet).diagnostics.size();
    }
    SuggestionResponse response;
    {
      ScopedSpan s(rec, "serve.suggest", i);
      response = service.suggest(*request);
    }
    if (response.snippet != layered) ++out.mismatches;
    {
      ScopedSpan s(rec, "serve.wire", i);
      g_sink = g_sink + wisdom::serve::to_json(response).size();
    }
    ScopedSpan s(rec, "metrics.score", i);
    quality.add(response.snippet, item.gold);
  }
  out.wall_us = now_us() - t0;
  out.spans = rec.spans();
  out.prefix = service.prefix_cache_stats();
  out.memo = service.response_cache_stats();
  return out;
}

// Times `fn` over repeated rounds for about `budget_s`; returns the median
// round time divided by `per_round` units, in microseconds.
template <typename Fn>
double time_per_unit_us(Fn&& fn, double per_round, double budget_s) {
  std::vector<double> rounds;
  const double start = now_us();
  while (rounds.size() < 5 || now_us() - start < budget_s * 1e6) {
    const double t0 = now_us();
    fn();
    rounds.push_back((now_us() - t0) / per_round);
    if (rounds.size() >= 2000) break;
  }
  return median(rounds);
}

// Multiply-adds of one decode token at cache length `len`, from the
// model's tensor shapes.
double decode_madds(const wisdom::model::ModelConfig& c, double len) {
  const double d = c.d_model, ff = c.d_ff;
  const double per_layer = d * 3 * d + d * d + d * ff + ff * d + 2 * len * d;
  return c.n_layer * per_layer + d * c.vocab;
}

void micro_layers(const ServedModel& served, double kept_median,
                  Report& result) {
  const Transformer& model = served.model;
  const auto& cfg = model.config();
  const int len = std::clamp(static_cast<int>(kept_median), 1, cfg.ctx - 40);
  const int steps = 32;
  double per_token_b1 = 0, per_token_b16 = 0;
  for (int width : {1, 4, 8, 16}) {
    std::vector<Transformer::KvCache> caches(static_cast<std::size_t>(width));
    for (int b = 0; b < width; ++b) {
      caches[static_cast<std::size_t>(b)] = model.make_cache();
      for (int t = 0; t < len; ++t)
        model.decode_step(caches[static_cast<std::size_t>(b)], (t * 7 + b) % cfg.vocab);
    }
    std::vector<Transformer::KvCache*> ptrs;
    for (auto& c : caches) ptrs.push_back(&c);
    std::vector<std::int32_t> tokens(static_cast<std::size_t>(width), 5);
    const double us = time_per_unit_us(
        [&] {
          for (auto& c : caches) c.truncate(len);
          for (int s = 0; s < steps; ++s) model.decode_step_batch(ptrs, tokens);
        },
        static_cast<double>(steps * width), 0.15);
    result.add("model.decode_us_per_token.b" + std::to_string(width), us,
               "us", static_cast<std::size_t>(steps * width),
               "decode_step_batch at the workload's median kept length");
    if (width == 1) per_token_b1 = us;
    if (width == 16) per_token_b16 = us;
  }
  const double madds = decode_madds(cfg, len + steps / 2.0);
  result.add("model.gflops.b1", 2 * madds / (per_token_b1 * 1e3), "GFLOP/s", 1,
             "computed multiply-adds from tensor shapes / measured time");
  result.add("model.gflops.b16", 2 * madds / (per_token_b16 * 1e3), "GFLOP/s", 1,
             "computed multiply-adds from tensor shapes / measured time");
  result.add("model.weight_mb", static_cast<double>(model.param_count()) * 4 / 1e6,
             "MB", 1, "computed: parameters x 4 bytes");

  struct Shape {
    const char* name;
    int k, n;
  };
  const Shape shapes[] = {{"qkv", cfg.d_model, 3 * cfg.d_model},
                          {"wo", cfg.d_model, cfg.d_model},
                          {"fc", cfg.d_model, cfg.d_ff},
                          {"proj", cfg.d_ff, cfg.d_model},
                          {"head", cfg.d_model, cfg.vocab}};
  for (const Shape& s : shapes) {
    for (int m : {1, 16}) {
      std::vector<float> a(static_cast<std::size_t>(m * s.k), 0.5f);
      std::vector<float> b(static_cast<std::size_t>(s.k * s.n), 0.25f);
      std::vector<float> c(static_cast<std::size_t>(m * s.n));
      const int reps = 64;
      const double us = time_per_unit_us(
          [&] {
            for (int r = 0; r < reps; ++r)
              wisdom::nn::matmul(a.data(), b.data(), c.data(), m, s.k, s.n);
            g_sink = g_sink + static_cast<std::size_t>(c[0]);
          },
          reps, 0.03);
      result.add(std::string("nn.matmul_gflops.") + s.name + ".m" +
                     std::to_string(m),
                 2.0 * m * s.k * s.n / (us * 1e3), "GFLOP/s", reps,
                 "nn::matmul on the served model's shape");
    }
  }
  auto& pool = wisdom::util::ThreadPool::global();
  const int calls = 200;
  const double dispatch = time_per_unit_us(
      [&] {
        for (int r = 0; r < calls; ++r)
          pool.parallel_for(0, pool.size(), [](std::int64_t b, std::int64_t e) {
            g_sink = g_sink + static_cast<std::size_t>(e - b);
          });
      },
      calls, 0.05);
  result.add("util.pool_dispatch_us", dispatch, "us", calls,
             "parallel_for over trivial work, " + std::to_string(pool.size()) +
                 " lanes");
}

struct SchedFigures {
  double steps = 0, width_mean = 0, peak = 0, preemptions = 0, batch_ms = 0;
};

// The scheduler's counters between two /v1/metrics-style expositions.
SchedFigures sched_deltas(std::string_view before, std::string_view after) {
  auto delta = [&](std::string_view name) {
    return prom_value(after, name) - prom_value(before, name);
  };
  SchedFigures f;
  f.steps = delta("wisdom_sched_steps_total");
  const double widths = delta("wisdom_sched_batch_width_count");
  f.width_mean = widths > 0 ? delta("wisdom_sched_batch_width_sum") / widths : 0;
  f.preemptions = delta("wisdom_sched_preempt_total");
  return f;
}

// The service's suggest_batch wall time per call, and the deltas of its
// own wisdom_sched_* families over the same calls, over the workload's
// first `limit` requests. HTTP does not reach the scheduler, so every
// workload measures it this way.
SchedFigures batch_sched(const ServedModel& served, const Workload& w,
                         std::size_t limit) {
  SchedFigures f;
  wisdom::serve::InferenceService service(
      served.model, served.tokenizer,
      service_options(kBatchRequests, kBatchInFlight));
  const std::string before = service.metrics().expose_prometheus();
  std::vector<double> batch_ms;
  const std::size_t n = std::min(w.arrivals.size(), limit);
  for (std::size_t b = 0; b < n; b += kBatchRequests) {
    const std::size_t e = std::min(n, b + kBatchRequests);
    std::vector<wisdom::serve::SuggestionRequest> requests;
    for (std::size_t i = b; i < e; ++i)
      requests.push_back(w.items[w.arrivals[i].item].request);
    const double t0 = now_us();
    service.suggest_batch(requests);
    batch_ms.push_back((now_us() - t0) / 1e3);
  }
  f = sched_deltas(before, service.metrics().expose_prometheus());
  // The registry keeps no maximum, so the widest step is bounded from
  // above: the highest non-empty batch-width bucket's bound, clipped to
  // the in-flight cap no step can exceed.
  if (const auto* h = service.metrics().find_histogram("wisdom_sched_batch_width"))
    for (std::size_t i = 0; i < h->bounds().size(); ++i)
      if (h->bucket_value(i) > 0)
        f.peak = std::min<double>(h->bounds()[i], kBatchInFlight);
  double total = 0;
  for (double ms : batch_ms) total += ms;
  f.batch_ms = batch_ms.empty() ? 0 : total / static_cast<double>(batch_ms.size());
  return f;
}

void print_self_times(const Replay& r) {
  std::map<std::string, std::size_t> calls;
  for (const SpanRecord& s : r.spans) ++calls[s.name];
  std::printf("span self time over %zu replayed requests:\n", r.requests);
  std::printf("  %-20s %8s %14s %12s\n", "span", "calls", "self total us",
              "self/call us");
  for (const auto& [name, us] : self_time_us(r.spans))
    std::printf("  %-20s %8zu %14.1f %12.3f\n", name.c_str(), calls[name], us,
                us / static_cast<double>(calls[name]));
}

}  // namespace

int run_traced(const RunOptions& options, const ServedModel& served,
               const Workload& w, Report& result, Report& extra,
               std::size_t* attempted, std::size_t* failed) {
  const bool open_loop = w.name != "batch-eval";
  // Layers reached only over HTTP, read from outside: the client's view of
  // time spent in sockets, the event loop and the worker queue, and the
  // service's own counters through /v1/metrics.
  double wait_ms = 0, shed_share = 0, lag_p99 = 0;
  std::size_t sent = 0, completed = 0;
  SchedFigures sched;
  if (open_loop) {
    HttpRun run;
    std::string error;
    if (!drive_http(options, w, &run, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    std::vector<double> waits, lags;
    for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
      const Outcome& o = run.outcomes[i];
      ++*attempted;
      if (o.sent_us > 0) ++sent;
      lags.push_back((o.noticed_us - o.due_us) / 1e3);
      if (!o.protocol_error.empty() || !o.response) {
        ++*failed;
        continue;
      }
      ++completed;
      if (w.arrivals[i].phase == Phase::Peak)
        waits.push_back((o.done_us - o.sent_us) / 1e3 - o.response->latency_ms);
    }
    double total = 0;
    for (double v : waits) total += v;
    wait_ms = waits.empty() ? 0 : total / static_cast<double>(waits.size());
    std::sort(lags.begin(), lags.end());
    lag_p99 = percentile_sorted(lags, 99.0);
    auto delta = [&](std::string_view name) {
      return prom_value(run.metrics_after, name) -
             prom_value(run.metrics_before, name);
    };
    shed_share = delta("wisdom_serve_shed_total") /
                 std::max(1.0, delta("wisdom_serve_offered_total"));
  } else {
    sent = completed = *attempted = w.arrivals.size();
  }
  sched = batch_sched(served, w,
                      open_loop ? kSchedSampleCalls * kBatchRequests
                                : w.arrivals.size());

  // The same replay untraced and traced, alternating; the difference of
  // their fastest rounds is the tracing overhead. The replay calls the
  // layers the way the service does, so it must arrive at suggest()'s bytes.
  Replay plain, traced;
  for (int round = 0; round < kReplayRounds; ++round) {
    for (bool on : {false, true}) {
      Replay r = replay(served, w, on);
      *attempted += r.requests;
      *failed += r.mismatches;
      if (r.mismatches)
        std::printf("FAILED %zu: layer-by-layer replay != suggest()\n", r.mismatches);
      Replay& best = on ? traced : plain;
      if (round == 0 || r.wall_us < best.wall_us) best = std::move(r);
    }
  }
  print_self_times(traced);
  const auto self = self_time_us(traced.spans);
  const double n = static_cast<double>(std::max<std::size_t>(traced.requests, 1));
  auto per_request = [&](const char* span) {
    auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second / n;
  };
  const double lint_calls = std::max<double>(1.0, static_cast<double>(traced.lint_calls));
  auto lint_self = [&](const char* span) {
    auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second / lint_calls;
  };
  const std::size_t reqs = traced.requests;

  result.add("net.parse_us", per_request("net.parse"), "us", reqs);
  result.add("net.wait_ms", wait_ms, "ms", completed,
             open_loop ? "peak phase: client latency - response latency_ms"
                       : "no HTTP in this workload");
  result.add("serve.wire_us", per_request("serve.wire"), "us", reqs,
             "request_from_json + to_json(response)");
  result.add("serve.suggest_ms", per_request("serve.suggest") / 1e3, "ms", reqs,
             "sequential InferenceService::suggest");
  result.add("serve.lint_gate_us", lint_self("serve.lint_gate"), "us",
             traced.lint_calls);
  result.add("serve.lint_repaired_share",
             static_cast<double>(traced.lint_repaired) / lint_calls, "ratio",
             traced.lint_calls);
  result.add("serve.prefix_hit_rate", traced.prefix.hit_rate(), "ratio",
             traced.prefix.lookups);
  result.add("serve.prefill_reused_share",
             traced.kept_tokens > 0
                 ? static_cast<double>(traced.prefix.tokens_reused) / traced.kept_tokens
                 : 0.0,
             "ratio", reqs);
  result.add("serve.prefix_stored", static_cast<double>(traced.prefix.stored),
             "count", reqs);
  result.add("serve.prefix_evictions", static_cast<double>(traced.prefix.evictions),
             "count", reqs);
  result.add("serve.memo_hit_rate", traced.memo.hit_rate(), "ratio",
             traced.memo.lookups);
  result.add("serve.shed_share", shed_share, "ratio", sent);
  result.add("sched.steps", sched.steps, "count", 1);
  result.add("sched.width_mean", sched.width_mean, "seqs", 1);
  result.add("sched.peak_in_flight", sched.peak, "seqs", 1,
             "upper bound: batch-width bucket, clipped to the cap");
  result.add("sched.preemptions", sched.preemptions, "count", 1);
  result.add("sched.batch_ms", sched.batch_ms, "ms", 1,
             "per suggest_batch call");
  result.add("text.encode_us", per_request("text.encode"), "us", reqs);
  result.add("text.prompt_tokens", traced.prompt_tokens / n, "tokens", reqs);
  result.add("text.kept_tokens", traced.kept_tokens / n, "tokens", reqs);
  result.add("model.prefill_ms", per_request("model.prefill") / 1e3, "ms", reqs,
             "generate(kept prompt, max_new_tokens=1)");
  micro_layers(served, median(traced.kept_lengths), result);
  result.add("core.postprocess_us", per_request("core.postprocess"), "us", reqs);
  result.add("analysis.analyze_us", lint_self("analysis.analyze"), "us",
             traced.lint_calls);
  result.add("metrics.score_us", per_request("metrics.score"), "us", reqs);
  result.add("loadgen.lag_p99_ms", lag_p99, "ms", sent,
             open_loop ? "" : "closed loop: no schedule");
  result.add("loadgen.sent", static_cast<double>(sent), "count", sent);
  result.add("loadgen.completed", static_cast<double>(completed), "count", sent);
  result.add("trace.overhead_share", (traced.wall_us - plain.wall_us) / plain.wall_us,
             "ratio", reqs, "traced replay vs the same replay untraced");
  extra.add("replay.untraced_ms", plain.wall_us / 1e3, "ms", plain.requests);
  extra.add("replay.traced_ms", traced.wall_us / 1e3, "ms", traced.requests);
  return 0;
}

}  // namespace servebench
