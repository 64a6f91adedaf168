#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <unordered_set>

#include "core/trainer.hpp"
#include "data/packing.hpp"
#include "data/sources.hpp"
#include "model/checkpoint.hpp"
#include "model/config.hpp"
#include "stats.hpp"
#include "util/hashing.hpp"

namespace servebench {

using wisdom::data::FtSample;
using wisdom::data::GenerationType;

// --- the served model --------------------------------------------------------

wisdom::data::DatasetSplits recipe_splits(const Recipe& recipe) {
  auto galaxy = wisdom::data::galaxy_corpus(recipe.seed ^ 0xF2);
  auto samples = wisdom::data::extract_corpus_samples(galaxy.files);
  return wisdom::data::split_dataset(std::move(samples), recipe.seed ^ 0x5);
}

bool train_checkpoint(const Recipe& recipe, const std::string& path) {
  auto galaxy = wisdom::data::galaxy_corpus(recipe.seed ^ 0xF2);
  auto tokenizer = wisdom::text::BpeTokenizer::train(
      galaxy.concatenated(), static_cast<std::size_t>(recipe.vocab));
  auto splits = recipe_splits(recipe);
  std::vector<std::string> texts;
  texts.reserve(splits.train.size());
  for (const FtSample& s : splits.train)
    texts.push_back(wisdom::data::format_training_text(
        s, wisdom::data::PromptFormat::NameCompletion));
  auto train_set = wisdom::data::pack_samples(tokenizer, texts, recipe.context);
  wisdom::model::Transformer model(
      wisdom::model::config_for(wisdom::model::SizeClass::S350M,
                                static_cast<std::int32_t>(tokenizer.vocab_size()),
                                recipe.context),
      recipe.seed);
  wisdom::core::TrainConfig tc;
  tc.epochs = recipe.epochs;
  tc.micro_batch = recipe.micro_batch;
  tc.grad_accum = recipe.grad_accum;
  tc.lr = recipe.lr;
  tc.decay = wisdom::nn::DecayKind::Cosine;
  tc.shuffle_seed = recipe.seed ^ 0x99;
  tc.on_epoch = [](int epoch, float loss, float) {
    std::fprintf(stderr, "epoch %d: train loss %.4f\n", epoch, loss);
  };
  std::fprintf(stderr, "training on %zu samples (%zu windows)\n",
               splits.train.size(), train_set.count());
  wisdom::core::train_model(model, train_set, nullptr, tc);
  return wisdom::model::save_checkpoint_file(path, model, tokenizer.serialize());
}

std::optional<ServedModel> load_served(const std::string& path,
                                       std::string* error) {
  auto result = wisdom::model::load_checkpoint_file_ex(path);
  if (!result.ok()) {
    *error = std::string(wisdom::model::load_status_name(result.status)) +
             ": " + result.message;
    return std::nullopt;
  }
  auto tokenizer = wisdom::text::BpeTokenizer::deserialize(result.tokenizer);
  if (!tokenizer) {
    *error = "checkpoint carries no tokenizer";
    return std::nullopt;
  }
  return ServedModel{std::move(*tokenizer), std::move(*result.model)};
}

wisdom::serve::ServiceOptions service_options(int queue_capacity,
                                              int max_batch_sequences) {
  wisdom::serve::ServiceOptions o;
  o.prefix_cache_enabled = true;
  o.response_cache_enabled = true;
  o.lint_policy = wisdom::serve::LintPolicy::Repair;
  o.queue_capacity = queue_capacity;
  o.beam_width = 1;
  o.speculative_k = 0;
  o.max_batch_sequences = max_batch_sequences;
  return o;
}

// --- traffic -------------------------------------------------------------------

namespace {

// Open-loop rates, calibrated once per workload on a 4-vCPU host with the
// pinned configuration (harness.hpp) and then frozen. Calibration offered
// each workload's peak phase at rising rates (10 s runs) and took its
// saturation throughput: the completed requests per second once offering
// more no longer raised it (ide-cold about 340 req/s, ide-session about
// 450 req/s; session requests hit the caches, so the service sustains more
// of them). Peak is about 45% of saturation, so the service still carries
// it while the shared host runs at half speed; nominal is about 2/5 of
// peak. The sweep figures are in README.md.
constexpr Rates kColdRates{60.0, 150.0};
constexpr Rates kSessionRates{75.0, 200.0};
// Share of the measured seconds spent at the nominal rate; the rest is
// spent at the peak rate.
constexpr double kNominalShare = 0.7;
// ide-session shape: mean think time between a session's tasks, the
// chance that a request is re-triggered exactly, and the mean delay of
// the re-trigger. These three are assumptions, not measured figures: the
// Lightspeed usage study (arXiv 2402.17442) reports heavy prefix reuse but
// no think-time or re-trigger distribution this benchmark could use.
constexpr double kThinkMeanS = 2.0;
constexpr double kRepeatChance = 0.2;
constexpr double kRepeatDelayMeanS = 0.4;

std::optional<Item> item_from(const FtSample& s) {
  std::size_t indent = s.input_line.find_first_not_of(' ');
  if (indent == std::string::npos) return std::nullopt;
  // The service rebuilds the name line from (prompt, indent); keep only
  // samples it rebuilds byte for byte.
  if (std::string(indent, ' ') + "- name: " + s.prompt + "\n" != s.input_line)
    return std::nullopt;
  Item item;
  item.request.context = s.context;
  item.request.prompt = s.prompt;
  item.request.indent = static_cast<int>(indent);
  item.gold = s.full_target();
  item.type = s.type;
  return item;
}

// Fresh Galaxy-style files for traffic, never the training corpus.
std::vector<wisdom::data::CorpusFile> traffic_files(std::uint64_t seed,
                                                    int corpus) {
  return wisdom::data::galaxy_corpus(wisdom::util::hash_combine(
                                         seed, 0x7a11'0000ULL + corpus))
      .files;
}

std::unordered_set<std::string> training_inputs(const Recipe& recipe) {
  std::unordered_set<std::string> out;
  for (const FtSample& s : recipe_splits(recipe).train)
    out.insert(s.model_input());
  return out;
}

template <typename T>
void shuffle(std::vector<T>& v, wisdom::util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniform(i))]);
}

double exponential(wisdom::util::Rng& rng, double mean) {
  return -mean * std::log(1.0 - rng.uniform_real());
}

std::size_t phase_count(double rate, double seconds) {
  return static_cast<std::size_t>(std::ceil(rate * seconds));
}

// ide-cold: one held-out sample per file, distinct model inputs, drawn from
// fresh corpora until both phases are covered.
Workload make_cold(std::uint64_t seed, double seconds, const Recipe& recipe) {
  Workload w;
  w.name = "ide-cold";
  w.rates = kColdRates;
  wisdom::util::Rng rng(seed);
  const std::size_t n_nom = phase_count(w.rates.nominal, seconds * kNominalShare);
  const std::size_t n_peak =
      phase_count(w.rates.peak, seconds * (1.0 - kNominalShare));
  const auto trained = training_inputs(recipe);
  std::unordered_set<std::string> seen;
  for (int corpus = 0; w.items.size() < n_nom + n_peak; ++corpus) {
    auto files = traffic_files(seed, corpus);
    shuffle(files, rng);
    for (const auto& file : files) {
      auto samples = wisdom::data::extract_samples(file.text);
      if (samples.empty()) continue;
      const FtSample& s = samples[rng.uniform(samples.size())];
      std::string key = s.model_input();
      if (trained.count(key) || !seen.insert(key).second) continue;
      if (!s.context.empty() && !seen.insert("ctx:" + s.context).second)
        continue;
      if (auto item = item_from(s)) w.items.push_back(std::move(*item));
      if (w.items.size() == n_nom + n_peak) break;
    }
  }
  std::size_t next = 0;
  for (Phase phase : {Phase::Nominal, Phase::Peak}) {
    const bool nominal = phase == Phase::Nominal;
    const double rate = nominal ? w.rates.nominal : w.rates.peak;
    auto due = poisson_schedule(rng, rate, nominal ? n_nom : n_peak);
    for (double t : due) w.arrivals.push_back({next++, t, phase, false});
    w.phase_seconds[nominal ? 0 : 1] = static_cast<double>(due.size()) / rate;
  }
  return w;
}

// ide-session: Poisson-arriving sessions, each walking one file's
// PB+NL->T / T+NL->T tasks in order with think time, some re-triggered.
Workload make_session(std::uint64_t seed, double seconds, const Recipe& recipe,
                      const wisdom::text::BpeTokenizer* tokenizer) {
  Workload w;
  w.name = "ide-session";
  w.rates = kSessionRates;
  wisdom::util::Rng rng(seed);
  const auto trained = training_inputs(recipe);
  // Kept-prompt budget: the context window minus the generation reserve
  // (see Transformer::kept_prompt), so a session's prompts are never
  // left-truncated and consecutive prompts share their kept prefix.
  const wisdom::serve::ServiceOptions opts = service_options(4, 8);
  const std::size_t budget = static_cast<std::size_t>(
      recipe.context - std::min(opts.max_new_tokens, recipe.context / 2));

  int corpus = 0;
  std::vector<wisdom::data::CorpusFile> files;
  std::size_t file_pos = 0;
  auto draw_session = [&]() -> std::vector<std::size_t> {
    while (true) {
      if (file_pos == files.size()) {
        files = traffic_files(seed, corpus++);
        shuffle(files, rng);
        file_pos = 0;
      }
      auto samples = wisdom::data::extract_samples(files[file_pos++].text);
      std::vector<std::size_t> steps;
      for (const FtSample& s : samples) {
        if (s.type != GenerationType::PbNlToTask &&
            s.type != GenerationType::TNlToTask)
          continue;
        if (trained.count(s.model_input())) continue;
        if (tokenizer &&
            tokenizer->encode(s.model_input()).size() > budget)
          break;  // later tasks only grow the context
        auto item = item_from(s);
        if (!item) break;
        steps.push_back(w.items.size());
        w.items.push_back(std::move(*item));
      }
      if (steps.size() >= 2) return steps;
    }
  };
  // Sessions are drawn ahead so the session start rate can be set from
  // their mean length: requests per second over requests per session.
  std::deque<std::vector<std::size_t>> sessions;
  double drawn_steps = 0;
  for (int i = 0; i < 64; ++i) {
    sessions.push_back(draw_session());
    drawn_steps += static_cast<double>(sessions.back().size());
  }
  const double requests_per_session =
      drawn_steps / static_cast<double>(sessions.size()) * (1.0 + kRepeatChance);
  auto next_session = [&] {
    if (sessions.empty()) return draw_session();
    auto steps = std::move(sessions.front());
    sessions.pop_front();
    return steps;
  };

  for (Phase phase : {Phase::Nominal, Phase::Peak}) {
    const bool nominal = phase == Phase::Nominal;
    const double rate = nominal ? w.rates.nominal : w.rates.peak;
    const std::size_t n = phase_count(
        rate, seconds * (nominal ? kNominalShare : 1.0 - kNominalShare));
    // Sessions start over a warm-up window before the phase so the
    // measured span sees a steady mix of session ages.
    const double warmup_s = 4.0 * kThinkMeanS;
    const double horizon_s = 2.0 * static_cast<double>(n) / rate;
    std::vector<Arrival> phase_arrivals;
    const double session_rate = rate / requests_per_session;
    double start = -warmup_s;
    while (true) {
      start += exponential(rng, 1.0 / session_rate);
      if (start > horizon_s) break;
      double t = start;
      for (std::size_t item : next_session()) {
        phase_arrivals.push_back({item, t, phase, false});
        if (rng.chance(kRepeatChance)) {
          double r = t + exponential(rng, kRepeatDelayMeanS);
          phase_arrivals.push_back({item, r, phase, true});
        }
        t += exponential(rng, kThinkMeanS);
      }
    }
    std::erase_if(phase_arrivals, [](const Arrival& a) { return a.due_s < 0; });
    std::stable_sort(phase_arrivals.begin(), phase_arrivals.end(),
                     [](const Arrival& a, const Arrival& b) {
                       return a.due_s < b.due_s;
                     });
    if (phase_arrivals.size() > n) phase_arrivals.resize(n);
    // A re-trigger counts as a repeat only when its original was sent.
    std::unordered_set<std::size_t> sent;
    for (Arrival& a : phase_arrivals) {
      if (a.repeat && !sent.count(a.item)) a.repeat = false;
      sent.insert(a.item);
    }
    // Stretch the phase so its achieved rate is exactly the frozen one.
    const double span = static_cast<double>(phase_arrivals.size()) / rate;
    if (!phase_arrivals.empty() && phase_arrivals.back().due_s > 0) {
      const double scale = span / phase_arrivals.back().due_s;
      for (Arrival& a : phase_arrivals) a.due_s *= scale;
    }
    w.phase_seconds[nominal ? 0 : 1] = span;
    w.arrivals.insert(w.arrivals.end(), phase_arrivals.begin(),
                      phase_arrivals.end());
  }
  return w;
}

// batch-eval: the recipe's held-out test split in a seeded order.
Workload make_batch(std::uint64_t seed, const Recipe& recipe) {
  Workload w;
  w.name = "batch-eval";
  wisdom::util::Rng rng(seed);
  for (const FtSample& s : recipe_splits(recipe).test)
    if (auto item = item_from(s)) w.items.push_back(std::move(*item));
  shuffle(w.items, rng);
  for (std::size_t i = 0; i < w.items.size(); ++i)
    w.arrivals.push_back({i, 0.0, Phase::Nominal, false});
  return w;
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "ide-cold" || name == "ide-session" || name == "batch-eval";
}

std::vector<double> poisson_schedule(wisdom::util::Rng& rng, double rate,
                                     std::size_t n) {
  // Given n arrivals in [0, T], a Poisson process places them as n sorted
  // uniform points; T = n / rate fixes the achieved rate exactly, so rate
  // metrics do not vary with the seed's arrival count.
  const double span = static_cast<double>(n) / rate;
  std::vector<double> out(n);
  for (double& t : out) t = span * rng.uniform_real();
  std::sort(out.begin(), out.end());
  return out;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds, const Recipe& recipe,
                       const wisdom::text::BpeTokenizer* tokenizer) {
  if (name == "ide-cold") return make_cold(seed, seconds, recipe);
  if (name == "ide-session") return make_session(seed, seconds, recipe, tokenizer);
  return make_batch(seed, recipe);
}

InputProperties measure_properties(const Workload& w, const ServedModel& served,
                                   int max_new_tokens) {
  InputProperties p;
  p.arrivals = w.arrivals.size();
  p.distinct = w.items.size();
  std::vector<double> prompt_len, kept_len;
  // Token trie over earlier kept prompts: node -> (token -> child).
  std::vector<std::map<std::int32_t, int>> trie(1);
  std::size_t shared = 0, repeats = 0, type_count[4] = {0, 0, 0, 0};
  double reusable = 0, kept_total = 0;
  std::unordered_set<std::size_t> seen_items;
  for (const Arrival& a : w.arrivals) {
    const Item& item = w.items[a.item];
    const auto& r = item.request;
    std::string pad(static_cast<std::size_t>(r.indent), ' ');
    auto ids = served.tokenizer.encode(r.context + pad + "- name: " + r.prompt +
                                       "\n");
    auto kept = served.model.kept_prompt(ids, max_new_tokens);
    prompt_len.push_back(static_cast<double>(ids.size()));
    kept_len.push_back(static_cast<double>(kept.size()));
    int node = 0;
    std::size_t lcp = 0;
    for (; lcp < kept.size(); ++lcp) {
      auto it = trie[static_cast<std::size_t>(node)].find(kept[lcp]);
      if (it == trie[static_cast<std::size_t>(node)].end()) break;
      node = it->second;
    }
    if (!kept.empty() && 2 * lcp >= kept.size()) ++shared;
    reusable += static_cast<double>(lcp);
    kept_total += static_cast<double>(kept.size());
    for (std::size_t i = lcp; i < kept.size(); ++i) {
      trie.emplace_back();
      int child = static_cast<int>(trie.size()) - 1;
      trie[static_cast<std::size_t>(node)][kept[i]] = child;
      node = child;
    }
    if (!seen_items.insert(a.item).second) ++repeats;
    ++type_count[static_cast<int>(item.type)];
  }
  auto pct = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return percentile_sorted(v, q);
  };
  p.prompt_tokens_p50 = pct(prompt_len, 50);
  p.prompt_tokens_p90 = pct(prompt_len, 90);
  p.kept_tokens_p50 = pct(kept_len, 50);
  p.kept_tokens_p90 = pct(kept_len, 90);
  const double n = std::max<double>(1.0, static_cast<double>(p.arrivals));
  for (int t = 0; t < 4; ++t) p.type_share[t] = type_count[t] / n;
  p.shared_prefix_share = static_cast<double>(shared) / n;
  p.reusable_token_share = kept_total > 0 ? reusable / kept_total : 0.0;
  p.exact_repeat_share = static_cast<double>(repeats) / n;
  for (int ph = 0; ph < 2; ++ph) {
    std::size_t count = 0;
    for (const Arrival& a : w.arrivals)
      if (static_cast<int>(a.phase) == ph) ++count;
    if (w.phase_seconds[ph] > 0)
      p.arrival_rate[ph] = static_cast<double>(count) / w.phase_seconds[ph];
  }
  return p;
}

std::string properties_json(const InputProperties& p) {
  JsonObject mix;
  for (int t = 0; t < 4; ++t)
    mix.num(wisdom::data::generation_type_label(static_cast<GenerationType>(t)),
            p.type_share[t]);
  return JsonObject()
      .integer("arrivals", static_cast<long long>(p.arrivals))
      .integer("distinct_requests", static_cast<long long>(p.distinct))
      .num("prompt_tokens_p50", p.prompt_tokens_p50)
      .num("prompt_tokens_p90", p.prompt_tokens_p90)
      .num("kept_tokens_p50", p.kept_tokens_p50)
      .num("kept_tokens_p90", p.kept_tokens_p90)
      .raw("generation_type_mix", mix.done())
      .num("shared_prefix_share", p.shared_prefix_share)
      .num("reusable_token_share", p.reusable_token_share)
      .num("exact_repeat_share", p.exact_repeat_share)
      .num("arrival_rate_nominal_rps", p.arrival_rate[0])
      .num("arrival_rate_peak_rps", p.arrival_rate[1])
      .done();
}

}  // namespace servebench
