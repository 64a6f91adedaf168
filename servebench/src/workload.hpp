// The system under test and the seeded traffic that drives it.
//
// System: the paper's served model, the 350M analog at a 192-token context
// (the analog of the paper's 2048-token window), fine-tuned by a fixed,
// seeded recipe on the synthetic Galaxy split with a 512-entry BPE
// tokenizer. The checkpoint is trained once (`servebench train`) and
// committed, so every run and both sides of a comparison serve identical
// weights.
//
// Workloads (the program under test receives only the generated requests):
//   ide-cold     open loop, Poisson arrivals of independent users at two
//                frozen rates; every request is a distinct held-out sample.
//   ide-session  open loop, Poisson-arriving editing sessions that walk one
//                role or playbook task by task with think time; a share of
//                requests re-trigger the same line exactly.
//   batch-eval   closed loop, in-process: the held-out test split through
//                InferenceService::suggest_batch, scored against gold.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "model/transformer.hpp"
#include "serve/service.hpp"
#include "text/bpe.hpp"
#include "util/rng.hpp"

namespace servebench {

// --- the served model ------------------------------------------------------

struct Recipe {
  std::uint64_t seed = 2023;
  int vocab = 512;
  int context = 192;
  int epochs = 8;
  int micro_batch = 8;
  int grad_accum = 1;
  float lr = 2e-3f;
};

struct ServedModel {
  wisdom::text::BpeTokenizer tokenizer;
  wisdom::model::Transformer model;
};

// The recipe's Galaxy split (deterministic in Recipe::seed).
wisdom::data::DatasetSplits recipe_splits(const Recipe& recipe);
// Trains the served model by the recipe and writes the checkpoint.
bool train_checkpoint(const Recipe& recipe, const std::string& path);
std::optional<ServedModel> load_served(const std::string& path,
                                       std::string* error);

// Service options shared by every workload: prefix cache, response memo,
// lint repair, a bounded admission queue, greedy decoding, no speculation.
wisdom::serve::ServiceOptions service_options(int queue_capacity,
                                              int max_batch_sequences);

// --- traffic -----------------------------------------------------------------

// One distinct request and its gold completion.
struct Item {
  wisdom::serve::SuggestionRequest request;
  std::string gold;  // name line + target body (what metrics compare to)
  wisdom::data::GenerationType type = wisdom::data::GenerationType::NlToTask;
};

enum class Phase : int { Nominal = 0, Peak = 1 };

// One scheduled send of an item.
struct Arrival {
  std::size_t item = 0;
  double due_s = 0.0;  // offset from the phase start
  Phase phase = Phase::Nominal;
  bool repeat = false;  // exact re-trigger of an earlier request
};

// The frozen open-loop rates (requests per second) of a workload.
struct Rates {
  double nominal = 0.0;
  double peak = 0.0;
};

struct Workload {
  std::string name;
  std::vector<Item> items;
  // Open loop: sorted by (phase, due_s). Closed loop (batch-eval): the
  // item order, due_s unused.
  std::vector<Arrival> arrivals;
  Rates rates;
  double phase_seconds[2] = {0.0, 0.0};  // scheduled span of each phase
};

bool is_workload(const std::string& name);
// Builds the named workload for `seconds` of measurement from `seed`. No
// request is a sample the served model was trained on. The tokenizer keeps
// ide-session prompts inside the kept-prompt budget (null: no limit).
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds, const Recipe& recipe,
                       const wisdom::text::BpeTokenizer* tokenizer);

// `n` arrivals of a Poisson process at `rate` per second, conditioned on
// all n falling within n / rate seconds (sorted uniform points).
std::vector<double> poisson_schedule(wisdom::util::Rng& rng, double rate,
                                     std::size_t n);

// Properties of a workload's inputs, reported with every result so a cache
// or prefill claim can cite the share of traffic that has its property.
struct InputProperties {
  double prompt_tokens_p50 = 0, prompt_tokens_p90 = 0;
  double kept_tokens_p50 = 0, kept_tokens_p90 = 0;
  // Generation-type mix, shares of arrivals, in GenerationType order.
  double type_share[4] = {0, 0, 0, 0};
  // Arrivals whose kept prompt shares at least half its tokens as a prefix
  // with an earlier arrival's kept prompt.
  double shared_prefix_share = 0;
  // Kept-prompt tokens covered by the longest prefix shared with an earlier
  // arrival, over all kept tokens (the prefill a perfect cache could skip).
  double reusable_token_share = 0;
  double exact_repeat_share = 0;
  double arrival_rate[2] = {0, 0};  // achieved, per phase (open loop)
  std::size_t arrivals = 0;
  std::size_t distinct = 0;
};
InputProperties measure_properties(const Workload& workload,
                                   const ServedModel& served, int max_new_tokens);
std::string properties_json(const InputProperties& props);

}  // namespace servebench
