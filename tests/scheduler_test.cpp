// Continuous-batching tests: KvBlockAllocator lifecycle (exhaustion,
// COW refcounts, double-free tripwire, reuse of freed blocks), paged
// KvCache bit-identity against the monolithic layout (decode, clone/COW
// divergence, materialize fallback, truncate, beam search),
// decode_step_batch vs sequential decode_step, ContinuousScheduler
// parity with generate() (greedy, sampling, check-count deadlines,
// fuzzed mid-flight admissions), and service-level byte equality of
// continuous vs request-level vs sequential serving — including fault
// injection and arena exhaustion.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/config.hpp"
#include "model/kv_block.hpp"
#include "model/transformer.hpp"
#include "nn/ops.hpp"
#include "serve/fault.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"
#include "text/bpe.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nn = wisdom::nn;
namespace wm = wisdom::model;
namespace ws = wisdom::serve;
namespace wt = wisdom::text;
using wisdom::util::Deadline;
using wisdom::util::Rng;
using wisdom::util::ThreadPool;

namespace {

// Model builders and the ForceParallel guard are shared via
// test_util.hpp with the chaos and parity suites.
using wisdom::testutil::ForceParallel;
using wisdom::testutil::random_prompt;
using wisdom::testutil::tiny_config;

void expect_same_logits(std::span<const float> a, std::span<const float> b) {
  ASSERT_EQ(a.size(), b.size());
  // Bit-exact, not approximately equal: the whole continuous-batching
  // contract rests on it.
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

}  // namespace

// --- KvBlockAllocator -----------------------------------------------------

TEST(KvBlockAlloc, ExhaustionReturnsMinusOne) {
  wm::KvBlockAllocator arena(4, 8, 2, 16);
  std::set<std::int32_t> ids;
  for (int i = 0; i < 4; ++i) {
    std::int32_t id = arena.allocate();
    ASSERT_GE(id, 0);
    EXPECT_TRUE(ids.insert(id).second) << "duplicate block id";
  }
  EXPECT_EQ(arena.free_blocks(), 0);
  EXPECT_EQ(arena.allocate(), -1);
  const wm::KvBlockStats stats = arena.stats();
  EXPECT_EQ(stats.in_use, 4);
  EXPECT_EQ(stats.peak_in_use, 4);
  EXPECT_EQ(stats.failed_allocations, 1u);
}

TEST(KvBlockAlloc, DoubleFreeAndBadIdsThrow) {
  wm::KvBlockAllocator arena(2, 4, 1, 8);
  const std::int32_t id = arena.allocate();
  arena.release(id);
  EXPECT_THROW(arena.release(id), std::logic_error);
  EXPECT_THROW(arena.release(-1), std::logic_error);
  EXPECT_THROW(arena.release(2), std::logic_error);
  EXPECT_THROW(arena.add_ref(id), std::logic_error);
  EXPECT_THROW(arena.make_exclusive(id), std::logic_error);
}

TEST(KvBlockAlloc, RefcountSharing) {
  wm::KvBlockAllocator arena(2, 4, 1, 8);
  const std::int32_t id = arena.allocate();
  EXPECT_EQ(arena.ref_count(id), 1);
  arena.add_ref(id);
  EXPECT_EQ(arena.ref_count(id), 2);
  arena.release(id);
  // Still live under the second owner: not back on the free list.
  EXPECT_EQ(arena.ref_count(id), 1);
  EXPECT_EQ(arena.free_blocks(), 1);
  arena.release(id);
  EXPECT_EQ(arena.free_blocks(), 2);
}

TEST(KvBlockAlloc, MakeExclusiveCopiesSharedPayload) {
  wm::KvBlockAllocator arena(4, 4, 2, 8);
  const std::int32_t id = arena.allocate();
  // Block row r's key channel c: lane r of the block's one key tile.
  for (int layer = 0; layer < 2; ++layer)
    for (int row = 0; row < 4; ++row)
      for (int c = 0; c < 8; ++c) {
        arena.key_tile(id, layer, 0)[c * nn::kKeyTile + row] =
            static_cast<float>(100 * layer + 10 * row + c);
        arena.value_row(id, layer, row)[c] =
            -static_cast<float>(100 * layer + 10 * row + c);
      }
  // Exclusive owner: no copy, same id.
  EXPECT_EQ(arena.make_exclusive(id), id);
  EXPECT_EQ(arena.stats().cow_copies, 0u);

  arena.add_ref(id);
  const std::int32_t copy = arena.make_exclusive(id);
  ASSERT_GE(copy, 0);
  EXPECT_NE(copy, id);
  EXPECT_EQ(arena.ref_count(id), 1);
  EXPECT_EQ(arena.ref_count(copy), 1);
  EXPECT_EQ(arena.stats().cow_copies, 1u);
  for (int layer = 0; layer < 2; ++layer) {
    EXPECT_EQ(0, std::memcmp(arena.key_tile(id, layer, 0),
                             arena.key_tile(copy, layer, 0),
                             nn::kKeyTile * 8 * sizeof(float)));
    for (int row = 0; row < 4; ++row)
      EXPECT_EQ(0, std::memcmp(arena.value_row(id, layer, row),
                               arena.value_row(copy, layer, row),
                               8 * sizeof(float)));
  }
}

TEST(KvBlockAlloc, MakeExclusiveExhaustionLeavesRefcount) {
  wm::KvBlockAllocator arena(2, 4, 1, 8);
  const std::int32_t a = arena.allocate();
  (void)arena.allocate();  // arena now full
  arena.add_ref(a);
  EXPECT_EQ(arena.make_exclusive(a), -1);
  EXPECT_EQ(arena.ref_count(a), 2);
  EXPECT_EQ(arena.stats().failed_allocations, 1u);
}

// A block's keys take whole 16-row key tiles: a block of 3 rows pays for
// 16 rows of keys (and 3 of values), and every byte count the prefix-cache
// budget reads includes that padding.
TEST(KvBlockAlloc, BlockBytesCountKeyTilePadding) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 11);
  wm::KvBlockAllocator arena(8, 3, cfg.n_layer, cfg.d_model);
  const std::size_t per_layer =
      static_cast<std::size_t>(nn::kKeyTile + 3) * cfg.d_model;
  EXPECT_EQ(arena.block_bytes(), cfg.n_layer * per_layer * sizeof(float));

  wm::Transformer::KvCache cache = model.make_paged_cache(&arena);
  for (std::int32_t t = 0; t < 7; ++t) model.decode_step(cache, t);
  ASSERT_EQ(cache.block_table.size(), 3u);  // ceil(7/3)
  EXPECT_EQ(cache.byte_size(),
            3 * arena.block_bytes() +
                cache.logits.capacity() * sizeof(float) +
                cache.block_table.capacity() * sizeof(std::int32_t));

  // A multiple of the tile pads nothing.
  wm::KvBlockAllocator whole(2, 32, cfg.n_layer, cfg.d_model);
  EXPECT_EQ(whole.block_bytes(),
            cfg.n_layer * 2 * 32 * static_cast<std::size_t>(cfg.d_model) *
                sizeof(float));
}

TEST(KvBlockAlloc, NeverWrittenBlocksReadZero) {
  // Block size 3 pads each layer's key tile with 13 lanes; those read zero
  // too, so a padding lane never feeds attention a stale value.
  wm::KvBlockAllocator arena(4, 3, 2, 8);
  const std::int32_t written = arena.allocate();
  for (int layer = 0; layer < 2; ++layer) {
    float* tile = arena.key_tile(written, layer, 0);
    for (int i = 0; i < nn::kKeyTile * 8; ++i) tile[i] = 1.0f;
    for (int row = 0; row < 3; ++row)
      for (int c = 0; c < 8; ++c) arena.value_row(written, layer, row)[c] = 2.0f;
  }
  for (int b = 1; b < 4; ++b) {
    const std::int32_t id = arena.allocate();
    ASSERT_NE(id, -1);
    for (int layer = 0; layer < 2; ++layer) {
      const float* tile = arena.key_tile(id, layer, 0);
      for (int i = 0; i < nn::kKeyTile * 8; ++i)
        EXPECT_EQ(tile[i], 0.0f) << "block " << id << ", key float " << i;
      for (int row = 0; row < 3; ++row)
        for (int c = 0; c < 8; ++c)
          EXPECT_EQ(arena.value_row(id, layer, row)[c], 0.0f)
              << "block " << id << ", value row " << row;
    }
  }
}

TEST(KvBlockAlloc, FreedBlocksAreReusedWithoutFragmentation) {
  wm::KvBlockAllocator arena(8, 4, 1, 8);
  std::vector<std::int32_t> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(arena.allocate());
  // Free every other block, then reallocate: uniform blocks mean any free
  // block satisfies any request — the freed ids come straight back.
  std::set<std::int32_t> freed;
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    arena.release(ids[i]);
    freed.insert(ids[i]);
  }
  EXPECT_EQ(arena.free_blocks(), 4);
  for (int i = 0; i < 4; ++i) {
    const std::int32_t id = arena.allocate();
    EXPECT_TRUE(freed.count(id)) << "expected a recycled block";
  }
  EXPECT_EQ(arena.allocate(), -1);
}

// --- paged KvCache vs monolithic ------------------------------------------

TEST(PagedKvCache, BitIdenticalToMonolithic) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 11);
  Rng rng(3);
  const std::vector<std::int32_t> tokens =
      random_prompt(rng, 20, 20, cfg.vocab);
  for (int block_size : {1, 3, 16}) {
    wm::KvBlockAllocator arena(64, block_size, cfg.n_layer, cfg.d_model);
    wm::Transformer::KvCache mono = model.make_cache();
    wm::Transformer::KvCache paged = model.make_paged_cache(&arena);
    ASSERT_TRUE(paged.paged());
    for (std::int32_t t : tokens) {
      auto a = model.decode_step(mono, t);
      auto b = model.decode_step(paged, t);
      expect_same_logits(a, b);
    }
    EXPECT_TRUE(paged.paged()) << "no materialize expected here";
    EXPECT_EQ(paged.length, mono.length);
  }
}

TEST(PagedKvCache, CloneSharesBlocksAndCowDiverges) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 11);
  wm::KvBlockAllocator arena(64, 4, cfg.n_layer, cfg.d_model);
  Rng rng(5);
  const std::vector<std::int32_t> prefix = random_prompt(rng, 10, 10, cfg.vocab);

  wm::Transformer::KvCache paged = model.make_paged_cache(&arena);
  for (std::int32_t t : prefix) model.decode_step(paged, t);
  const int blocks_before = arena.stats().in_use;
  wm::Transformer::KvCache shared = paged.clone();
  // A paged clone is O(blocks): it shares instead of copying payload.
  EXPECT_EQ(arena.stats().in_use, blocks_before);
  EXPECT_EQ(arena.stats().cow_copies, 0u);

  // Diverge: parent and clone append different tokens. Appending into the
  // shared partial tail block must copy-on-write, leaving the other copy's
  // rows untouched.
  wm::Transformer::KvCache mono_a = model.make_cache();
  wm::Transformer::KvCache mono_b = model.make_cache();
  for (std::int32_t t : prefix) {
    model.decode_step(mono_a, t);
    model.decode_step(mono_b, t);
  }
  for (int i = 0; i < 6; ++i) {
    const std::int32_t ta = static_cast<std::int32_t>(i);
    const std::int32_t tb = static_cast<std::int32_t>(cfg.vocab - 1 - i);
    expect_same_logits(model.decode_step(paged, ta),
                       model.decode_step(mono_a, ta));
    expect_same_logits(model.decode_step(shared, tb),
                       model.decode_step(mono_b, tb));
  }
  EXPECT_GT(arena.stats().cow_copies, 0u);
}

TEST(PagedKvCache, MaterializesOnExhaustionAndStaysIdentical) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 11);
  // Room for only 8 rows: the 9th append exhausts the arena and the cache
  // must convert itself to monolithic mid-decode, bit-identically.
  wm::KvBlockAllocator arena(2, 4, cfg.n_layer, cfg.d_model);
  wm::Transformer::KvCache paged = model.make_paged_cache(&arena);
  wm::Transformer::KvCache mono = model.make_cache();
  Rng rng(7);
  const std::vector<std::int32_t> tokens =
      random_prompt(rng, 20, 20, cfg.vocab);
  for (std::int32_t t : tokens)
    expect_same_logits(model.decode_step(paged, t),
                       model.decode_step(mono, t));
  EXPECT_FALSE(paged.paged()) << "expected materialize fallback";
  EXPECT_EQ(paged.length, static_cast<int>(tokens.size()));
  // Every block went back to the free list.
  EXPECT_EQ(arena.free_blocks(), 2);
}

TEST(PagedKvCache, TruncateReleasesTailBlocks) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 11);
  wm::KvBlockAllocator arena(16, 4, cfg.n_layer, cfg.d_model);
  wm::Transformer::KvCache paged = model.make_paged_cache(&arena);
  for (std::int32_t t = 0; t < 15; ++t) model.decode_step(paged, t);
  EXPECT_EQ(arena.stats().in_use, 4);  // ceil(15/4)
  paged.truncate(5);
  EXPECT_EQ(arena.stats().in_use, 2);  // ceil(5/4)
  // Decoding resumes from the truncation point exactly like a monolithic
  // cache that ingested the surviving prefix.
  wm::Transformer::KvCache mono = model.make_cache();
  for (std::int32_t t = 0; t < 5; ++t) model.decode_step(mono, t);
  for (std::int32_t t = 40; t < 46; ++t)
    expect_same_logits(model.decode_step(paged, t),
                       model.decode_step(mono, t));
}

// Keys live in 16-row key tiles in every layout, and a block size that is
// not a multiple of 16 gives short tiles. Decoding across tile boundaries
// must give the monolithic cache's logits at every block size, through a
// clone that is re-grown and appended to, and after materialize().
TEST(PagedKvCache, KeyTileLayoutsAgreeAcrossBlockSizes) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 13);
  Rng rng(17);
  const std::vector<std::int32_t> tokens =
      random_prompt(rng, 40, 40, cfg.vocab);
  const int split = 19;  // mid-tile, past the first tile boundary
  std::vector<std::vector<float>> want;
  wm::Transformer::KvCache mono = model.make_cache();
  for (std::int32_t t : tokens) {
    const auto logits = model.decode_step(mono, t);
    want.emplace_back(logits.begin(), logits.end());
  }
  auto expect_tail = [&](wm::Transformer::KvCache& cache,
                         const std::string& label) {
    for (std::size_t i = split; i < tokens.size(); ++i) {
      SCOPED_TRACE(label + " row " + std::to_string(i));
      expect_same_logits(model.decode_step(cache, tokens[i]), want[i]);
    }
  };
  {
    // Monolithic clone: compacted to whole tiles, re-grown on append.
    wm::Transformer::KvCache prefix = model.make_cache();
    for (int i = 0; i < 30; ++i) model.decode_step(prefix, tokens[i]);
    wm::Transformer::KvCache clone = prefix.clone(split);
    expect_tail(clone, "monolithic clone");
  }
  for (int block_size : {1, 3, 16, 32}) {
    const std::string label = "block size " + std::to_string(block_size);
    wm::KvBlockAllocator arena(96, block_size, cfg.n_layer, cfg.d_model);
    wm::Transformer::KvCache paged = model.make_paged_cache(&arena);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      SCOPED_TRACE(label + " row " + std::to_string(i));
      expect_same_logits(model.decode_step(paged, tokens[i]), want[i]);
    }
    // A shared clone diverges by copy-on-write, then re-grows.
    wm::Transformer::KvCache clone = paged.clone(split);
    expect_tail(clone, label + " clone");
    // The same prefix converted to the monolithic layout.
    wm::Transformer::KvCache moved = paged.clone(split);
    moved.materialize();
    ASSERT_FALSE(moved.paged());
    expect_tail(moved, label + " materialized");
  }
}

TEST(PagedKvCache, BeamSearchFromPagedWarmCacheMatches) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 11);
  wm::KvBlockAllocator arena(64, 4, cfg.n_layer, cfg.d_model);
  Rng rng(9);
  const std::vector<std::int32_t> prompt =
      random_prompt(rng, 12, 12, cfg.vocab);

  wm::Transformer::BeamOptions beam;
  beam.beam_width = 3;
  beam.max_new_tokens = 8;
  const std::vector<std::int32_t> cold = model.generate_beam(prompt, beam);

  // Warm roots: one monolithic and one paged prefill of the same prompt.
  wm::Transformer::KvCache mono = model.make_cache();
  wm::Transformer::KvCache paged = model.make_paged_cache(&arena);
  const auto kept = model.kept_prompt(prompt, beam.max_new_tokens);
  for (std::int32_t t : kept) {
    model.decode_step(mono, t);
    model.decode_step(paged, t);
  }
  wm::Transformer::BeamOptions warm_mono = beam;
  warm_mono.warm_cache = &mono;
  wm::Transformer::BeamOptions warm_paged = beam;
  warm_paged.warm_cache = &paged;
  EXPECT_EQ(model.generate_beam(prompt, warm_mono), cold);
  EXPECT_EQ(model.generate_beam(prompt, warm_paged), cold);
}

// --- batched decode step --------------------------------------------------

TEST(DecodeStepBatch, MatchesSequentialAtAnyThreadCount) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 13);
  Rng rng(21);
  // Four sequences at different positions, mixed paged/monolithic.
  std::vector<std::vector<std::int32_t>> prefixes;
  for (int s = 0; s < 4; ++s)
    prefixes.push_back(random_prompt(rng, 1 + 3 * s, 1 + 3 * s, cfg.vocab));

  for (int threads : {1, 4}) {
    ForceParallel force;
    ThreadPool::set_global_threads(threads);
    wm::KvBlockAllocator arena(64, 4, cfg.n_layer, cfg.d_model);
    std::vector<wm::Transformer::KvCache> batched, sequential;
    for (int s = 0; s < 4; ++s) {
      batched.push_back(s % 2 == 0 ? model.make_paged_cache(&arena)
                                   : model.make_cache());
      sequential.push_back(model.make_cache());
      for (std::int32_t t : prefixes[static_cast<std::size_t>(s)]) {
        model.decode_step(batched.back(), t);
        model.decode_step(sequential.back(), t);
      }
    }
    for (int step = 0; step < 6; ++step) {
      std::vector<wm::Transformer::KvCache*> caches;
      std::vector<std::int32_t> tokens;
      for (int s = 0; s < 4; ++s) {
        caches.push_back(&batched[static_cast<std::size_t>(s)]);
        tokens.push_back(static_cast<std::int32_t>((7 * step + s) %
                                                   cfg.vocab));
      }
      model.decode_step_batch(caches, tokens);
      for (int s = 0; s < 4; ++s) {
        auto expected = model.decode_step(
            sequential[static_cast<std::size_t>(s)],
            tokens[static_cast<std::size_t>(s)]);
        expect_same_logits(batched[static_cast<std::size_t>(s)].logits,
                           expected);
      }
    }
  }
  ThreadPool::set_global_threads(0);
}

// --- ContinuousScheduler parity -------------------------------------------

namespace {

struct Reference {
  std::vector<std::int32_t> tokens;
  wm::Transformer::GenerateStatus status;
};

// Sequential generate() with a fresh deadline of the same budget.
Reference run_reference(const wm::Transformer& model,
                        const std::vector<std::int32_t>& prompt,
                        int max_new, std::int32_t stop, float temperature,
                        int top_k, std::uint64_t seed,
                        std::int64_t deadline_checks) {
  Reference ref;
  wm::Transformer::GenerateOptions gen;
  gen.max_new_tokens = max_new;
  gen.stop_token = stop;
  gen.temperature = temperature;
  gen.top_k = top_k;
  gen.sample_seed = seed;
  if (deadline_checks >= 0) gen.deadline = Deadline::after_checks(deadline_checks);
  gen.status = &ref.status;
  ref.tokens = model.generate(prompt, gen);
  return ref;
}

}  // namespace

TEST(ContinuousScheduler, GreedyMatchesGenerate) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 17);
  wm::KvBlockAllocator arena(256, 4, cfg.n_layer, cfg.d_model);
  Rng rng(31);

  std::vector<ws::SeqRequest> requests(6);
  std::vector<Reference> expected;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ws::SeqRequest& req = requests[i];
    req.prompt = i == 4 ? std::vector<std::int32_t>{}  // empty prompt
                        : random_prompt(rng, 3, 20, cfg.vocab);
    req.max_new_tokens = i == 5 ? 0 : 4 + static_cast<int>(i) * 3;
    req.stop_token = 7;  // greedy argmax may emit it — exercises early stop
    expected.push_back(run_reference(model, req.prompt, req.max_new_tokens,
                                     req.stop_token, 0.0f, 0, 1, -1));
  }
  ws::SchedulerOptions options;
  options.max_in_flight = 4;
  options.arena = &arena;
  ws::ContinuousScheduler scheduler(model, options);
  std::vector<wm::Transformer::GenerateStatus> statuses(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    requests[i].status = &statuses[i];
  const auto outs = scheduler.run(requests);
  ASSERT_EQ(outs.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(outs[i], expected[i].tokens) << "request " << i;
    EXPECT_EQ(statuses[i].steps_taken, expected[i].status.steps_taken);
    EXPECT_EQ(statuses[i].deadline_expired,
              expected[i].status.deadline_expired);
  }
  EXPECT_EQ(scheduler.last_run().admitted, static_cast<int>(requests.size()));
  EXPECT_LE(scheduler.last_run().peak_in_flight, 4);
  // Everything retired: all blocks returned.
  EXPECT_EQ(arena.free_blocks(), 256);
}

TEST(ContinuousScheduler, SamplingMatchesGenerate) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 17);
  Rng rng(37);
  std::vector<ws::SeqRequest> requests(5);
  std::vector<Reference> expected;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ws::SeqRequest& req = requests[i];
    req.prompt = random_prompt(rng, 3, 12, cfg.vocab);
    req.max_new_tokens = 10;
    req.temperature = 0.8f;
    req.top_k = 5;
    req.sample_seed = 1000 + i;  // distinct streams per sequence
    expected.push_back(run_reference(model, req.prompt, req.max_new_tokens,
                                     -1, req.temperature, req.top_k,
                                     req.sample_seed, -1));
  }
  ws::ContinuousScheduler scheduler(model);  // no arena: monolithic caches
  const auto outs = scheduler.run(requests);
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(outs[i], expected[i].tokens) << "request " << i;
}

TEST(ContinuousScheduler, CheckCountDeadlinesSpendIdentically) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 17);
  wm::KvBlockAllocator arena(256, 4, cfg.n_layer, cfg.d_model);
  Rng rng(41);
  // Budgets that cut during prefill (0, 2), mid-decode, and never.
  const std::int64_t budgets[] = {0, 2, 9, 14, 1000};
  std::vector<ws::SeqRequest> requests(std::size(budgets));
  std::vector<Reference> expected;
  std::vector<wm::Transformer::GenerateStatus> statuses(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ws::SeqRequest& req = requests[i];
    req.prompt = random_prompt(rng, 6, 10, cfg.vocab);
    req.max_new_tokens = 8;
    req.deadline = Deadline::after_checks(budgets[i]);
    req.status = &statuses[i];
    expected.push_back(run_reference(model, req.prompt, req.max_new_tokens,
                                     -1, 0.0f, 0, 1, budgets[i]));
  }
  ws::SchedulerOptions options;
  options.max_in_flight = 3;  // forces waves: budgets must not bleed
  options.arena = &arena;
  ws::ContinuousScheduler scheduler(model, options);
  const auto outs = scheduler.run(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(outs[i], expected[i].tokens) << "budget " << budgets[i];
    EXPECT_EQ(statuses[i].deadline_expired,
              expected[i].status.deadline_expired)
        << "budget " << budgets[i];
    EXPECT_EQ(statuses[i].steps_taken, expected[i].status.steps_taken)
        << "budget " << budgets[i];
  }
}

TEST(ContinuousScheduler, WarmCacheAndSnapshotParity) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 17);
  wm::KvBlockAllocator arena(256, 4, cfg.n_layer, cfg.d_model);
  Rng rng(43);
  const std::vector<std::int32_t> prompt = random_prompt(rng, 10, 10, cfg.vocab);
  const int max_new = 6;

  // Reference: sequential generate, capturing the prompt snapshot.
  wm::Transformer::GenerateOptions gen;
  gen.max_new_tokens = max_new;
  wm::Transformer::KvCache ref_snapshot;
  gen.prompt_snapshot = &ref_snapshot;
  const auto cold = model.generate(prompt, gen);

  // Scheduler run capturing a (paged) snapshot.
  std::vector<ws::SeqRequest> first(1);
  first[0].prompt = prompt;
  first[0].max_new_tokens = max_new;
  wm::Transformer::KvCache sched_snapshot;
  first[0].prompt_snapshot = &sched_snapshot;
  ws::SchedulerOptions options;
  options.arena = &arena;
  ws::ContinuousScheduler scheduler(model, options);
  auto outs = scheduler.run(first);
  EXPECT_EQ(outs[0], cold);
  ASSERT_TRUE(sched_snapshot.paged());
  EXPECT_EQ(sched_snapshot.length, ref_snapshot.length);

  // Warm restart from each snapshot (full prefix hit) must reproduce the
  // cold bytes — through the scheduler and through generate().
  std::vector<ws::SeqRequest> warm(1);
  warm[0].prompt = prompt;
  warm[0].max_new_tokens = max_new;
  wm::Transformer::KvCache warm_clone = sched_snapshot.clone();
  warm[0].warm_cache = &warm_clone;
  std::vector<wm::Transformer::GenerateStatus> statuses(1);
  warm[0].status = &statuses[0];
  outs = scheduler.run(warm);
  EXPECT_EQ(outs[0], cold);
  EXPECT_EQ(statuses[0].prefill_tokens_reused, ref_snapshot.length);

  wm::Transformer::KvCache warm_mono = ref_snapshot.clone();
  wm::Transformer::GenerateOptions warm_gen;
  warm_gen.max_new_tokens = max_new;
  warm_gen.warm_cache = &warm_mono;
  EXPECT_EQ(model.generate(prompt, warm_gen), cold);
}

TEST(ContinuousScheduler, FuzzInterleavedAdmissionsMatchSequential) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 19);
  for (std::uint64_t round = 0; round < 6; ++round) {
    Rng rng(1000 + round);
    // A deliberately tight arena: some admissions fall back to monolithic
    // caches and long sequences can exhaust it mid-flight (materialize).
    wm::KvBlockAllocator arena(static_cast<int>(rng.uniform_int(6, 40)), 4,
                               cfg.n_layer, cfg.d_model);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(3, 10));
    std::vector<ws::SeqRequest> requests(n);
    std::vector<Reference> expected;
    std::vector<wm::Transformer::GenerateStatus> statuses(n);
    for (std::size_t i = 0; i < n; ++i) {
      ws::SeqRequest& req = requests[i];
      req.prompt = random_prompt(rng, 1, 24, cfg.vocab);
      req.max_new_tokens = static_cast<int>(rng.uniform_int(1, 12));
      req.stop_token = rng.chance(0.5) ? 7 : -1;
      req.arrival_step = static_cast<int>(rng.uniform_int(0, 20));
      req.status = &statuses[i];
      // ~half the requests decode under a tight check budget — the
      // fault-injected "slow decode" shape from the serving layer.
      const std::int64_t budget =
          rng.chance(0.5) ? rng.uniform_int(0, 30) : -1;
      if (budget >= 0) req.deadline = Deadline::after_checks(budget);
      expected.push_back(run_reference(model, req.prompt, req.max_new_tokens,
                                       req.stop_token, 0.0f, 0, 1, budget));
    }
    ws::SchedulerOptions options;
    options.max_in_flight = static_cast<int>(rng.uniform_int(1, 4));
    options.arena = &arena;
    ws::ContinuousScheduler scheduler(model, options);
    const auto outs = scheduler.run(requests);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(outs[i], expected[i].tokens)
          << "round " << round << " request " << i;
      EXPECT_EQ(statuses[i].deadline_expired,
                expected[i].status.deadline_expired)
          << "round " << round << " request " << i;
      EXPECT_EQ(statuses[i].steps_taken, expected[i].status.steps_taken)
          << "round " << round << " request " << i;
    }
    // Every sequence retired; nothing leaked from the arena.
    EXPECT_EQ(arena.free_blocks(), arena.capacity())
        << "round " << round;
  }
}

// --- service-level continuous batching ------------------------------------

namespace {

using wisdom::testutil::serving_model;
using wisdom::testutil::serving_tokenizer;

std::vector<ws::SuggestionRequest> serving_requests() {
  std::vector<ws::SuggestionRequest> requests(7);
  const char* prompts[] = {"Install nginx",  "Start redis",
                           "Copy a file",    "Install nginx",
                           "Enable service", "Install nginx",
                           "Remove package"};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].prompt = prompts[i];
    requests[i].indent = static_cast<int>(i % 3);
  }
  return requests;
}

void expect_same_payload(const ws::SuggestionResponse& a,
                         const ws::SuggestionResponse& b, std::size_t i) {
  EXPECT_EQ(a.snippet, b.snippet) << "request " << i;
  EXPECT_EQ(a.ok, b.ok) << "request " << i;
  EXPECT_EQ(a.schema_correct, b.schema_correct) << "request " << i;
  EXPECT_EQ(a.generated_tokens, b.generated_tokens) << "request " << i;
  EXPECT_EQ(a.degraded, b.degraded) << "request " << i;
  EXPECT_EQ(a.error, b.error) << "request " << i;
}

}  // namespace

TEST(ContinuousService, BatchMatchesRequestLevelAndSequential) {
  const wt::BpeTokenizer tokenizer = serving_tokenizer();
  const wm::Transformer model = serving_model(tokenizer);
  const auto requests = serving_requests();
  for (bool caches_on : {false, true}) {
    ws::ServiceOptions options;
    options.prefix_cache_enabled = caches_on;
    options.response_cache_enabled = caches_on;

    ws::ServiceOptions sequential_options = options;
    ws::InferenceService sequential(model, tokenizer, sequential_options);
    std::vector<ws::SuggestionResponse> expected;
    for (const auto& r : requests) expected.push_back(sequential.suggest(r));

    ws::ServiceOptions request_level = options;
    request_level.continuous_batching = false;
    ws::InferenceService pooled(model, tokenizer, request_level);
    const auto pooled_responses = pooled.suggest_batch(requests);

    ws::ServiceOptions continuous = options;
    continuous.max_batch_sequences = 3;  // narrower than the batch
    ws::InferenceService batched(model, tokenizer, continuous);
    const auto responses = batched.suggest_batch(requests);

    ASSERT_EQ(responses.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      expect_same_payload(responses[i], expected[i], i);
      expect_same_payload(responses[i], pooled_responses[i], i);
    }
    const ws::ServiceStats stats = batched.stats_snapshot();
    EXPECT_EQ(stats.requests, requests.size());
    EXPECT_EQ(stats.latencies_ms.size(), requests.size());
    EXPECT_GT(stats.total_wall_ms, 0.0);
  }
}

TEST(ContinuousService, FaultInjectionMatchesSequential) {
  const wt::BpeTokenizer tokenizer = serving_tokenizer();
  const wm::Transformer model = serving_model(tokenizer);
  const auto requests = serving_requests();

  // Generate-failure credits burn in arrival order on both paths.
  {
    ws::FaultInjector faults;
    ws::ServiceOptions options;
    options.faults = &faults;
    ws::InferenceService sequential(model, tokenizer, options);
    faults.set_fail_generate(2);
    std::vector<ws::SuggestionResponse> expected;
    for (const auto& r : requests) expected.push_back(sequential.suggest(r));

    ws::FaultInjector batch_faults;
    ws::ServiceOptions continuous = options;
    continuous.faults = &batch_faults;
    ws::InferenceService batched(model, tokenizer, continuous);
    batch_faults.set_fail_generate(2);
    const auto responses = batched.suggest_batch(requests);
    for (std::size_t i = 0; i < requests.size(); ++i)
      expect_same_payload(responses[i], expected[i], i);
  }
  // Slow decode: every request under a tight check-count budget.
  {
    ws::FaultInjector faults;
    ws::ServiceOptions options;
    options.faults = &faults;
    ws::InferenceService sequential(model, tokenizer, options);
    faults.set_slow_decode_after_tokens(6);
    std::vector<ws::SuggestionResponse> expected;
    for (const auto& r : requests) expected.push_back(sequential.suggest(r));

    ws::FaultInjector batch_faults;
    ws::ServiceOptions continuous = options;
    continuous.faults = &batch_faults;
    ws::InferenceService batched(model, tokenizer, continuous);
    batch_faults.set_slow_decode_after_tokens(6);
    const auto responses = batched.suggest_batch(requests);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      expect_same_payload(responses[i], expected[i], i);
      EXPECT_EQ(responses[i].error, ws::ServiceError::DeadlineExceeded);
    }
  }
}

TEST(ContinuousService, TinyArenaFallsBackMonolithically) {
  const wt::BpeTokenizer tokenizer = serving_tokenizer();
  const wm::Transformer model = serving_model(tokenizer);
  const auto requests = serving_requests();

  ws::InferenceService sequential(model, tokenizer);
  std::vector<ws::SuggestionResponse> expected;
  for (const auto& r : requests) expected.push_back(sequential.suggest(r));

  ws::ServiceOptions options;
  options.kv_arena_blocks = 2;  // almost nothing: most seqs go monolithic
  ws::InferenceService batched(model, tokenizer, options);
  const auto responses = batched.suggest_batch(requests);
  for (std::size_t i = 0; i < requests.size(); ++i)
    expect_same_payload(responses[i], expected[i], i);
  const auto* fallbacks = batched.metrics().find_counter(
      "wisdom_sched_monolithic_fallback_total");
  ASSERT_NE(fallbacks, nullptr);
  EXPECT_GT(fallbacks->value(), 0u);
}

// --- KV-pressure preemption and the scheduler watchdog ---------------------

TEST(SchedulerPreemption, RealPressurePreemptsAndStaysByteIdentical) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 17);
  // Each sequence's worst case is 7 blocks (8 prompt + 20 generated rows,
  // block size 4); two in flight need 14. A 10-block arena admits both
  // paged (admission sees a near-empty arena) and must preempt mid-flight.
  wm::KvBlockAllocator arena(10, 4, cfg.n_layer, cfg.d_model);
  Rng rng(53);

  std::vector<ws::SeqRequest> requests(3);
  std::vector<Reference> expected;
  std::vector<wm::Transformer::GenerateStatus> statuses(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ws::SeqRequest& req = requests[i];
    req.prompt = random_prompt(rng, 8, 8, cfg.vocab);
    req.max_new_tokens = 20;
    if (i == 2) {  // one sampling sequence in the mix
      req.temperature = 0.8f;
      req.top_k = 5;
      req.sample_seed = 77;
    }
    req.status = &statuses[i];
    expected.push_back(run_reference(model, req.prompt, req.max_new_tokens,
                                     -1, req.temperature, req.top_k,
                                     req.sample_seed, -1));
  }
  ws::SchedulerOptions options;
  options.max_in_flight = 2;
  options.arena = &arena;
  ws::ContinuousScheduler scheduler(model, options);
  const auto outs = scheduler.run(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(outs[i], expected[i].tokens) << "request " << i;
    EXPECT_EQ(statuses[i].steps_taken, expected[i].status.steps_taken)
        << "request " << i;
    EXPECT_FALSE(statuses[i].deadline_expired) << "request " << i;
  }
  const ws::SchedulerRunStats& stats = scheduler.last_run();
  EXPECT_GT(stats.preemptions, 0);
  EXPECT_GT(stats.preempt_blocks_released, 0);
  EXPECT_GT(stats.preempt_recompute_tokens, 0);
  // The derived watchdog bound never trips on a fault-free run — even a
  // preemption-heavy one on a tiny arena.
  EXPECT_EQ(stats.watchdog_retired, 0);
  // Preempted-and-resumed sequences returned every block on retirement.
  EXPECT_EQ(arena.free_blocks(), arena.capacity());
}

TEST(SchedulerPreemption, InjectedExhaustionChurnsWithinCaps) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 17);
  wm::KvBlockAllocator arena(256, 4, cfg.n_layer, cfg.d_model);
  Rng rng(59);
  ws::FaultInjector faults;
  // From step 3 on the pressure check sees zero free blocks; real
  // allocations still succeed, so decodes complete and the churn is pure
  // preemption/requeue traffic.
  faults.set_arena_exhaust_at_step(3);

  const int kMaxPreempt = 2;
  std::vector<ws::SeqRequest> requests(4);
  std::vector<Reference> expected;
  std::vector<wm::Transformer::GenerateStatus> statuses(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ws::SeqRequest& req = requests[i];
    req.prompt = random_prompt(rng, 4, 12, cfg.vocab);
    req.max_new_tokens = 10;
    req.status = &statuses[i];
    expected.push_back(run_reference(model, req.prompt, req.max_new_tokens,
                                     -1, 0.0f, 0, 1, -1));
  }
  ws::SchedulerOptions options;
  options.max_in_flight = 3;
  options.arena = &arena;
  options.max_preemptions_per_seq = kMaxPreempt;
  options.faults = &faults;
  ws::ContinuousScheduler scheduler(model, options);
  const auto outs = scheduler.run(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(outs[i], expected[i].tokens) << "request " << i;
    EXPECT_EQ(statuses[i].steps_taken, expected[i].status.steps_taken)
        << "request " << i;
  }
  const ws::SchedulerRunStats& stats = scheduler.last_run();
  EXPECT_GT(stats.preemptions, 0);
  // The per-sequence cap bounds total churn: once every sequence has been
  // victimized kMaxPreempt times, preemption stops and decoding proceeds
  // against the (injected) exhaustion via monolithic materialization.
  EXPECT_LE(stats.preemptions,
            kMaxPreempt * static_cast<int>(requests.size()));
  EXPECT_EQ(stats.watchdog_retired, 0);
  EXPECT_EQ(arena.free_blocks(), arena.capacity());
}

TEST(SchedulerPreemption, FiniteStallDelaysButStaysByteIdentical) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 17);
  wm::KvBlockAllocator arena(64, 4, cfg.n_layer, cfg.d_model);
  Rng rng(61);
  ws::FaultInjector faults;
  faults.set_stall_steps(4);  // four wedged iterations, then normal

  std::vector<ws::SeqRequest> requests(3);
  std::vector<Reference> expected;
  for (auto& req : requests) {
    req.prompt = random_prompt(rng, 3, 10, cfg.vocab);
    req.max_new_tokens = 6;
    expected.push_back(run_reference(model, req.prompt, req.max_new_tokens,
                                     -1, 0.0f, 0, 1, -1));
  }
  ws::SchedulerOptions options;
  options.arena = &arena;
  options.faults = &faults;
  ws::ContinuousScheduler scheduler(model, options);
  const auto outs = scheduler.run(requests);
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(outs[i], expected[i].tokens) << "request " << i;
  EXPECT_EQ(scheduler.last_run().watchdog_retired, 0);
  EXPECT_EQ(arena.free_blocks(), arena.capacity());
}

TEST(SchedulerWatchdog, InfiniteStallForceRetiresAsDeadlineExpired) {
  const wm::ModelConfig cfg = tiny_config();
  const wm::Transformer model(cfg, 17);
  wm::KvBlockAllocator arena(64, 4, cfg.n_layer, cfg.d_model);
  Rng rng(67);
  ws::FaultInjector faults;
  faults.set_stall_steps(-1);  // wedged forever: only the watchdog exits

  const int kBound = 10;
  std::vector<ws::SeqRequest> requests(2);
  std::vector<wm::Transformer::GenerateStatus> statuses(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].prompt = random_prompt(rng, 4, 8, cfg.vocab);
    requests[i].max_new_tokens = 8;
    requests[i].status = &statuses[i];
  }
  ws::SchedulerOptions options;
  options.arena = &arena;
  options.watchdog_iterations = kBound;
  options.faults = &faults;
  ws::ContinuousScheduler scheduler(model, options);
  const auto outs = scheduler.run(requests);  // must terminate
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(outs[i].empty()) << "request " << i;
    EXPECT_TRUE(statuses[i].deadline_expired) << "request " << i;
  }
  const ws::SchedulerRunStats& stats = scheduler.last_run();
  EXPECT_EQ(stats.watchdog_retired, static_cast<int>(requests.size()));
  // No sequence outlived its bound by more than the retiring iteration.
  EXPECT_LE(stats.max_seq_age, kBound + 1);
  EXPECT_EQ(arena.free_blocks(), arena.capacity());
}

TEST(ContinuousService, InjectedExhaustionIsByteTransparentThroughService) {
  const wt::BpeTokenizer tokenizer = serving_tokenizer();
  const wm::Transformer model = serving_model(tokenizer);
  const auto requests = serving_requests();

  ws::InferenceService sequential(model, tokenizer);
  std::vector<ws::SuggestionResponse> expected;
  for (const auto& r : requests) expected.push_back(sequential.suggest(r));

  ws::FaultInjector faults;
  faults.set_arena_exhaust_at_step(2);
  ws::ServiceOptions options;
  options.faults = &faults;
  ws::InferenceService batched(model, tokenizer, options);
  const auto responses = batched.suggest_batch(requests);
  for (std::size_t i = 0; i < requests.size(); ++i)
    expect_same_payload(responses[i], expected[i], i);
  const auto* preempted =
      batched.metrics().find_counter("wisdom_sched_preempt_total");
  ASSERT_NE(preempted, nullptr);
  EXPECT_GT(preempted->value(), 0u);
}
