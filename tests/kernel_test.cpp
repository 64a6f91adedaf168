// The decode kernels against reference loops that live in this file. The
// references spell out the accumulation order DESIGN.md ("Decode kernels")
// promises, and every comparison is memcmp: bit for bit, no tolerance.
//
// This file is compiled with the kernels' floating-point flags
// (-ffast-math, see tests/CMakeLists.txt), so both sides contract a * b + c
// into a fused multiply-add the same way. Where fast-math would be free to
// reassociate a reference sum, the pinned_* helpers route each partial
// result through a volatile, which fixes the order as written.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "model/config.hpp"
#include "model/transformer.hpp"
#include "nn/ops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nn = wisdom::nn;
using wisdom::model::Transformer;
using wisdom::util::Rng;
using wisdom::util::ThreadPool;

namespace {

// Normal samples with exact +0.0 and -0.0 mixed in (every kernel skips or
// multiplies zeros, and -0.0 is where a sign-of-zero slip would show).
std::vector<float> sample(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (float& x : v) {
    const double u = rng.uniform_real();
    x = u < 0.1 ? 0.0f : u < 0.2 ? -0.0f : static_cast<float>(rng.normal());
  }
  return v;
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

float pinned_add(float a, float b) {
  volatile float s = a + b;
  return s;
}

float pinned_fma(float acc, float a, float b) {
  volatile float s = acc + a * b;
  return s;
}

// C = A * B: each c[i][j] sums a[i][p] * b[p][j] over ascending p from 0,
// skipping a[i][p] == 0.
void reference_matmul(const float* a, const float* b, float* c, int m, int k,
                      int n) {
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) crow[j] = 0.0f;
    for (int p = 0; p < k; ++p) {
      const float av = a[static_cast<std::size_t>(i) * k + p];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] = pinned_fma(crow[j], av, brow[j]);
    }
  }
}

// q . k in the documented channel order: 16-channel blocks lane-wise,
// folded to 8 lanes, one more 8-channel block lane-wise, the 8 lanes
// reduced pairwise (l with l + 4, then l + 2, then l + 1), then the rest
// one channel at a time.
float reference_dot(const float* q, const float* k, int hd) {
  int c = 0;
  float y[8];
  bool lanes = false;
  if (hd >= 16) {
    float z[16] = {};
    for (; c + 16 <= hd; c += 16)
      for (int l = 0; l < 16; ++l) z[l] = pinned_fma(z[l], q[c + l], k[c + l]);
    for (int l = 0; l < 8; ++l) y[l] = pinned_add(z[l + 8], z[l]);
    if (hd - c >= 8) {
      for (int l = 0; l < 8; ++l) y[l] = pinned_fma(y[l], q[c + l], k[c + l]);
      c += 8;
    }
    lanes = true;
  } else if (hd >= 8) {
    for (int l = 0; l < 8; ++l) {
      volatile float p = q[l] * k[l];
      y[l] = p;
    }
    c = 8;
    lanes = true;
  }
  float acc = 0.0f;
  if (lanes) {
    float r[2];
    for (int l = 0; l < 2; ++l)
      r[l] = pinned_add(pinned_add(y[l], y[l + 4]),
                        pinned_add(y[l + 2], y[l + 6]));
    acc = pinned_add(r[0], r[1]);
  }
  for (; c < hd; ++c) acc = pinned_fma(acc, q[c], k[c]);
  return acc;
}

// The rotation as nn::rotary computed it before the angle table existed:
// pow/cos/sin per call. Rotating the pair (1, 0) by it yields (cos, sin).
void reference_rotary(float* x, int t, int dim, int rot_dim, int pos0) {
  const int half = rot_dim / 2;
  for (int i = 0; i < t; ++i) {
    float* row = x + static_cast<std::size_t>(i) * dim;
    const float pos = static_cast<float>(pos0 + i);
    for (int j = 0; j < half; ++j) {
      float theta =
          pos * std::pow(10000.0f, -2.0f * static_cast<float>(j) /
                                        static_cast<float>(rot_dim));
      float c = std::cos(theta);
      float s = std::sin(theta);
      float a = row[j];
      float b = row[j + half];
      row[j] = a * c - b * s;
      row[j + half] = a * s + b * c;
    }
  }
}

// Every position below table.positions matches the per-call formula.
void expect_table_matches_formula(const nn::RotaryTable& table,
                                  int rot_dim) {
  const int half = rot_dim / 2;
  ASSERT_EQ(table.half, half);
  std::vector<float> row(static_cast<std::size_t>(rot_dim));
  for (int pos = 0; pos < table.positions; ++pos) {
    std::fill(row.begin(), row.begin() + half, 1.0f);
    std::fill(row.begin() + half, row.end(), 0.0f);
    reference_rotary(row.data(), 1, rot_dim, rot_dim, pos);
    const std::size_t at = static_cast<std::size_t>(pos) * half;
    ASSERT_TRUE(same_bits(row.data(), table.cos.data() + at,
                          static_cast<std::size_t>(half)))
        << "cos at position " << pos << ", rot_dim " << rot_dim;
    ASSERT_TRUE(same_bits(row.data() + half, table.sin.data() + at,
                          static_cast<std::size_t>(half)))
        << "sin at position " << pos << ", rot_dim " << rot_dim;
  }
}

// Runs each test at 1 and 4 pool threads with the parallel threshold at 0,
// so every sharded path (row shards, column shards, attention shards on
// pool lanes) runs.
class KernelThreads : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    saved_threshold_ = nn::parallel_threshold();
    ThreadPool::set_global_threads(GetParam());
    nn::set_parallel_threshold(0);
  }
  void TearDown() override {
    nn::set_parallel_threshold(saved_threshold_);
    ThreadPool::set_global_threads(0);
  }

 private:
  std::size_t saved_threshold_ = 0;
};

}  // namespace

TEST_P(KernelThreads, MatmulMatchesReferenceBitForBit) {
  Rng rng(41);
  for (int m : {1, 2, 3, 4, 5, 16})
    for (int n : {1, 15, 16, 17, 47, 48, 49, 63, 64, 65, 144, 192, 512})
      for (int k : {1, 48, 192}) {
        const std::vector<float> a =
            sample(rng, static_cast<std::size_t>(m) * k);
        const std::vector<float> b =
            sample(rng, static_cast<std::size_t>(k) * n);
        std::vector<float> got(static_cast<std::size_t>(m) * n, 7.0f);
        std::vector<float> want(got.size());
        nn::matmul(a.data(), b.data(), got.data(), m, k, n);
        reference_matmul(a.data(), b.data(), want.data(), m, k, n);
        ASSERT_TRUE(same_bits(got.data(), want.data(), got.size()))
            << "m=" << m << " k=" << k << " n=" << n;
      }
}

// A zero activation skips its weight row entirely, in single-row and 4-row
// tiles and in the column tail alike. An infinite weight behind a zero (or
// -0.0) activation makes a skipped row distinguishable from a multiplied
// one: 0 * inf would turn the sum into NaN.
TEST_P(KernelThreads, MatmulSkipsZeroActivations) {
  Rng rng(45);
  const int k = 48;
  for (int m : {1, 4, 5})
    for (int n : {7, 48, 144}) {
      std::vector<float> a = sample(rng, static_cast<std::size_t>(m) * k);
      std::vector<float> b = sample(rng, static_cast<std::size_t>(k) * n);
      for (int j = 0; j < n; ++j)
        b[static_cast<std::size_t>(9) * n + j] = INFINITY;
      for (int i = 0; i < m; ++i)
        a[static_cast<std::size_t>(i) * k + 9] = i % 2 ? -0.0f : 0.0f;
      std::vector<float> got(static_cast<std::size_t>(m) * n);
      std::vector<float> want(got.size());
      nn::matmul(a.data(), b.data(), got.data(), m, k, n);
      reference_matmul(a.data(), b.data(), want.data(), m, k, n);
      ASSERT_TRUE(same_bits(got.data(), want.data(), got.size()))
          << "m=" << m << " n=" << n;
    }
}

// Lays `rows` row-major rows of `d` channels out as key tiles of
// `tile_rows` live rows each (a paged block smaller than a tile gives
// short tiles). Padding lanes hold NaN, so a kernel that used one would
// show it.
struct TiledKeys {
  std::vector<std::vector<float>> storage;
  std::vector<nn::KeyTile> tiles;
};

TiledKeys tile_keys(const std::vector<float>& k, int rows, int d,
                    int tile_rows) {
  TiledKeys out;
  for (int row0 = 0; row0 < rows; row0 += tile_rows) {
    const int live = std::min(tile_rows, rows - row0);
    out.storage.emplace_back(static_cast<std::size_t>(nn::kKeyTile) * d, NAN);
    std::vector<float>& tile = out.storage.back();
    for (int u = 0; u < live; ++u)
      for (int c = 0; c < d; ++c)
        tile[static_cast<std::size_t>(c) * nn::kKeyTile + u] =
            k[static_cast<std::size_t>(row0 + u) * d + c];
  }
  for (int t = 0; t < static_cast<int>(out.storage.size()); ++t)
    out.tiles.push_back({out.storage[static_cast<std::size_t>(t)].data(),
                         std::min(tile_rows, rows - t * tile_rows)});
  return out;
}

TEST(DecodeKernels, AttentionScoresMatchReferenceBitForBit) {
  Rng rng(42);
  std::vector<int> row_counts;
  for (int rows = 1; rows <= 17; ++rows) row_counts.push_back(rows);
  row_counts.push_back(33);
  row_counts.push_back(100);
  for (int hd : {1, 2, 5, 7, 8, 12, 13, 15, 16, 17, 20, 24, 31, 32, 33, 40,
                 48, 64}) {
    // The head sits at an odd channel offset inside wider rows.
    const int c0 = 3;
    const int d = c0 + hd + 2;
    for (int rows : row_counts) {
      std::vector<float> q = sample(rng, static_cast<std::size_t>(hd));
      std::vector<float> k = sample(rng, static_cast<std::size_t>(rows) * d);
      // One infinite key channel, behind a nonzero query channel.
      q[static_cast<std::size_t>(hd / 2)] = 1.0f;
      k[static_cast<std::size_t>(rows / 2) * d + c0 + hd / 2] = INFINITY;
      const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
      std::vector<float> want(static_cast<std::size_t>(rows) + 1, 9.0f);
      for (int i = 0; i < rows; ++i)
        want[static_cast<std::size_t>(i)] =
            reference_dot(q.data(),
                          k.data() + static_cast<std::size_t>(i) * d + c0,
                          hd) *
            scale;
      // Whole tiles (the monolithic layout), and the short tiles of paged
      // blocks of 3 and 20 rows.
      for (int tile_rows : {nn::kKeyTile, 3}) {
        const TiledKeys tiled = tile_keys(k, rows, d, tile_rows);
        std::vector<float> got(want.size(), 9.0f);
        nn::attention_scores(q.data(), tiled.tiles, c0, hd, scale, rows,
                             got.data());
        // The slot past the last row is untouched.
        ASSERT_TRUE(same_bits(got.data(), want.data(), got.size()))
            << "hd=" << hd << " rows=" << rows << " tile_rows=" << tile_rows;
      }
      {
        // Paged blocks of 20 rows: a whole tile and a 4-row one each.
        TiledKeys tiled;
        for (int row0 = 0; row0 < rows; row0 += 20) {
          const int live = std::min(20, rows - row0);
          const std::vector<float> block(
              k.begin() + static_cast<std::ptrdiff_t>(row0) * d,
              k.begin() + static_cast<std::ptrdiff_t>(row0 + live) * d);
          TiledKeys part = tile_keys(block, live, d, nn::kKeyTile);
          for (auto& storage : part.storage)
            tiled.storage.push_back(std::move(storage));
          tiled.tiles.insert(tiled.tiles.end(), part.tiles.begin(),
                             part.tiles.end());
        }
        std::vector<float> got(want.size(), 9.0f);
        nn::attention_scores(q.data(), tiled.tiles, c0, hd, scale, rows,
                             got.data());
        ASSERT_TRUE(same_bits(got.data(), want.data(), got.size()))
            << "hd=" << hd << " rows=" << rows << " blocks of 20";
      }
      // A causal horizon short of the tiles: only scores[0, count).
      if (rows > 1) {
        const TiledKeys tiled = tile_keys(k, rows, d, nn::kKeyTile);
        std::vector<float> got(want.size(), 9.0f);
        nn::attention_scores(q.data(), tiled.tiles, c0, hd, scale, rows - 1,
                             got.data());
        std::vector<float> cut = want;
        cut[static_cast<std::size_t>(rows) - 1] = 9.0f;
        ASSERT_TRUE(same_bits(got.data(), cut.data(), got.size()))
            << "hd=" << hd << " count=" << rows - 1;
      }
    }
  }
}

TEST(DecodeKernels, AttentionMixMatchesReferenceBitForBit) {
  Rng rng(43);
  for (int heads : {1, 2, 3, 4, 5, 8})
    for (int hd : {1, 3, 4, 7, 8, 12, 13, 16, 20, 24, 39, 40, 41, 64, 77}) {
      const int stride = heads * hd + 3;
      for (int rows : {1, 5, 33}) {
        const int wstride = rows + 2;
        const std::vector<float> w =
            sample(rng, static_cast<std::size_t>(heads) * wstride);
        const std::vector<float> v =
            sample(rng, static_cast<std::size_t>(rows) * stride);
        std::vector<float> got =
            sample(rng, static_cast<std::size_t>(heads) * hd + 1);
        std::vector<float> want = got;
        nn::attention_mix(w.data(), wstride, heads, hd, v.data(), stride,
                          rows, got.data());
        // One head at a time, one channel at a time, rows in order.
        for (int h = 0; h < heads; ++h)
          for (int c = 0; c < hd; ++c) {
            float& acc = want[static_cast<std::size_t>(h) * hd + c];
            for (int i = 0; i < rows; ++i)
              acc = pinned_fma(
                  acc, w[static_cast<std::size_t>(h) * wstride + i],
                  v[static_cast<std::size_t>(i) * stride + h * hd + c]);
          }
        ASSERT_TRUE(same_bits(got.data(), want.data(), got.size()))
            << "heads=" << heads << " hd=" << hd << " rows=" << rows;
      }
    }
}

// The decode step runs one softmax over every head's scores at once; each
// head's probabilities must be what softmax of that head's row alone gives,
// whatever the row length is mod 16.
TEST(DecodeKernels, StackedHeadSoftmaxMatchesEachHeadAlone) {
  Rng rng(46);
  const int heads = 4;
  for (int count = 1; count <= 48; ++count) {
    std::vector<float> stacked(static_cast<std::size_t>(heads) * count);
    for (float& x : stacked) x = static_cast<float>(4.0 * rng.normal());
    std::vector<float> alone = stacked;
    nn::softmax(stacked.data(), stacked.data(), heads, count);
    for (int h = 0; h < heads; ++h) {
      std::vector<float> row(
          alone.begin() + static_cast<std::ptrdiff_t>(h) * count,
          alone.begin() + static_cast<std::ptrdiff_t>(h + 1) * count);
      nn::softmax(row.data(), row.data(), 1, count);
      ASSERT_TRUE(same_bits(
          stacked.data() + static_cast<std::size_t>(h) * count, row.data(),
          row.size()))
          << "count=" << count << " head=" << h;
    }
  }
}

TEST(DecodeKernels, RotaryTableMatchesPerCallFormula) {
  for (int rot_dim : {2, 4, 12, 16, 24, 32})
    expect_table_matches_formula(nn::rotary_table(300, rot_dim), rot_dim);
}

TEST(DecodeKernels, TransformerRotaryTableFollowsContextWindow) {
  wisdom::model::ModelConfig config =
      wisdom::model::config_for(wisdom::model::SizeClass::S350M, 64, 48);
  Transformer model(config, 5);
  EXPECT_EQ(model.rotary_table().positions, 48);
  expect_table_matches_formula(model.rotary_table(), config.rotary_dim());
  model.set_context_window(200);
  EXPECT_EQ(model.rotary_table().positions, 200);
  expect_table_matches_formula(model.rotary_table(), config.rotary_dim());
}

// The step scratch is per thread and reused across calls of any width; a
// wide step followed by narrow ones on other caches must not leak rows.
TEST_P(KernelThreads, FusedStepsAfterWiderOnesMatchSequentialDecode) {
  wisdom::model::ModelConfig config =
      wisdom::model::config_for(wisdom::model::SizeClass::S350M, 64, 48);
  Transformer model(config, 6);
  Rng rng(44);
  auto token = [&] {
    return static_cast<std::int32_t>(rng.uniform_int(0, 63));
  };
  for (int width : {16, 1, 4}) {
    std::vector<Transformer::KvCache> caches;
    std::vector<std::vector<std::int32_t>> prefixes, runs;
    for (int s = 0; s < width; ++s) {
      caches.push_back(model.make_cache());
      prefixes.emplace_back();
      for (int t = 0; t < 3 + s; ++t) {
        prefixes.back().push_back(token());
        model.decode_step(caches.back(), prefixes.back().back());
      }
      runs.emplace_back();
      for (int t = 0; t < 1 + s % 3; ++t) runs.back().push_back(token());
    }
    std::vector<Transformer::SpanFeed> feeds;
    for (int s = 0; s < width; ++s)
      feeds.push_back({&caches[static_cast<std::size_t>(s)],
                       runs[static_cast<std::size_t>(s)]});
    std::vector<float> rows;
    model.verify_step_batch(feeds, &rows);

    std::size_t row = 0;
    for (int s = 0; s < width; ++s) {
      Transformer::KvCache fresh = model.make_cache();
      for (std::int32_t t : prefixes[static_cast<std::size_t>(s)])
        model.decode_step(fresh, t);
      for (std::int32_t t : runs[static_cast<std::size_t>(s)]) {
        const std::span<const float> want = model.decode_step(fresh, t);
        ASSERT_TRUE(same_bits(rows.data() + row * config.vocab, want.data(),
                              want.size()))
            << "width " << width << ", feed " << s;
        ++row;
      }
      EXPECT_TRUE(same_bits(caches[static_cast<std::size_t>(s)].logits.data(),
                            fresh.logits.data(), fresh.logits.size()));
    }
    EXPECT_EQ(row * config.vocab, rows.size());
  }
}

// GELU runs one row at a time, so a fused step gives each row the tanh a
// one-row step gives it even when d_ff is not a multiple of the vector
// width (a flattened call split the rows at other points).
TEST_P(KernelThreads, FusedVerifyMatchesSequentialDecodeAtOddFfWidth) {
  wisdom::model::ModelConfig config;
  config.vocab = 64;
  config.ctx = 32;
  config.d_model = 30;
  config.n_head = 3;
  config.n_layer = 2;
  config.d_ff = 60;
  Transformer model(config, 31);
  Rng rng(45);
  std::vector<std::vector<std::int32_t>> runs(5);
  std::vector<Transformer::KvCache> caches;
  std::vector<Transformer::SpanFeed> feeds;
  for (std::size_t s = 0; s < runs.size(); ++s) {
    for (std::size_t t = 0; t < 2 + s; ++t)
      runs[s].push_back(static_cast<std::int32_t>(rng.uniform_int(0, 63)));
    caches.push_back(model.make_cache());
  }
  for (std::size_t s = 0; s < runs.size(); ++s)
    feeds.push_back({&caches[s], runs[s]});
  std::vector<float> rows;
  model.verify_step_batch(feeds, &rows);

  std::size_t row = 0;
  for (std::size_t s = 0; s < runs.size(); ++s) {
    Transformer::KvCache fresh = model.make_cache();
    for (std::int32_t t : runs[s]) {
      const std::span<const float> want = model.decode_step(fresh, t);
      EXPECT_TRUE(same_bits(rows.data() + row * config.vocab, want.data(),
                            want.size()))
          << "feed " << s << ", row " << row;
      ++row;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelThreads, ::testing::Values(1, 4));
