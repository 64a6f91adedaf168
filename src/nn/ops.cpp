#include "nn/ops.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "util/thread_pool.hpp"

namespace wisdom::nn {

namespace {

// Ops below this many multiply-adds stay sequential: pool dispatch costs a
// few microseconds, which swamps small kernels (layernorm-sized matmuls,
// single decode rows on tiny models).
std::size_t g_parallel_threshold = 32 * 1024;

bool pool_worthwhile(std::size_t madds) {
  return madds >= g_parallel_threshold && !util::ThreadPool::in_worker();
}

// Each shard kernel below computes a contiguous slice of the output exactly
// as the full sequential loop would (same per-element accumulation order),
// so the sharded result is bit-identical to the sequential one.

// --- forward matmul: register-tiled ----------------------------------------
//
// Every c[i][j] is the sum of a[i][p] * b[p][j] over ascending p, starting
// from 0 and skipping p where a[i][p] == 0, written as `acc += av * b` so
// the compiler contracts it (or not) the same way everywhere. Tiles only
// decide where the accumulators live: an R x 8G tile keeps them in vector
// registers for the whole p loop, and its R rows share each load of a
// weight row. Columns left over after the 8-wide groups go through the
// plain row loop. See DESIGN.md, "Decode kernels".

using Vec8 = float __attribute__((vector_size(32)));
// Unaligned, aliasing view of 8 floats for loads and stores.
using Vec8Ref = float __attribute__((vector_size(32), aligned(4), may_alias));

template <int R, int G>
void matmul_tile(const float* a, const float* b, float* c, int k, int n) {
  Vec8 acc[R][G] = {};
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<std::size_t>(p) * n;
    Vec8 bv[G];
    for (int g = 0; g < G; ++g)
      bv[g] = *reinterpret_cast<const Vec8Ref*>(brow + 8 * g);
    for (int r = 0; r < R; ++r) {
      const float av = a[static_cast<std::size_t>(r) * k + p];
      if (av == 0.0f) continue;
      for (int g = 0; g < G; ++g) acc[r][g] += av * bv[g];
    }
  }
  for (int r = 0; r < R; ++r)
    for (int g = 0; g < G; ++g)
      *reinterpret_cast<Vec8Ref*>(c + static_cast<std::size_t>(r) * n +
                                  8 * g) = acc[r][g];
}

using TileFn = void (*)(const float*, const float*, float*, int, int);

template <int R, std::size_t... G>
constexpr std::array<TileFn, sizeof...(G)> tile_table(
    std::index_sequence<G...>) {
  return {&matmul_tile<R, static_cast<int>(G) + 1>...};
}

// Widest tile per row count, in 8-column groups: a single row gets up to
// 128 accumulator columns (16 registers with AVX-512's register file), a
// 4-row tile up to 48 columns (24 registers). Measured on the served
// shapes; narrower tiles leave the p loop bound by FMA latency.
#if defined(__AVX512F__)
constexpr int kMaxGroups1 = 16;
constexpr int kMaxGroups4 = 6;
#else
constexpr int kMaxGroups1 = 8;
constexpr int kMaxGroups4 = 2;
#endif
constexpr auto kTiles1 =
    tile_table<1>(std::make_index_sequence<kMaxGroups1>());
constexpr auto kTiles4 =
    tile_table<4>(std::make_index_sequence<kMaxGroups4>());

// Rows [i, i+R) over `groups` 8-column groups starting at column j0, split
// into the fewest tiles of near-equal width.
template <int R>
void matmul_row_tiles(const float* a, const float* b, float* c, int i, int j0,
                      int groups, int k, int n) {
  const TileFn* tiles = R == 1 ? kTiles1.data() : kTiles4.data();
  const int max_groups = R == 1 ? kMaxGroups1 : kMaxGroups4;
  const int count = (groups + max_groups - 1) / max_groups;
  const float* arow = a + static_cast<std::size_t>(i) * k;
  float* crow = c + static_cast<std::size_t>(i) * n;
  int j = j0;
  for (int t = 0; t < count; ++t) {
    const int g = groups / count + (t < groups % count ? 1 : 0);
    tiles[g - 1](arow, b + j, crow + j, k, n);
    j += 8 * g;
  }
}

// C[i0..i1) x [j0..j1) of C = A * B.
void matmul_block(const float* a, const float* b, float* c, int i0, int i1,
                  int j0, int j1, int k, int n) {
  const int groups = (j1 - j0) / 8;
  if (groups > 0) {
    int i = i0;
    for (; i + 4 <= i1; i += 4)
      matmul_row_tiles<4>(a, b, c, i, j0, groups, k, n);
    for (; i < i1; ++i) matmul_row_tiles<1>(a, b, c, i, j0, groups, k, n);
  }
  const int tail = j0 + 8 * groups;
  if (tail == j1) return;
  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    std::memset(crow + tail, 0,
                static_cast<std::size_t>(j1 - tail) * sizeof(float));
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<std::size_t>(p) * n;
      for (int j = tail; j < j1; ++j) crow[j] += av * brow[j];
    }
  }
}

void matmul_bt_rows(const float* a, const float* b, float* c, int i0, int i1,
                    int k, int n) {
  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

void matmul_bt_cols(const float* a, const float* b, float* c, int m, int k,
                    int j0, int j1, int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = j0; j < j1; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

// dA[i][p] += dot(dC row i, B row p): every (i, p) cell is an independent
// dot product, so both row (i) and column (p) sharding are exact.
void matmul_da_rows(const float* b, const float* dc, float* da, int i0,
                    int i1, int k, int n) {
  for (int i = i0; i < i1; ++i) {
    const float* dcrow = dc + static_cast<std::size_t>(i) * n;
    float* darow = da + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const float* brow = b + static_cast<std::size_t>(p) * n;
      float acc = 0.0f;
      for (int j = 0; j < n; ++j) acc += dcrow[j] * brow[j];
      darow[p] += acc;
    }
  }
}

void matmul_da_cols(const float* b, const float* dc, float* da, int m, int k,
                    int p0, int p1, int n) {
  for (int i = 0; i < m; ++i) {
    const float* dcrow = dc + static_cast<std::size_t>(i) * n;
    float* darow = da + static_cast<std::size_t>(i) * k;
    for (int p = p0; p < p1; ++p) {
      const float* brow = b + static_cast<std::size_t>(p) * n;
      float acc = 0.0f;
      for (int j = 0; j < n; ++j) acc += dcrow[j] * brow[j];
      darow[p] += acc;
    }
  }
}

// dB[p][j] += sum_i A[i][p] * dC[i][j], sharded over dB rows (p). The i
// loop stays innermost and ascending, so each dB cell accumulates in the
// same order as the sequential kernel — bit-identical, no atomics.
void matmul_db_rows(const float* a, const float* dc, float* db, int p0,
                    int p1, int m, int k, int n) {
  for (int p = p0; p < p1; ++p) {
    float* dbrow = db + static_cast<std::size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      const float av = a[static_cast<std::size_t>(i) * k + p];
      if (av == 0.0f) continue;
      const float* dcrow = dc + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) dbrow[j] += av * dcrow[j];
    }
  }
}

// --- single-query attention --------------------------------------------------

using Vec4 = float __attribute__((vector_size(16)));
using Vec4Ref = float __attribute__((vector_size(16), aligned(4), may_alias));
using Vec16 = float __attribute__((vector_size(64)));
using Vec16Ref = float __attribute__((vector_size(64), aligned(4), may_alias));
static_assert(kKeyTile == 16, "one key-tile column is one Vec16");

// Under -ffast-math the compiler may reassociate float adds and contract a
// product into the add that consumes it. `pinned` stops both at one value:
// it returns its argument through an empty asm statement the compiler
// cannot see into, so the adds that feed it stay in their written order,
// and a product that is pinned is rounded on its own rather than fused
// into the next add. `pinned(acc + a * b)` still lets a * b fuse into that
// one add, exactly where `acc += a * b` contracts everywhere else in this
// file. A vector wider than the target's registers is pinned half by half.
// (GCC 12's __builtin_assoc_barrier would do, but on AVX-512 targets it
// lowers vectors lane by lane.)
#if defined(__x86_64__) || defined(__i386__)
#if defined(__AVX512F__)
#define WISDOM_PIN(x) asm("" : "+v"(x))
#else
#define WISDOM_PIN(x) asm("" : "+x"(x))
#endif
#elif defined(__aarch64__)
#define WISDOM_PIN(x) asm("" : "+w"(x))
#endif

inline Vec4 pinned(Vec4 x) {
#ifdef WISDOM_PIN
  WISDOM_PIN(x);
  return x;
#else
  volatile Vec4 held = x;
  return held;
#endif
}

inline Vec8 pinned(Vec8 x) {
#if defined(__AVX__)
  WISDOM_PIN(x);
  return x;
#else
  const Vec4 lo = pinned(__builtin_shufflevector(x, x, 0, 1, 2, 3));
  const Vec4 hi = pinned(__builtin_shufflevector(x, x, 4, 5, 6, 7));
  return __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7);
#endif
}

inline Vec16 pinned(Vec16 x) {
#if defined(__AVX512F__)
  WISDOM_PIN(x);
  return x;
#else
  const Vec8 lo = pinned(__builtin_shufflevector(x, x, 0, 1, 2, 3, 4, 5, 6, 7));
  const Vec8 hi =
      pinned(__builtin_shufflevector(x, x, 8, 9, 10, 11, 12, 13, 14, 15));
  return __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                 12, 13, 14, 15);
#endif
}

Vec8 load8(const float* p) { return *reinterpret_cast<const Vec8Ref*>(p); }
Vec4 load4(const float* p) { return *reinterpret_cast<const Vec4Ref*>(p); }
Vec16 load16(const float* p) { return *reinterpret_cast<const Vec16Ref*>(p); }

// Lane u: q . (row u of the tile) over the hd channels starting at `k`
// (the tile's column for the head's first channel), in the order
// attention_scores documents. Every lane runs the same operations, so each
// row's dot is exactly what a one-row loop in that order computes.
[[gnu::always_inline]] inline Vec16 dot_tile(const float* q, const float* k,
                                             int hd) {
  auto column = [k](int c) { return load16(k + c * kKeyTile); };
  int c = 0;
  Vec16 y[8];
  if (hd >= 16) {
    Vec16 z[16] = {};
    for (; c + 16 <= hd; c += 16)
      for (int l = 0; l < 16; ++l)
        z[l] = pinned(z[l] + q[c + l] * column(c + l));
    for (int l = 0; l < 8; ++l) y[l] = pinned(z[l + 8] + z[l]);
    if (hd - c >= 8) {
      for (int l = 0; l < 8; ++l)
        y[l] = pinned(y[l] + q[c + l] * column(c + l));
      c += 8;
    }
  } else if (hd >= 8) {
    for (int l = 0; l < 8; ++l) y[l] = pinned(q[l] * column(l));
    c = 8;
  }
  Vec16 acc = {};
  if (c > 0) {
    Vec16 a[4];
    for (int l = 0; l < 4; ++l) a[l] = pinned(y[l] + y[l + 4]);
    acc = pinned(pinned(a[0] + a[2]) + pinned(a[1] + a[3]));
  }
  for (; c < hd; ++c) acc = pinned(acc + q[c] * column(c));
  return acc;
}

// attention_mix over channels [0, 8 * F + T) of H heads, head h's channels
// and output starting h * hd floats after head 0's: F full 8-lane
// accumulators per head plus a T-channel tail, all held in registers. The
// tail loads 4 lanes when it has them; its last T % 4 channels are loaded
// one by one into the lanes of a 4-lane accumulator, since reading past a
// head's channels could run off the end of the cache. Every accumulator is
// a vector and every update is pinned, so each channel sums its rows in
// order.
template <int H, int F, int T>
void mix_heads(const float* w, int wstride, int hd, const float* v,
               int stride, int rows, float* out) {
  constexpr int S = T % 4;  // tail channels loaded one by one
  Vec8 acc[H][F > 0 ? F : 1];
  Vec4 acc4[H] = {}, accs[H] = {};
  for (int h = 0; h < H; ++h) {
    const float* o = out + h * hd;
    for (int b = 0; b < F; ++b) acc[h][b] = load8(o + 8 * b);
    if constexpr (T >= 4) acc4[h] = load4(o + 8 * F);
    for (int t = 0; t < S; ++t) accs[h][t] = o[8 * F + T - S + t];
  }
  for (int i = 0; i < rows; ++i) {
    const float* vr = v + static_cast<std::size_t>(i) * stride;
    for (int h = 0; h < H; ++h) {
      const float wi = w[static_cast<std::size_t>(h) * wstride + i];
      const float* vh = vr + h * hd;
      for (int b = 0; b < F; ++b)
        acc[h][b] = pinned(acc[h][b] + wi * load8(vh + 8 * b));
      if constexpr (T >= 4) acc4[h] = pinned(acc4[h] + wi * load4(vh + 8 * F));
      if constexpr (S > 0) {
        Vec4 sv = {};
        for (int t = 0; t < S; ++t) sv[t] = vh[8 * F + T - S + t];
        accs[h] = pinned(accs[h] + wi * sv);
      }
    }
  }
  for (int h = 0; h < H; ++h) {
    float* o = out + h * hd;
    for (int b = 0; b < F; ++b)
      *reinterpret_cast<Vec8Ref*>(o + 8 * b) = acc[h][b];
    if constexpr (T >= 4) *reinterpret_cast<Vec4Ref*>(o + 8 * F) = acc4[h];
    for (int t = 0; t < S; ++t) o[8 * F + T - S + t] = accs[h][t];
  }
}

using MixFn = void (*)(const float*, int, int, const float*, int, int,
                       float*);

// Widest channel block: 4 full accumulators plus any tail (up to 39
// channels). Up to kMixHeads heads share one pass over the rows, as many as
// fit kMixAccumulators registers.
constexpr int kMixBlocks = 4;
constexpr int kMixHeads = 4;
#if defined(__AVX512F__)
constexpr int kMixAccumulators = 16;
#else
constexpr int kMixAccumulators = 8;
#endif
constexpr int kMixWidths = (kMixBlocks + 1) * 8;

template <int H, std::size_t... I>
constexpr std::array<MixFn, sizeof...(I)> mix_widths(
    std::index_sequence<I...>) {
  return {&mix_heads<H, static_cast<int>(I / 8), static_cast<int>(I % 8)>...};
}
constexpr std::array<std::array<MixFn, kMixWidths>, kMixHeads> kMix = {
    mix_widths<1>(std::make_index_sequence<kMixWidths>()),
    mix_widths<2>(std::make_index_sequence<kMixWidths>()),
    mix_widths<3>(std::make_index_sequence<kMixWidths>()),
    mix_widths<4>(std::make_index_sequence<kMixWidths>())};

}  // namespace

std::size_t parallel_threshold() { return g_parallel_threshold; }
void set_parallel_threshold(std::size_t madds) {
  g_parallel_threshold = madds;
}

void matmul(const float* a, const float* b, float* c, int m, int k, int n) {
  const std::size_t madds =
      static_cast<std::size_t>(m) * static_cast<std::size_t>(k) * n;
  if (pool_worthwhile(madds)) {
    util::ThreadPool& pool = util::ThreadPool::global();
    if (pool.size() > 1) {
      if (m > 1) {
        pool.parallel_for(0, m, [&](std::int64_t i0, std::int64_t i1) {
          matmul_block(a, b, c, static_cast<int>(i0), static_cast<int>(i1),
                       0, n, k, n);
        });
      } else {
        pool.parallel_for(0, n, [&](std::int64_t j0, std::int64_t j1) {
          matmul_block(a, b, c, 0, m, static_cast<int>(j0),
                       static_cast<int>(j1), k, n);
        });
      }
      return;
    }
  }
  matmul_block(a, b, c, 0, m, 0, n, k, n);
}

void matmul_bt(const float* a, const float* b, float* c, int m, int k, int n) {
  const std::size_t madds =
      static_cast<std::size_t>(m) * static_cast<std::size_t>(k) * n;
  if (pool_worthwhile(madds)) {
    util::ThreadPool& pool = util::ThreadPool::global();
    if (pool.size() > 1) {
      if (m > 1) {
        pool.parallel_for(0, m, [&](std::int64_t i0, std::int64_t i1) {
          matmul_bt_rows(a, b, c, static_cast<int>(i0), static_cast<int>(i1),
                         k, n);
        });
      } else {
        pool.parallel_for(0, n, [&](std::int64_t j0, std::int64_t j1) {
          matmul_bt_cols(a, b, c, m, k, static_cast<int>(j0),
                         static_cast<int>(j1), n);
        });
      }
      return;
    }
  }
  matmul_bt_rows(a, b, c, 0, m, k, n);
}

void matmul_backward(const float* a, const float* b, const float* dc,
                     float* da, float* db, int m, int k, int n) {
  const std::size_t madds =
      static_cast<std::size_t>(m) * static_cast<std::size_t>(k) * n;
  const bool parallel = pool_worthwhile(madds);
  // dA += dC * B^T
  if (da) {
    bool done = false;
    if (parallel) {
      util::ThreadPool& pool = util::ThreadPool::global();
      if (pool.size() > 1) {
        if (m > 1) {
          pool.parallel_for(0, m, [&](std::int64_t i0, std::int64_t i1) {
            matmul_da_rows(b, dc, da, static_cast<int>(i0),
                           static_cast<int>(i1), k, n);
          });
        } else {
          pool.parallel_for(0, k, [&](std::int64_t p0, std::int64_t p1) {
            matmul_da_cols(b, dc, da, m, k, static_cast<int>(p0),
                           static_cast<int>(p1), n);
          });
        }
        done = true;
      }
    }
    if (!done) matmul_da_rows(b, dc, da, 0, m, k, n);
  }
  // dB += A^T * dC
  if (db) {
    bool done = false;
    if (parallel) {
      util::ThreadPool& pool = util::ThreadPool::global();
      if (pool.size() > 1) {
        pool.parallel_for(0, k, [&](std::int64_t p0, std::int64_t p1) {
          matmul_db_rows(a, dc, db, static_cast<int>(p0),
                         static_cast<int>(p1), m, k, n);
        });
        done = true;
      }
    }
    if (!done) matmul_db_rows(a, dc, db, 0, k, m, k, n);
  }
}

void attention_scores(const float* q, std::span<const KeyTile> tiles, int c0,
                      int hd, float scale, int count, float* scores) {
  int j = 0;
  for (const KeyTile& tile : tiles) {
    if (j >= count) break;
    const int rows = std::min(tile.rows, count - j);
    const Vec16 s = dot_tile(q, tile.k + c0 * kKeyTile, hd) * scale;
    if (rows == kKeyTile) {
      *reinterpret_cast<Vec16Ref*>(scores + j) = s;
    } else {
      for (int u = 0; u < rows; ++u) scores[j + u] = s[u];
    }
    j += rows;
  }
}

void attention_mix(const float* w, int wstride, int heads, int hd,
                   const float* v, int stride, int rows, float* out) {
  // Channel blocks of up to 8 * kMixBlocks channels; the last block also
  // takes the tail (< 8 channels). Each block walks the rows once per
  // group of heads.
  for (int c = 0; c < hd;) {
    const int width = hd - c >= 8 * kMixBlocks + 8 ? 8 * kMixBlocks : hd - c;
    const int per_head = width / 8 + (width % 8 >= 4) + (width % 4 > 0);
    const int group = std::clamp(kMixAccumulators / per_head, 1, kMixHeads);
    for (int h = 0; h < heads; h += group) {
      const int n = std::min(group, heads - h);
      kMix[static_cast<std::size_t>(n - 1)][static_cast<std::size_t>(width)](
          w + static_cast<std::size_t>(h) * wstride, wstride, hd,
          v + h * hd + c, stride, rows, out + h * hd + c);
    }
    c += width;
  }
}

void add_bias(const float* x, const float* bias, float* y, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* xrow = x + static_cast<std::size_t>(i) * n;
    float* yrow = y + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) yrow[j] = xrow[j] + bias[j];
  }
}

void add_bias_backward(const float* dy, float* dbias, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* row = dy + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) dbias[j] += row[j];
  }
}

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
}

void gelu(const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) {
    float v = x[i];
    float u = kGeluC * (v + 0.044715f * v * v * v);
    y[i] = 0.5f * v * (1.0f + std::tanh(u));
  }
}

void gelu_backward(const float* x, const float* dy, float* dx, int n) {
  for (int i = 0; i < n; ++i) {
    float v = x[i];
    float u = kGeluC * (v + 0.044715f * v * v * v);
    float t = std::tanh(u);
    float du = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
    float grad = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
    dx[i] += dy[i] * grad;
  }
}

void layernorm(const float* x, const float* gain, const float* bias, float* y,
               float* mean, float* rstd, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* xr = x + static_cast<std::size_t>(i) * n;
    float* yr = y + static_cast<std::size_t>(i) * n;
    float mu = 0.0f;
    for (int j = 0; j < n; ++j) mu += xr[j];
    mu /= static_cast<float>(n);
    float var = 0.0f;
    for (int j = 0; j < n; ++j) {
      float d = xr[j] - mu;
      var += d * d;
    }
    var /= static_cast<float>(n);
    float rs = 1.0f / std::sqrt(var + 1e-5f);
    mean[i] = mu;
    rstd[i] = rs;
    for (int j = 0; j < n; ++j)
      yr[j] = (xr[j] - mu) * rs * gain[j] + bias[j];
  }
}

void layernorm_backward(const float* x, const float* gain, const float* mean,
                        const float* rstd, const float* dy, float* dx,
                        float* dgain, float* dbias, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* xr = x + static_cast<std::size_t>(i) * n;
    const float* dyr = dy + static_cast<std::size_t>(i) * n;
    float* dxr = dx + static_cast<std::size_t>(i) * n;
    const float mu = mean[i];
    const float rs = rstd[i];

    float sum_dnorm = 0.0f;
    float sum_dnorm_xhat = 0.0f;
    for (int j = 0; j < n; ++j) {
      float xhat = (xr[j] - mu) * rs;
      float dnorm = dyr[j] * gain[j];
      sum_dnorm += dnorm;
      sum_dnorm_xhat += dnorm * xhat;
      dgain[j] += dyr[j] * xhat;
      dbias[j] += dyr[j];
    }
    const float inv_n = 1.0f / static_cast<float>(n);
    for (int j = 0; j < n; ++j) {
      float xhat = (xr[j] - mu) * rs;
      float dnorm = dyr[j] * gain[j];
      dxr[j] += rs * (dnorm - inv_n * sum_dnorm - xhat * inv_n * sum_dnorm_xhat);
    }
  }
}

void softmax(const float* x, float* y, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* xr = x + static_cast<std::size_t>(i) * n;
    float* yr = y + static_cast<std::size_t>(i) * n;
    float mx = xr[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, xr[j]);
    float sum = 0.0f;
    for (int j = 0; j < n; ++j) {
      yr[j] = std::exp(xr[j] - mx);
      sum += yr[j];
    }
    float inv = 1.0f / sum;
    for (int j = 0; j < n; ++j) yr[j] *= inv;
  }
}

void softmax_backward(const float* y, const float* dy, float* dx, int m,
                      int n) {
  for (int i = 0; i < m; ++i) {
    const float* yr = y + static_cast<std::size_t>(i) * n;
    const float* dyr = dy + static_cast<std::size_t>(i) * n;
    float* dxr = dx + static_cast<std::size_t>(i) * n;
    float dot = 0.0f;
    for (int j = 0; j < n; ++j) dot += yr[j] * dyr[j];
    for (int j = 0; j < n; ++j) dxr[j] += yr[j] * (dyr[j] - dot);
  }
}

RotaryTable rotary_table(int positions, int rot_dim) {
  RotaryTable table;
  table.positions = positions;
  table.half = rot_dim / 2;
  const std::size_t entries = static_cast<std::size_t>(positions) *
                              static_cast<std::size_t>(table.half);
  table.cos.resize(entries);
  table.sin.resize(entries);
  for (int i = 0; i < positions; ++i) {
    const float pos = static_cast<float>(i);
    float* c = table.cos.data() + static_cast<std::size_t>(i) * table.half;
    float* s = table.sin.data() + static_cast<std::size_t>(i) * table.half;
    for (int j = 0; j < table.half; ++j) {
      // GPT-NeoX / CodeGen style: channel pairs (j, j + half).
      float theta =
          pos * std::pow(10000.0f, -2.0f * static_cast<float>(j) /
                                        static_cast<float>(rot_dim));
      c[j] = std::cos(theta);
      s[j] = std::sin(theta);
    }
  }
  return table;
}

void rotary(float* x, int t, int dim, const RotaryTable& table, int pos0) {
  assert(pos0 + t <= table.positions);
  const int half = table.half;
  for (int i = 0; i < t; ++i) {
    float* row = x + static_cast<std::size_t>(i) * dim;
    const std::size_t at = static_cast<std::size_t>(pos0 + i) * half;
    const float* cs = table.cos.data() + at;
    const float* sn = table.sin.data() + at;
    for (int j = 0; j < half; ++j) {
      float c = cs[j];
      float s = sn[j];
      float a = row[j];
      float b = row[j + half];
      row[j] = a * c - b * s;
      row[j + half] = a * s + b * c;
    }
  }
}

void rotary_backward(float* dx, int t, int dim, const RotaryTable& table,
                     int pos0) {
  // The rotation is orthogonal; the gradient transforms by the inverse
  // (negative-angle) rotation.
  assert(pos0 + t <= table.positions);
  const int half = table.half;
  for (int i = 0; i < t; ++i) {
    float* row = dx + static_cast<std::size_t>(i) * dim;
    const std::size_t at = static_cast<std::size_t>(pos0 + i) * half;
    const float* cs = table.cos.data() + at;
    const float* sn = table.sin.data() + at;
    for (int j = 0; j < half; ++j) {
      float c = cs[j];
      float s = sn[j];
      float a = row[j];
      float b = row[j + half];
      row[j] = a * c + b * s;
      row[j + half] = -a * s + b * c;
    }
  }
}

float cross_entropy(const float* logits, const std::int32_t* targets,
                    int rows, int vocab, int ignore_index, float* dlogits) {
  double loss = 0.0;
  int counted = 0;
  for (int i = 0; i < rows; ++i) {
    if (targets[i] != ignore_index) ++counted;
  }
  if (counted == 0) {
    std::memset(dlogits, 0,
                static_cast<std::size_t>(rows) * vocab * sizeof(float));
    return 0.0f;
  }
  const float inv_count = 1.0f / static_cast<float>(counted);
  for (int i = 0; i < rows; ++i) {
    const float* lr = logits + static_cast<std::size_t>(i) * vocab;
    float* dr = dlogits + static_cast<std::size_t>(i) * vocab;
    if (targets[i] == ignore_index) {
      std::memset(dr, 0, static_cast<std::size_t>(vocab) * sizeof(float));
      continue;
    }
    float mx = lr[0];
    for (int j = 1; j < vocab; ++j) mx = std::max(mx, lr[j]);
    float sum = 0.0f;
    for (int j = 0; j < vocab; ++j) {
      dr[j] = std::exp(lr[j] - mx);
      sum += dr[j];
    }
    const float inv_sum = 1.0f / sum;
    const int target = targets[i];
    loss -= std::log(static_cast<double>(dr[target]) * inv_sum);
    for (int j = 0; j < vocab; ++j) {
      float p = dr[j] * inv_sum;
      dr[j] = (p - (j == target ? 1.0f : 0.0f)) * inv_count;
    }
  }
  return static_cast<float>(loss / counted);
}

void embedding(const float* table, const std::int32_t* ids, float* out,
               int count, int dim) {
  for (int i = 0; i < count; ++i) {
    std::memcpy(out + static_cast<std::size_t>(i) * dim,
                table + static_cast<std::size_t>(ids[i]) * dim,
                static_cast<std::size_t>(dim) * sizeof(float));
  }
}

void embedding_backward(const std::int32_t* ids, const float* dout,
                        float* dtable, int count, int dim) {
  for (int i = 0; i < count; ++i) {
    const float* src = dout + static_cast<std::size_t>(i) * dim;
    float* dst = dtable + static_cast<std::size_t>(ids[i]) * dim;
    for (int j = 0; j < dim; ++j) dst[j] += src[j];
  }
}

// --- argmax ------------------------------------------------------------------

// argmax compares integer keys, not floats: -ffast-math lets the compiler
// assume no NaN ever appears, so a float compare would not keep the scalar
// scan's NaN rules. A key orders like the float it comes from, except that
// -0 and +0 share key 0 and every NaN takes the lowest key, which nothing
// beats under a strict compare.
namespace {

using Int16 = std::int32_t __attribute__((vector_size(64)));

constexpr std::int32_t kNanKey = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kInfBits = 0x7f800000;  // above it (sign off): NaN

Int16 order_keys(Int16 bits) {
  const Int16 mag = bits & 0x7fffffff;
  const Int16 sign = bits >> 31;          // -1 in the lanes of negatives
  const Int16 key = (mag ^ sign) - sign;  // -mag for a negative float
  const Int16 nan = mag > kInfBits;       // -1 in NaN lanes
  return (key & ~nan) | (nan & kNanKey);
}

}  // namespace

int argmax(const float* x, int n) {
  std::int32_t first = 0;
  std::memcpy(&first, x, sizeof first);
  if ((first & 0x7fffffff) > kInfBits) return 0;  // the scan never moves
  // Each lane keeps its strictly greatest key and where that key first
  // appeared; the first index of the overall greatest key is the smallest
  // position among the lanes holding it.
  Int16 best = Int16{} + kNanKey;
  Int16 at = {};
  Int16 index = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  const auto step = [&](Int16 bits) {
    const Int16 key = order_keys(bits);
    const Int16 wins = key > best;
    best = wins ? key : best;
    at = wins ? index : at;
    index += 16;
  };
  int j = 0;
  for (; j + 16 <= n; j += 16) {
    Int16 bits;
    std::memcpy(&bits, x + j, sizeof bits);
    step(bits);
  }
  if (j < n) {
    Int16 tail = Int16{} + (kInfBits | 1);  // NaN padding never wins
    std::memcpy(&tail, x + j, static_cast<std::size_t>(n - j) * sizeof(float));
    step(tail);
  }
  std::int32_t top = best[0];
  for (int l = 1; l < 16; ++l) top = std::max(top, best[l]);
  std::int32_t winner = n;
  for (int l = 0; l < 16; ++l)
    if (best[l] == top) winner = std::min(winner, at[l]);
  return winner;
}

}  // namespace wisdom::nn
