// Forward and backward kernels for the decoder-only transformer.
//
// Conventions:
//   * all matrices are row-major; `rows x cols` given explicitly;
//   * forward functions write outputs, backward functions ACCUMULATE into
//     gradient buffers (callers zero them once per step), matching the
//     "+=" semantics gradients need when a tensor fans out;
//   * every backward takes the same geometry as its forward plus the
//     upstream gradient.
//
// Each kernel is unit-tested against finite differences (see
// tests/nn_test.cpp), which is what makes a hand-written backprop stack
// trustworthy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace wisdom::nn {

// The matmul kernels below run on util::ThreadPool::global() when the op's
// multiply-add count reaches this threshold (and the pool has more than one
// lane); smaller ops run sequentially to avoid dispatch overhead. Sharding
// is deterministic, so parallel results are bit-identical to sequential
// ones at any thread count.
std::size_t parallel_threshold();
void set_parallel_threshold(std::size_t madds);

// C[m x n] = A[m x k] * B[k x n]
void matmul(const float* a, const float* b, float* c, int m, int k, int n);
// C[m x n] = A[m x k] * B^T  where B is [n x k]
void matmul_bt(const float* a, const float* b, float* c, int m, int k, int n);
// dA[m x k] += dC[m x n] * B^T ; dB[k x n] += A^T * dC
void matmul_backward(const float* a, const float* b, const float* dc,
                     float* da, float* db, int m, int k, int n);

// y[m x n] = x[m x n] + bias[n] (broadcast over rows); in-place allowed.
void add_bias(const float* x, const float* bias, float* y, int m, int n);
// dbias[n] += column sums of dy.
void add_bias_backward(const float* dy, float* dbias, int m, int n);

// GELU (tanh approximation, as in GPT/CodeGen).
void gelu(const float* x, float* y, int n);
void gelu_backward(const float* x, const float* dy, float* dx, int n);

// Row-wise layer normalization with gain/bias.
// mean/rstd are per-row caches of length m for the backward pass.
void layernorm(const float* x, const float* gain, const float* bias, float* y,
               float* mean, float* rstd, int m, int n);
void layernorm_backward(const float* x, const float* gain, const float* mean,
                        const float* rstd, const float* dy, float* dx,
                        float* dgain, float* dbias, int m, int n);

// Cached keys are stored as key tiles: kKeyTile consecutive positions by
// all d_model channels, channel-major, so channel c of the tile's row u is
// tile[c * kKeyTile + u]. One vector load then holds one channel of 16
// cached rows. Values stay row-major.
constexpr int kKeyTile = 16;

// Tiles needed to hold `rows` key rows.
constexpr int key_tiles(int rows) {
  return rows <= 0 ? 0 : (rows + kKeyTile - 1) / kKeyTile;
}

// A key tile whose first `rows` rows are live (rows <= kKeyTile; a tile
// cut short by a small paged block holds fewer). The rows past them are
// padding: read, never used.
struct KeyTile {
  const float* k;
  int rows;
};

// Single-query attention for one head: scores[i] = scale * (q . k_i) over
// the first `count` rows of `tiles` in order, where q is the head's `hd`
// channels and k_i is channels [c0, c0 + hd) of row i. Each tile is one
// pass, one lane per row, and every lane sums its channels in one fixed
// order: 16-channel blocks accumulate lane-wise, fold to 8, an 8-channel
// block adds lane-wise, the 8 partial sums reduce pairwise (l with l + 4,
// then l + 2, then l + 1), and the channels left over add one by one.
// Writes exactly scores[0, count).
void attention_scores(const float* q, std::span<const KeyTile> tiles, int c0,
                      int hd, float scale, int count, float* scores);
// Probabilities times values for every head of one query row: for each
// head h < heads and channel c < hd,
//   out[h * hd + c] += w[h * wstride + i] * v_i[h * hd + c]
// for i = 0, 1, ..., rows - 1 in order, where v_i = v + i * stride. The
// heads go together, each into its own register accumulators.
void attention_mix(const float* w, int wstride, int heads, int hd,
                   const float* v, int stride, int rows, float* out);

// Row-wise softmax; backward uses the forward output.
void softmax(const float* x, float* y, int m, int n);
void softmax_backward(const float* y, const float* dy, float* dx, int m,
                      int n);

// Rotary position embedding angles: for every position below `positions`
// and channel pair j < rot_dim / 2, the cosine and sine of
// pos * 10000^(-2j / rot_dim). Built once per context window, so a decode
// step reads its rotation instead of computing pow/sin/cos per channel.
struct RotaryTable {
  int positions = 0;
  int half = 0;          // rot_dim / 2: channel pairs (j, j + half)
  std::vector<float> cos;  // [positions x half]
  std::vector<float> sin;  // [positions x half]
};
RotaryTable rotary_table(int positions, int rot_dim);

// Rotary position embedding over the first 2 * table.half channels of each
// head-sized row. x is [t x dim] for one head; position of row i is
// pos0 + i, and pos0 + t must not exceed table.positions. In-place
// rotation; backward is the inverse rotation.
void rotary(float* x, int t, int dim, const RotaryTable& table, int pos0);
void rotary_backward(float* dx, int t, int dim, const RotaryTable& table,
                     int pos0);

// Fused softmax + cross-entropy over logits [rows x vocab] against integer
// targets; targets equal to `ignore_index` contribute neither loss nor
// gradient. Returns mean loss over counted rows and writes dlogits
// (already divided by the count). probs is scratch of the same size as
// logits.
float cross_entropy(const float* logits, const std::int32_t* targets,
                    int rows, int vocab, int ignore_index, float* dlogits);

// Index of the greatest of x[0, n), n >= 1, exactly as the scalar scan
// `best = 0; for (j = 1; j < n; ++j) if (x[j] > x[best]) best = j;` picks
// it: ties (-0 and +0 included) go to the first index, a NaN never wins,
// and a NaN at index 0 returns 0. Scans 16 values per vector step.
int argmax(const float* x, int n);

// Embedding lookup / scatter-add.
void embedding(const float* table, const std::int32_t* ids, float* out,
               int count, int dim);
void embedding_backward(const std::int32_t* ids, const float* dout,
                        float* dtable, int count, int dim);

}  // namespace wisdom::nn
