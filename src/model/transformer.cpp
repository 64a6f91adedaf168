#include "model/transformer.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "model/kv_block.hpp"
#include "nn/ops.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace wisdom::model {

using nn::Vec;

namespace {

// Decode-path metrics, aggregated across every model instance in the
// process. Registered lazily on the first instrumented generate() call;
// updates are gated on obs::enabled().
struct DecodeMetrics {
  obs::Counter* generate_calls;
  obs::Counter* decoded_tokens;
  obs::Histogram* prefill_ms;
  obs::Histogram* token_ms;
};

DecodeMetrics& decode_metrics() {
  static DecodeMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::global();
    return DecodeMetrics{
        &registry.counter("wisdom_model_generate_total",
                          "generate()/generate_beam() invocations."),
        &registry.counter("wisdom_model_decoded_tokens_total",
                          "Decode steps taken (prefill + generation)."),
        &registry.histogram("wisdom_model_prefill_ms", {},
                            "Prompt-ingestion latency per generate call."),
        &registry.histogram("wisdom_model_decode_token_ms", {},
                            "Per-token decode-step latency."),
    };
  }();
  return metrics;
}

double elapsed_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// dB[t x hd] += dC^T-style product for attention: dk[j] += sum_i ds[i][j]*q[i].
void accumulate_dk(const float* dscores, const float* q, float* dk, int t,
                   int hd) {
  for (int i = 0; i < t; ++i) {
    const float* ds_row = dscores + static_cast<std::size_t>(i) * t;
    const float* q_row = q + static_cast<std::size_t>(i) * hd;
    for (int j = 0; j <= i; ++j) {
      const float s = ds_row[j];
      if (s == 0.0f) continue;
      float* dk_row = dk + static_cast<std::size_t>(j) * hd;
      for (int c = 0; c < hd; ++c) dk_row[c] += s * q_row[c];
    }
  }
}

// Runs body(s0, s1) over `slots` attention slots — (batch, head) pairs in
// training, query rows (all heads at once) in decoding — on the global pool
// when the per-call attention work clears the nn parallel threshold. Each
// slot touches disjoint slices of the activation buffers, and every slot is
// computed exactly as in the sequential loop, so results are bit-identical
// at any thread count.
template <typename Body>
void for_each_slot(int slots, std::size_t madds, const Body& body) {
  if (slots > 1 && madds >= nn::parallel_threshold() &&
      !util::ThreadPool::in_worker()) {
    util::ThreadPool& pool = util::ThreadPool::global();
    if (pool.size() > 1) {
      pool.parallel_for(0, slots, [&](std::int64_t s0, std::int64_t s1) {
        body(static_cast<int>(s0), static_cast<int>(s1));
      });
      return;
    }
  }
  body(0, slots);
}

}  // namespace

Transformer::Transformer(const ModelConfig& config)
    : config_(config),
      rotary_(nn::rotary_table(config.ctx, config.rotary_dim())),
      layers_(static_cast<std::size_t>(config.n_layer)),
      acts_(layers_.size()) {
  assert(config_.valid());
}

Transformer::Transformer(const ModelConfig& config, std::uint64_t seed)
    : Transformer(config) {
  const std::vector<std::size_t> sizes = parameter_sizes(config_);
  const std::vector<nn::Param*> params = parameters();
  for (std::size_t i = 0; i < params.size(); ++i) params[i]->resize(sizes[i]);

  util::Rng rng(seed);
  const float std_embed = 0.02f;
  // Residual projections scaled by 1/sqrt(2*n_layer) (GPT-2 practice) keeps
  // the residual stream variance flat at init.
  const float std_resid =
      0.02f / std::sqrt(2.0f * static_cast<float>(config_.n_layer));
  nn::init_normal(wte_.w, rng, std_embed);
  nn::init_normal(head_.w, rng, std_embed);
  nn::fill(lnf_g_.w, 1.0f);
  for (Layer& layer : layers_) {
    nn::fill(layer.ln1_g.w, 1.0f);
    nn::init_normal(layer.wqkv.w, rng, std_embed);
    nn::init_normal(layer.wo.w, rng, std_resid);
    nn::fill(layer.ln2_g.w, 1.0f);
    nn::init_normal(layer.wfc.w, rng, std_embed);
    nn::init_normal(layer.wproj.w, rng, std_resid);
  }
}

Transformer::Transformer(const ModelConfig& config, std::vector<Vec> weights)
    : Transformer(config) {
  const std::vector<std::size_t> sizes = parameter_sizes(config_);
  if (weights.size() != sizes.size())
    throw std::invalid_argument("Transformer: " +
                                std::to_string(weights.size()) +
                                " weight tensors for a config of " +
                                std::to_string(sizes.size()));
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (weights[i].size() != sizes[i])
      throw std::invalid_argument("Transformer: weight tensor " +
                                  std::to_string(i) + " has " +
                                  std::to_string(weights[i].size()) +
                                  " floats, the config wants " +
                                  std::to_string(sizes[i]));
  }
  const std::vector<nn::Param*> params = parameters();
  for (std::size_t i = 0; i < params.size(); ++i)
    params[i]->w = std::move(weights[i]);
}

std::vector<std::size_t> Transformer::parameter_sizes(
    const ModelConfig& config) {
  const std::size_t d = static_cast<std::size_t>(config.d_model);
  const std::size_t ff = static_cast<std::size_t>(config.d_ff);
  const std::size_t v = static_cast<std::size_t>(config.vocab);
  std::vector<std::size_t> sizes = {v * d};
  for (std::int32_t l = 0; l < config.n_layer; ++l) {
    // ln1 g/b, wqkv, bqkv, wo, bo, ln2 g/b, wfc, bfc, wproj, bproj.
    sizes.insert(sizes.end(), {d, d, d * 3 * d, 3 * d, d * d, d, d, d,
                               d * ff, ff, ff * d, d});
  }
  sizes.insert(sizes.end(), {d, d, d * v});  // lnf g/b, head
  return sizes;
}

void Transformer::set_context_window(std::int32_t ctx) {
  assert(ctx >= 8);
  config_.ctx = ctx;
  rotary_ = nn::rotary_table(ctx, config_.rotary_dim());
}

std::int64_t Transformer::param_count() const {
  std::int64_t total = 0;
  for (const nn::Param* p : parameters()) {
    total += static_cast<std::int64_t>(p->size());
  }
  return total;
}

std::vector<nn::Param*> Transformer::parameters() {
  std::vector<nn::Param*> out = {&wte_};
  for (Layer& l : layers_) {
    for (nn::Param* p : {&l.ln1_g, &l.ln1_b, &l.wqkv, &l.bqkv, &l.wo, &l.bo,
                         &l.ln2_g, &l.ln2_b, &l.wfc, &l.bfc, &l.wproj,
                         &l.bproj}) {
      out.push_back(p);
    }
  }
  out.push_back(&lnf_g_);
  out.push_back(&lnf_b_);
  out.push_back(&head_);
  return out;
}

std::vector<const nn::Param*> Transformer::parameters() const {
  auto mut = const_cast<Transformer*>(this)->parameters();
  return {mut.begin(), mut.end()};
}

void Transformer::zero_grad() {
  for (nn::Param* p : parameters()) p->zero_grad();
}

void Transformer::optim_step(nn::AdamW& opt, float lr, float grad_scale,
                             float clip_norm) {
  auto params = parameters();
  if (grad_scale != 1.0f) {
    for (nn::Param* p : params) {
      for (float& g : p->g) g *= grad_scale;
    }
  }
  if (clip_norm > 0.0f) nn::clip_grad_norm(params, clip_norm);
  opt.begin_step();
  for (nn::Param* p : params) {
    // No weight decay on layernorm gains/biases and other 1-D params.
    bool decay = p->size() > static_cast<std::size_t>(3 * config_.d_model);
    opt.step_param(*p, lr, decay);
  }
}

float Transformer::forward_backward(std::span<const std::int32_t> x,
                                    std::span<const std::int32_t> y,
                                    int batch, int t) {
  return run(x, y, batch, t, /*backward=*/true);
}

float Transformer::evaluate(std::span<const std::int32_t> x,
                            std::span<const std::int32_t> y, int batch,
                            int t) {
  return run(x, y, batch, t, /*backward=*/false);
}

float Transformer::run(std::span<const std::int32_t> x,
                       std::span<const std::int32_t> y, int batch, int t,
                       bool backward) {
  assert(t <= config_.ctx);
  const int d = config_.d_model;
  const int h = config_.n_head;
  const int hd = config_.head_dim();
  const int ff = config_.d_ff;
  const int v = config_.vocab;
  const int rows = batch * t;
  assert(static_cast<int>(x.size()) == rows);
  assert(static_cast<int>(y.size()) == rows);
  const std::size_t rd = static_cast<std::size_t>(rows) * d;
  const float att_scale = 1.0f / std::sqrt(static_cast<float>(hd));

  // --- forward -------------------------------------------------------------
  Vec residual(rd);
  nn::embedding(wte_.w.data(), x.data(), residual.data(), rows, d);

  // Attention work per (batch, head) slot: q·k^T plus probs·v.
  const std::size_t att_madds = 2 * static_cast<std::size_t>(batch) * h * t *
                                t * static_cast<std::size_t>(hd);

  for (std::size_t li = 0; li < layers_.size(); ++li) {
    Layer& L = layers_[li];
    LayerActs& A = acts_[li];
    A.input = residual;
    A.ln1_out.resize(rd);
    A.ln1_mean.resize(rows);
    A.ln1_rstd.resize(rows);
    nn::layernorm(A.input.data(), L.ln1_g.w.data(), L.ln1_b.w.data(),
                  A.ln1_out.data(), A.ln1_mean.data(), A.ln1_rstd.data(),
                  rows, d);
    A.qkv.resize(static_cast<std::size_t>(rows) * 3 * d);
    nn::matmul(A.ln1_out.data(), L.wqkv.w.data(), A.qkv.data(), rows, d,
               3 * d);
    nn::add_bias(A.qkv.data(), L.bqkv.w.data(), A.qkv.data(), rows, 3 * d);

    A.att_probs.assign(
        static_cast<std::size_t>(batch) * h * t * t, 0.0f);
    A.att_mix.assign(rd, 0.0f);

    for_each_slot(batch * h, att_madds, [&](int s0, int s1) {
      Vec qh(static_cast<std::size_t>(t) * hd), kh(qh.size()),
          vh(qh.size()), oh(qh.size());
      Vec scores(static_cast<std::size_t>(t) * t);
      for (int s = s0; s < s1; ++s) {
        const int b = s / h;
        const int head = s % h;
        // Gather contiguous per-head q/k/v.
        for (int i = 0; i < t; ++i) {
          const float* row =
              A.qkv.data() + (static_cast<std::size_t>(b) * t + i) * 3 * d;
          std::memcpy(&qh[static_cast<std::size_t>(i) * hd],
                      row + head * hd, hd * sizeof(float));
          std::memcpy(&kh[static_cast<std::size_t>(i) * hd],
                      row + d + head * hd, hd * sizeof(float));
          std::memcpy(&vh[static_cast<std::size_t>(i) * hd],
                      row + 2 * d + head * hd, hd * sizeof(float));
        }
        nn::rotary(qh.data(), t, hd, rotary_, 0);
        nn::rotary(kh.data(), t, hd, rotary_, 0);
        // Write the rotated q/k back so the backward pass sees them.
        for (int i = 0; i < t; ++i) {
          float* row =
              A.qkv.data() + (static_cast<std::size_t>(b) * t + i) * 3 * d;
          std::memcpy(row + head * hd, &qh[static_cast<std::size_t>(i) * hd],
                      hd * sizeof(float));
          std::memcpy(row + d + head * hd,
                      &kh[static_cast<std::size_t>(i) * hd],
                      hd * sizeof(float));
        }
        // Causal attention.
        nn::matmul_bt(qh.data(), kh.data(), scores.data(), t, hd, t);
        for (int i = 0; i < t; ++i) {
          float* srow = scores.data() + static_cast<std::size_t>(i) * t;
          for (int j = 0; j <= i; ++j) srow[j] *= att_scale;
          for (int j = i + 1; j < t; ++j) srow[j] = -1e30f;
        }
        float* probs =
            A.att_probs.data() +
            (static_cast<std::size_t>(b) * h + head) * t * t;
        nn::softmax(scores.data(), probs, t, t);
        nn::matmul(probs, vh.data(), oh.data(), t, t, hd);
        for (int i = 0; i < t; ++i) {
          std::memcpy(A.att_mix.data() +
                          (static_cast<std::size_t>(b) * t + i) * d +
                          head * hd,
                      &oh[static_cast<std::size_t>(i) * hd],
                      hd * sizeof(float));
        }
      }
    });

    // Attention output projection + residual.
    Vec att_out(rd);
    nn::matmul(A.att_mix.data(), L.wo.w.data(), att_out.data(), rows, d, d);
    nn::add_bias(att_out.data(), L.bo.w.data(), att_out.data(), rows, d);
    A.mid.resize(rd);
    for (std::size_t i = 0; i < rd; ++i)
      A.mid[i] = A.input[i] + att_out[i];

    // MLP.
    A.ln2_out.resize(rd);
    A.ln2_mean.resize(rows);
    A.ln2_rstd.resize(rows);
    nn::layernorm(A.mid.data(), L.ln2_g.w.data(), L.ln2_b.w.data(),
                  A.ln2_out.data(), A.ln2_mean.data(), A.ln2_rstd.data(),
                  rows, d);
    A.fc_pre.resize(static_cast<std::size_t>(rows) * ff);
    nn::matmul(A.ln2_out.data(), L.wfc.w.data(), A.fc_pre.data(), rows, d,
               ff);
    nn::add_bias(A.fc_pre.data(), L.bfc.w.data(), A.fc_pre.data(), rows, ff);
    A.fc_act.resize(A.fc_pre.size());
    nn::gelu(A.fc_pre.data(), A.fc_act.data(),
             static_cast<int>(A.fc_pre.size()));
    Vec proj(rd);
    nn::matmul(A.fc_act.data(), L.wproj.w.data(), proj.data(), rows, ff, d);
    nn::add_bias(proj.data(), L.bproj.w.data(), proj.data(), rows, d);
    for (std::size_t i = 0; i < rd; ++i) residual[i] = A.mid[i] + proj[i];
  }

  final_in_ = residual;
  final_out_.resize(rd);
  final_mean_.resize(rows);
  final_rstd_.resize(rows);
  nn::layernorm(final_in_.data(), lnf_g_.w.data(), lnf_b_.w.data(),
                final_out_.data(), final_mean_.data(), final_rstd_.data(),
                rows, d);
  logits_.resize(static_cast<std::size_t>(rows) * v);
  nn::matmul(final_out_.data(), head_.w.data(), logits_.data(), rows, d, v);
  dlogits_.resize(logits_.size());
  float loss = nn::cross_entropy(logits_.data(), y.data(), rows, v,
                                 /*ignore_index=*/-1, dlogits_.data());
  if (!backward) return loss;

  // --- backward ------------------------------------------------------------
  for (nn::Param* p : parameters()) p->ensure_grad();
  Vec dfinal_out(rd, 0.0f);
  nn::matmul_backward(final_out_.data(), head_.w.data(), dlogits_.data(),
                      dfinal_out.data(), head_.g.data(), rows, d, v);
  Vec dres(rd, 0.0f);
  nn::layernorm_backward(final_in_.data(), lnf_g_.w.data(),
                         final_mean_.data(), final_rstd_.data(),
                         dfinal_out.data(), dres.data(), lnf_g_.g.data(),
                         lnf_b_.g.data(), rows, d);

  for (std::size_t li = layers_.size(); li-- > 0;) {
    Layer& L = layers_[li];
    LayerActs& A = acts_[li];

    // residual_out = mid + proj; dres covers both branches.
    Vec dfc_act(static_cast<std::size_t>(rows) * ff, 0.0f);
    nn::matmul_backward(A.fc_act.data(), L.wproj.w.data(), dres.data(),
                        dfc_act.data(), L.wproj.g.data(), rows, ff, d);
    nn::add_bias_backward(dres.data(), L.bproj.g.data(), rows, d);
    Vec dfc_pre(dfc_act.size(), 0.0f);
    nn::gelu_backward(A.fc_pre.data(), dfc_act.data(), dfc_pre.data(),
                      static_cast<int>(dfc_pre.size()));
    Vec dln2(rd, 0.0f);
    nn::matmul_backward(A.ln2_out.data(), L.wfc.w.data(), dfc_pre.data(),
                        dln2.data(), L.wfc.g.data(), rows, d, ff);
    nn::add_bias_backward(dfc_pre.data(), L.bfc.g.data(), rows, ff);

    Vec dmid = dres;  // gradient through the second residual connection
    nn::layernorm_backward(A.mid.data(), L.ln2_g.w.data(), A.ln2_mean.data(),
                           A.ln2_rstd.data(), dln2.data(), dmid.data(),
                           L.ln2_g.g.data(), L.ln2_b.g.data(), rows, d);

    // mid = input + att_out.
    Vec datt_mix(rd, 0.0f);
    nn::matmul_backward(A.att_mix.data(), L.wo.w.data(), dmid.data(),
                        datt_mix.data(), L.wo.g.data(), rows, d, d);
    nn::add_bias_backward(dmid.data(), L.bo.g.data(), rows, d);

    Vec dqkv(static_cast<std::size_t>(rows) * 3 * d, 0.0f);
    for_each_slot(batch * h, att_madds, [&](int s0, int s1) {
      Vec qh(static_cast<std::size_t>(t) * hd), kh(qh.size()), vh(qh.size());
      Vec dqh(qh.size()), dkh(qh.size()), dvh(qh.size()), doh(qh.size());
      Vec dprobs(static_cast<std::size_t>(t) * t), dscores(dprobs.size());
      for (int s = s0; s < s1; ++s) {
        const int b = s / h;
        const int head = s % h;
        for (int i = 0; i < t; ++i) {
          const float* row =
              A.qkv.data() + (static_cast<std::size_t>(b) * t + i) * 3 * d;
          std::memcpy(&qh[static_cast<std::size_t>(i) * hd],
                      row + head * hd, hd * sizeof(float));
          std::memcpy(&kh[static_cast<std::size_t>(i) * hd],
                      row + d + head * hd, hd * sizeof(float));
          std::memcpy(&vh[static_cast<std::size_t>(i) * hd],
                      row + 2 * d + head * hd, hd * sizeof(float));
          std::memcpy(&doh[static_cast<std::size_t>(i) * hd],
                      datt_mix.data() +
                          (static_cast<std::size_t>(b) * t + i) * d +
                          head * hd,
                      hd * sizeof(float));
        }
        const float* probs =
            A.att_probs.data() +
            (static_cast<std::size_t>(b) * h + head) * t * t;
        // oh = probs * vh
        std::fill(dprobs.begin(), dprobs.end(), 0.0f);
        std::fill(dvh.begin(), dvh.end(), 0.0f);
        nn::matmul_backward(probs, vh.data(), doh.data(), dprobs.data(),
                            dvh.data(), t, t, hd);
        std::fill(dscores.begin(), dscores.end(), 0.0f);
        nn::softmax_backward(probs, dprobs.data(), dscores.data(), t, t);
        // scores = (qh kh^T) * att_scale with causal mask.
        for (int i = 0; i < t; ++i) {
          float* row = dscores.data() + static_cast<std::size_t>(i) * t;
          for (int j = 0; j <= i; ++j) row[j] *= att_scale;
          for (int j = i + 1; j < t; ++j) row[j] = 0.0f;
        }
        nn::matmul(dscores.data(), kh.data(), dqh.data(), t, t, hd);
        std::fill(dkh.begin(), dkh.end(), 0.0f);
        accumulate_dk(dscores.data(), qh.data(), dkh.data(), t, hd);
        nn::rotary_backward(dqh.data(), t, hd, rotary_, 0);
        nn::rotary_backward(dkh.data(), t, hd, rotary_, 0);
        for (int i = 0; i < t; ++i) {
          float* row =
              dqkv.data() + (static_cast<std::size_t>(b) * t + i) * 3 * d;
          std::memcpy(row + head * hd, &dqh[static_cast<std::size_t>(i) * hd],
                      hd * sizeof(float));
          std::memcpy(row + d + head * hd,
                      &dkh[static_cast<std::size_t>(i) * hd],
                      hd * sizeof(float));
          std::memcpy(row + 2 * d + head * hd,
                      &dvh[static_cast<std::size_t>(i) * hd],
                      hd * sizeof(float));
        }
      }
    });

    Vec dln1(rd, 0.0f);
    nn::matmul_backward(A.ln1_out.data(), L.wqkv.w.data(), dqkv.data(),
                        dln1.data(), L.wqkv.g.data(), rows, d, 3 * d);
    nn::add_bias_backward(dqkv.data(), L.bqkv.g.data(), rows, 3 * d);

    Vec dinput = dmid;  // gradient through the first residual connection
    nn::layernorm_backward(A.input.data(), L.ln1_g.w.data(),
                           A.ln1_mean.data(), A.ln1_rstd.data(), dln1.data(),
                           dinput.data(), L.ln1_g.g.data(),
                           L.ln1_b.g.data(), rows, d);
    dres = std::move(dinput);
  }
  nn::embedding_backward(x.data(), dres.data(), wte_.g.data(), rows, d);
  return loss;
}

namespace {

void release_blocks(Transformer::KvCache& cache) {
  if (!cache.arena) return;
  for (std::int32_t id : cache.block_table) cache.arena->release(id);
  cache.block_table.clear();
}

}  // namespace

Transformer::KvCache::KvCache(const KvCache& other)
    : keys(other.keys),
      values(other.values),
      logits(other.logits),
      length(other.length),
      row_width(other.row_width),
      capacity(other.capacity),
      arena(other.arena),
      block_table(other.block_table) {
  if (arena)
    for (std::int32_t id : block_table) arena->add_ref(id);
}

Transformer::KvCache::KvCache(KvCache&& other) noexcept
    : keys(std::move(other.keys)),
      values(std::move(other.values)),
      logits(std::move(other.logits)),
      length(other.length),
      row_width(other.row_width),
      capacity(other.capacity),
      arena(other.arena),
      block_table(std::move(other.block_table)) {
  other.arena = nullptr;
  other.block_table.clear();
  other.length = 0;
}

Transformer::KvCache& Transformer::KvCache::operator=(const KvCache& other) {
  if (this == &other) return *this;
  KvCache copy(other);
  *this = std::move(copy);
  return *this;
}

Transformer::KvCache& Transformer::KvCache::operator=(
    KvCache&& other) noexcept {
  if (this == &other) return *this;
  release_blocks(*this);
  keys = std::move(other.keys);
  values = std::move(other.values);
  logits = std::move(other.logits);
  length = other.length;
  row_width = other.row_width;
  capacity = other.capacity;
  arena = other.arena;
  block_table = std::move(other.block_table);
  other.arena = nullptr;
  other.block_table.clear();
  other.length = 0;
  return *this;
}

Transformer::KvCache::~KvCache() { release_blocks(*this); }

Transformer::KvCache Transformer::KvCache::clone(int new_length) const {
  KvCache out;
  const int n = new_length < 0 ? length : std::min(new_length, length);
  out.length = std::max(0, n);
  out.row_width = row_width;
  out.capacity = capacity;
  if (paged()) {
    out.arena = arena;
    const int bs = arena->block_size();
    const int nblocks = (out.length + bs - 1) / bs;
    out.block_table.assign(block_table.begin(),
                           block_table.begin() + nblocks);
    for (std::int32_t id : out.block_table) arena->add_ref(id);
  } else {
    const std::size_t rows = static_cast<std::size_t>(out.length) *
                             static_cast<std::size_t>(row_width);
    const std::size_t tiles = static_cast<std::size_t>(nn::key_tiles(
                                  out.length)) *
                              nn::kKeyTile * row_width;
    out.keys.reserve(keys.size());
    out.values.reserve(values.size());
    for (const Vec& k : keys)
      out.keys.emplace_back(
          k.begin(),
          k.begin() + static_cast<std::ptrdiff_t>(std::min(tiles, k.size())));
    for (const Vec& v : values)
      out.values.emplace_back(v.begin(),
                              v.begin() + static_cast<std::ptrdiff_t>(rows));
  }
  if (out.length == length) out.logits = logits;
  return out;
}

void Transformer::KvCache::truncate(int new_length) {
  if (new_length >= length) return;
  length = std::max(0, new_length);
  if (paged()) {
    const int bs = arena->block_size();
    const int keep = (length + bs - 1) / bs;
    while (static_cast<int>(block_table.size()) > keep) {
      arena->release(block_table.back());
      block_table.pop_back();
    }
  }
  // The logits belong to the position that no longer is the last one.
  logits.clear();
  logits.shrink_to_fit();
}

std::size_t Transformer::KvCache::byte_size() const {
  std::size_t bytes = logits.capacity() * sizeof(float);
  if (paged()) {
    bytes += block_table.size() * arena->block_bytes();
    bytes += block_table.capacity() * sizeof(std::int32_t);
  }
  for (const Vec& k : keys) bytes += k.capacity() * sizeof(float);
  for (const Vec& v : values) bytes += v.capacity() * sizeof(float);
  return bytes;
}

void Transformer::KvCache::materialize() {
  if (!paged()) return;
  const int layers = arena->n_layers();
  const int d = row_width;
  const int bs = arena->block_size();
  const std::size_t per_layer =
      static_cast<std::size_t>(capacity) * static_cast<std::size_t>(d);
  const std::size_t key_floats =
      static_cast<std::size_t>(nn::key_tiles(capacity)) * nn::kKeyTile * d;
  keys.assign(static_cast<std::size_t>(layers), Vec(key_floats, 0.0f));
  values.assign(static_cast<std::size_t>(layers), Vec(per_layer, 0.0f));
  for (int li = 0; li < layers; ++li) {
    for (std::size_t b = 0; b < block_table.size(); ++b) {
      const int row0 = static_cast<int>(b) * bs;
      const int rows = std::min(bs, length - row0);
      if (rows <= 0) break;
      // Block row r moves to lane (row0 + r) % kKeyTile of monolithic
      // tile (row0 + r) / kKeyTile.
      for (int r = 0; r < rows; ++r) {
        const float* from = arena->key_tile(block_table[b], li,
                                            r / nn::kKeyTile) +
                            r % nn::kKeyTile;
        const int p = row0 + r;
        float* to = keys[static_cast<std::size_t>(li)].data() +
                    static_cast<std::size_t>(p / nn::kKeyTile) *
                        nn::kKeyTile * d +
                    p % nn::kKeyTile;
        for (int c = 0; c < d; ++c)
          to[c * nn::kKeyTile] = from[c * nn::kKeyTile];
      }
      std::memcpy(values[static_cast<std::size_t>(li)].data() +
                      static_cast<std::size_t>(row0) * d,
                  arena->value_row(block_table[b], li, 0),
                  static_cast<std::size_t>(rows) * d * sizeof(float));
    }
  }
  release_blocks(*this);
  arena = nullptr;
}

Transformer::KvCache Transformer::make_cache() const {
  KvCache cache;
  const std::size_t per_layer =
      static_cast<std::size_t>(config_.ctx) * config_.d_model;
  const std::size_t key_floats =
      static_cast<std::size_t>(nn::key_tiles(config_.ctx)) * nn::kKeyTile *
      config_.d_model;
  cache.keys.assign(layers_.size(), Vec(key_floats, 0.0f));
  cache.values.assign(layers_.size(), Vec(per_layer, 0.0f));
  cache.row_width = config_.d_model;
  cache.capacity = config_.ctx;
  return cache;
}

Transformer::KvCache Transformer::make_paged_cache(
    KvBlockAllocator* arena) const {
  if (!arena) return make_cache();
  assert(arena->n_layers() == static_cast<int>(layers_.size()));
  assert(arena->row_width() == config_.d_model);
  KvCache cache;
  cache.arena = arena;
  cache.row_width = config_.d_model;
  cache.capacity = config_.ctx;
  return cache;
}

namespace {

// One contiguous run of value rows: `rows` rows at `v`, row stride =
// d_model.
struct ValueRun {
  const float* v;
  int rows;
};

// The KV rows [0, count) of one layer of one cache, in logical row order:
// one key tile per run of up to kKeyTile rows, and the value rows in as
// few contiguous runs as the layout has. A monolithic cache is whole tiles
// and one value run; a paged cache contributes its blocks' tiles (a block
// smaller than a tile gives a short one) and one value run per block. The
// attention loops walk both in logical row order, so the per-row
// arithmetic — and therefore every accumulated float — is identical in
// every layout.
struct KvRuns {
  std::vector<nn::KeyTile> tiles;
  std::vector<ValueRun> values;
};

void collect_runs(const Transformer::KvCache& cache, int li, int count,
                  KvRuns& runs) {
  runs.tiles.clear();
  runs.values.clear();
  if (!cache.paged()) {
    const std::size_t tile_floats =
        static_cast<std::size_t>(nn::kKeyTile) * cache.row_width;
    const float* keys = cache.keys[static_cast<std::size_t>(li)].data();
    for (int t = 0; t * nn::kKeyTile < count; ++t)
      runs.tiles.push_back({keys + static_cast<std::size_t>(t) * tile_floats,
                            std::min(nn::kKeyTile, count - t * nn::kKeyTile)});
    runs.values.push_back(
        {cache.values[static_cast<std::size_t>(li)].data(), count});
    return;
  }
  const int bs = cache.arena->block_size();
  for (std::size_t b = 0; b * bs < static_cast<std::size_t>(count); ++b) {
    const std::int32_t id = cache.block_table[b];
    const int rows = std::min(bs, count - static_cast<int>(b) * bs);
    for (int t = 0; t * nn::kKeyTile < rows; ++t)
      runs.tiles.push_back({cache.arena->key_tile(id, li, t),
                            std::min(nn::kKeyTile, rows - t * nn::kKeyTile)});
    runs.values.push_back({cache.arena->value_row(id, li, 0), rows});
  }
}

// Makes row `pos` of `cache` writable: grows a compacted monolithic clone
// back to the full window, allocates or copy-on-writes the paged block
// covering `pos`. On arena exhaustion the cache falls back to monolithic
// (materialize) — decoding never fails, it just stops being paged.
void prepare_append(Transformer::KvCache& cache, int pos, int ctx) {
  if (!cache.paged()) {
    const std::size_t full_rows = static_cast<std::size_t>(ctx) *
                                  static_cast<std::size_t>(cache.row_width);
    const std::size_t full_tiles = static_cast<std::size_t>(nn::key_tiles(
                                       ctx)) *
                                   nn::kKeyTile * cache.row_width;
    for (std::size_t li = 0; li < cache.keys.size(); ++li) {
      if (cache.keys[li].size() < full_tiles)
        cache.keys[li].resize(full_tiles, 0.0f);
      if (cache.values[li].size() < full_rows)
        cache.values[li].resize(full_rows, 0.0f);
    }
    return;
  }
  KvBlockAllocator* arena = cache.arena;
  const int bs = arena->block_size();
  const std::size_t b = static_cast<std::size_t>(pos / bs);
  if (b < cache.block_table.size()) {
    // Appending into the last block; copy-on-write if it is shared (a
    // prefix-cache snapshot or beam sibling also references it).
    const std::int32_t exclusive =
        arena->make_exclusive(cache.block_table[b]);
    if (exclusive < 0) {
      cache.materialize();
      prepare_append(cache, pos, ctx);
      return;
    }
    cache.block_table[b] = exclusive;
  } else {
    const std::int32_t id = arena->allocate();
    if (id < 0) {
      cache.materialize();
      prepare_append(cache, pos, ctx);
      return;
    }
    cache.block_table.push_back(id);
  }
}

// Scatters the rotated key `k` into lane pos % kKeyTile of the key tile
// holding position `pos`: one float per channel, kKeyTile floats apart.
void append_key(Transformer::KvCache& cache, int li, int pos, const float* k) {
  float* tile;
  int lane;
  if (!cache.paged()) {
    tile = cache.keys[static_cast<std::size_t>(li)].data() +
           static_cast<std::size_t>(pos / nn::kKeyTile) * nn::kKeyTile *
               cache.row_width;
    lane = pos % nn::kKeyTile;
  } else {
    const int bs = cache.arena->block_size();
    const int row = pos % bs;
    tile = cache.arena->key_tile(
        cache.block_table[static_cast<std::size_t>(pos / bs)], li,
        row / nn::kKeyTile);
    lane = row % nn::kKeyTile;
  }
  for (int c = 0; c < cache.row_width; ++c)
    tile[c * nn::kKeyTile + lane] = k[c];
}

float* value_append_row(Transformer::KvCache& cache, int li, int pos) {
  if (!cache.paged())
    return cache.values[static_cast<std::size_t>(li)].data() +
           static_cast<std::size_t>(pos) * cache.row_width;
  const int bs = cache.arena->block_size();
  return cache.arena->value_row(
      cache.block_table[static_cast<std::size_t>(pos / bs)], li, pos % bs);
}

}  // namespace

std::span<const float> Transformer::decode_step(KvCache& cache,
                                                std::int32_t token) const {
  KvCache* caches[1] = {&cache};
  const std::int32_t tokens[1] = {token};
  decode_step_batch(std::span<KvCache* const>(caches, 1),
                    std::span<const std::int32_t>(tokens, 1));
  return cache.logits;
}

namespace {

// The calling thread's working memory for one fused decode step. Buffers
// only grow, so a serving thread stops allocating once it has seen its
// widest step. Each thread has its own (decode is re-entrant across
// threads), and a step never runs inside another step on the same thread:
// the attention shards it hands the pool use their own `att` row. See
// DESIGN.md, "Decode kernels".
struct StepScratch {
  // One per fed cache: its rows end at position `count` after this step.
  struct Seq {
    Transformer::KvCache* cache;
    int count;
  };
  std::vector<Seq> seqs;
  // Row r appends row_token[r] to seqs[row_seq[r]] at position row_pos[r].
  std::vector<int> row_seq, row_pos;
  std::vector<std::int32_t> row_token;
  Vec x, a1, qkv, mix, tmp, a2, fc, mean, rstd, logits_all;
  std::vector<KvRuns> runs;
};

StepScratch& step_scratch() {
  thread_local StepScratch scratch;
  return scratch;
}

// The calling thread's scratch, emptied of the previous step's rows.
StepScratch& begin_step() {
  StepScratch& scratch = step_scratch();
  scratch.seqs.clear();
  scratch.row_seq.clear();
  scratch.row_pos.clear();
  scratch.row_token.clear();
  return scratch;
}

// Flattens one feed: `tokens` are appended to `cache` in order, one row
// each. Runs keep their feed order, so row-major row logits line up with
// the drafted chains.
void add_feed(StepScratch& scratch, Transformer::KvCache& cache,
              std::span<const std::int32_t> tokens, const ModelConfig& config) {
  const int run = static_cast<int>(tokens.size());
  assert(cache.length + run <= config.ctx);
  const int seq = static_cast<int>(scratch.seqs.size());
  scratch.seqs.push_back({&cache, cache.length + run});
  for (int j = 0; j < run; ++j) {
    const int p = cache.length + j;
    const std::int32_t token = tokens[static_cast<std::size_t>(j)];
    assert(token >= 0 && token < config.vocab);
    scratch.row_seq.push_back(seq);
    scratch.row_pos.push_back(p);
    scratch.row_token.push_back(token);
    prepare_append(cache, p, config.ctx);
  }
}

// One query row's attention probabilities, head after head, each head's
// `count` scores in logical row order. Lives per thread because attention
// shards run on pool lanes.
Vec& attention_row(std::size_t size) {
  thread_local Vec att;
  if (att.size() < size) att.resize(size);
  return att;
}

}  // namespace

void Transformer::decode_step_batch(
    std::span<KvCache* const> caches,
    std::span<const std::int32_t> tokens) const {
  assert(tokens.size() == caches.size());
  StepScratch& scratch = begin_step();
  for (std::size_t s = 0; s < caches.size(); ++s)
    add_feed(scratch, *caches[s], tokens.subspan(s, 1), config_);
  forward_rows(nullptr);
}

void Transformer::verify_step_batch(std::span<const SpanFeed> feeds,
                                    std::vector<float>* row_logits) const {
  StepScratch& scratch = begin_step();
  for (const SpanFeed& feed : feeds)
    add_feed(scratch, *feed.cache, feed.tokens, config_);
  forward_rows(row_logits);
}

void Transformer::forward_rows(std::vector<float>* row_logits) const {
  StepScratch& scratch = step_scratch();
  const int d = config_.d_model;
  const int h = config_.n_head;
  const int hd = config_.head_dim();
  const int ff = config_.d_ff;
  const int v = config_.vocab;
  const float att_scale = 1.0f / std::sqrt(static_cast<float>(hd));
  const std::vector<int>& row_seq = scratch.row_seq;
  const std::vector<int>& row_pos = scratch.row_pos;
  const int n = static_cast<int>(scratch.row_token.size());
  if (n == 0) return;

  const std::size_t nd = static_cast<std::size_t>(n) * d;
  Vec& x = scratch.x;
  x.resize(nd);
  for (int r = 0; r < n; ++r)
    std::memcpy(x.data() + static_cast<std::size_t>(r) * d,
                wte_.w.data() +
                    static_cast<std::size_t>(
                        scratch.row_token[static_cast<std::size_t>(r)]) *
                        d,
                d * sizeof(float));
  Vec& a1 = scratch.a1;
  Vec& qkv = scratch.qkv;
  Vec& mix = scratch.mix;
  Vec& tmp = scratch.tmp;
  Vec& a2 = scratch.a2;
  Vec& fc = scratch.fc;
  Vec& mean = scratch.mean;
  Vec& rstd = scratch.rstd;
  a1.resize(nd);
  qkv.resize(static_cast<std::size_t>(n) * 3 * d);
  mix.resize(nd);
  tmp.resize(nd);
  a2.resize(nd);
  fc.resize(static_cast<std::size_t>(n) * ff);
  mean.resize(static_cast<std::size_t>(n));
  rstd.resize(static_cast<std::size_t>(n));

  // Attention work this step: q·K^T plus probs·V per row, all heads.
  std::size_t att_madds = 0;
  for (int r = 0; r < n; ++r)
    att_madds +=
        2ull * static_cast<std::size_t>(h) *
        static_cast<std::size_t>(row_pos[static_cast<std::size_t>(r)] + 1) *
        static_cast<std::size_t>(hd);

  std::vector<KvRuns>& runs = scratch.runs;
  if (runs.size() < scratch.seqs.size()) runs.resize(scratch.seqs.size());

  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& L = layers_[li];
    // Batched rows: every kernel below computes each row exactly as the
    // single-row step would (row-independent kernels), and a row's causal
    // attention reads exactly the K/V rows a sequential feed of its run
    // would have written, in the same order — so the fused pass is
    // bit-identical to sequential decode_steps.
    nn::layernorm(x.data(), L.ln1_g.w.data(), L.ln1_b.w.data(), a1.data(),
                  mean.data(), rstd.data(), n, d);
    nn::matmul(a1.data(), L.wqkv.w.data(), qkv.data(), n, d, 3 * d);
    nn::add_bias(qkv.data(), L.bqkv.w.data(), qkv.data(), n, 3 * d);
    for (int r = 0; r < n; ++r) {
      float* row = qkv.data() + static_cast<std::size_t>(r) * 3 * d;
      const int p = row_pos[static_cast<std::size_t>(r)];
      const std::size_t seq =
          static_cast<std::size_t>(row_seq[static_cast<std::size_t>(r)]);
      KvCache& cache = *scratch.seqs[seq].cache;
      // Rotate q and k at this row's position.
      for (int head = 0; head < h; ++head) {
        nn::rotary(row + head * hd, 1, hd, rotary_, p);
        nn::rotary(row + d + head * hd, 1, hd, rotary_, p);
      }
      // Append rotated k and v.
      append_key(cache, static_cast<int>(li), p, row + d);
      std::memcpy(value_append_row(cache, static_cast<int>(li), p),
                  row + 2 * d, d * sizeof(float));
    }
    // All of this layer's rows are appended; each attention row below caps
    // its walk at its own causal horizon (earlier rows of the same run
    // included, later ones not).
    for (std::size_t s = 0; s < scratch.seqs.size(); ++s)
      collect_runs(*scratch.seqs[s].cache, static_cast<int>(li),
                   scratch.seqs[s].count, runs[s]);

    for_each_slot(n, att_madds, [&](int r0, int r1) {
      Vec& att = attention_row(static_cast<std::size_t>(h) * config_.ctx);
      for (int r = r0; r < r1; ++r) {
        const KvRuns& kv = runs[static_cast<std::size_t>(
            row_seq[static_cast<std::size_t>(r)])];
        const float* q = qkv.data() + static_cast<std::size_t>(r) * 3 * d;
        const int count = row_pos[static_cast<std::size_t>(r)] + 1;
        // Head `head`'s probabilities are att[head * count, +count).
        for (int head = 0; head < h; ++head)
          nn::attention_scores(q + head * hd, kv.tiles, head * hd, hd,
                               att_scale, count,
                               att.data() + static_cast<std::size_t>(head) *
                                                count);
        nn::softmax(att.data(), att.data(), h, count);
        float* out = mix.data() + static_cast<std::size_t>(r) * d;
        std::fill(out, out + d, 0.0f);
        int j = 0;
        for (const ValueRun& run : kv.values) {
          const int rows = std::min(run.rows, count - j);
          nn::attention_mix(att.data() + j, count, h, hd, run.v, d, rows, out);
          j += rows;
          if (j >= count) break;
        }
      }
    });

    nn::matmul(mix.data(), L.wo.w.data(), tmp.data(), n, d, d);
    nn::add_bias(tmp.data(), L.bo.w.data(), tmp.data(), n, d);
    for (std::size_t i = 0; i < nd; ++i) x[i] += tmp[i];

    nn::layernorm(x.data(), L.ln2_g.w.data(), L.ln2_b.w.data(), a2.data(),
                  mean.data(), rstd.data(), n, d);
    nn::matmul(a2.data(), L.wfc.w.data(), fc.data(), n, d, ff);
    nn::add_bias(fc.data(), L.bfc.w.data(), fc.data(), n, ff);
    // Row by row, so every row takes the same tanh path at any batch width
    // (the vectorized tanh splits a longer array at other points).
    for (int r = 0; r < n; ++r) {
      float* row = fc.data() + static_cast<std::size_t>(r) * ff;
      nn::gelu(row, row, ff);
    }
    nn::matmul(fc.data(), L.wproj.w.data(), tmp.data(), n, ff, d);
    nn::add_bias(tmp.data(), L.bproj.w.data(), tmp.data(), n, d);
    for (std::size_t i = 0; i < nd; ++i) x[i] += tmp[i];
  }
  nn::layernorm(x.data(), lnf_g_.w.data(), lnf_b_.w.data(), a1.data(),
                mean.data(), rstd.data(), n, d);
  Vec& logits_all = scratch.logits_all;
  logits_all.resize(static_cast<std::size_t>(n) * v);
  nn::matmul(a1.data(), head_.w.data(), logits_all.data(), n, d, v);
  if (row_logits)
    row_logits->assign(logits_all.begin(),
                       logits_all.begin() + static_cast<std::ptrdiff_t>(n) * v);
  for (int r = 0; r < n; ++r) {
    const std::size_t s =
        static_cast<std::size_t>(row_seq[static_cast<std::size_t>(r)]);
    KvCache& cache = *scratch.seqs[s].cache;
    // The run's last row becomes the cache's next-token logits.
    if (r + 1 == n ||
        static_cast<std::size_t>(row_seq[static_cast<std::size_t>(r + 1)]) != s)
      cache.logits.assign(
          logits_all.begin() + static_cast<std::ptrdiff_t>(r) * v,
          logits_all.begin() + static_cast<std::ptrdiff_t>(r + 1) * v);
    cache.length = row_pos[static_cast<std::size_t>(r)] + 1;
  }
}

std::span<const std::int32_t> Transformer::kept_prompt(
    std::span<const std::int32_t> prompt, int max_new_tokens) const {
  // Left-truncate the prompt so prompt + generation fits the window, but
  // never reserve more than half the window for generation — a prompt
  // crushed to a few tokens would leave nothing to condition on.
  const int reserve = std::min(max_new_tokens, config_.ctx / 2);
  const int budget = std::max(1, config_.ctx - reserve);
  if (static_cast<int>(prompt.size()) > budget)
    return prompt.subspan(prompt.size() - static_cast<std::size_t>(budget));
  return prompt;
}

std::vector<std::int32_t> Transformer::generate(
    std::span<const std::int32_t> prompt,
    const GenerateOptions& options) const {
  std::span<const std::int32_t> kept =
      kept_prompt(prompt, options.max_new_tokens);

  GenerateStatus local_status;
  GenerateStatus& status = options.status ? *options.status : local_status;
  status = GenerateStatus{};

  obs::TraceContext inert_trace;
  obs::TraceContext& trace =
      options.trace ? *options.trace : inert_trace;
  const bool observe = obs::enabled();
  if (observe) decode_metrics().generate_calls->inc();

  // Warm start: the caller's cache already holds a prefix of the kept
  // prompt, so prefill resumes after it. The cached rows are exactly the
  // rows a cold prefill would write (decode_step is deterministic in the
  // token sequence), so warm and cold generation are bit-identical.
  KvCache local_cache;
  KvCache* cache_ptr = options.warm_cache;
  if (cache_ptr) {
    assert(cache_ptr->length <= static_cast<int>(kept.size()));
    assert(cache_ptr->length < static_cast<int>(kept.size()) ||
           !cache_ptr->logits.empty());
  } else {
    local_cache = make_cache();
    cache_ptr = &local_cache;
  }
  KvCache& cache = *cache_ptr;
  const std::size_t skip = static_cast<std::size_t>(cache.length);
  status.prefill_tokens_reused = cache.length;

  std::span<const float> logits;
  if (skip == kept.size() && skip > 0) logits = cache.logits;
  std::vector<std::int32_t> out;
  {
    auto prefill_span = trace.span("prefill");
    auto prefill_start = observe ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
    for (std::size_t i = skip; i < kept.size(); ++i) {
      if (options.deadline.expired()) {
        status.deadline_expired = true;
        return out;  // nothing decoded yet: empty partial result
      }
      logits = decode_step(cache, kept[i]);
      ++status.steps_taken;
    }
    if (observe) {
      decode_metrics().prefill_ms->observe(elapsed_ms_since(prefill_start));
      decode_metrics().decoded_tokens->inc(
          static_cast<std::uint64_t>(status.steps_taken));
    }
  }
  if (kept.empty()) return out;
  if (options.prompt_snapshot)
    *options.prompt_snapshot = cache.clone(static_cast<int>(kept.size()));
  util::Rng rng(options.sample_seed);
  for (int i = 0; i < options.max_new_tokens && cache.length < config_.ctx;
       ++i) {
    if (options.deadline.expired()) {
      status.deadline_expired = true;
      break;
    }
    auto decode_span = trace.span("decode");
    std::int32_t next =
        options.temperature > 0.0f
            ? sample_token(logits, options.temperature, options.top_k, rng)
            : argmax_token(logits);
    if (next == options.stop_token) break;
    out.push_back(next);
    if (options.on_token) options.on_token(next);
    if (cache.length < config_.ctx) {
      auto token_start = observe ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
      logits = decode_step(cache, next);
      ++status.steps_taken;
      if (observe) {
        decode_metrics().token_ms->observe(elapsed_ms_since(token_start));
        decode_metrics().decoded_tokens->inc();
      }
    }
  }
  return out;
}

namespace {

// Row log-softmax into `out` (size vocab).
void log_softmax(std::span<const float> logits, std::vector<float>& out) {
  out.resize(logits.size());
  float mx = logits[0];
  for (float v : logits) mx = std::max(mx, v);
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i)
    sum += std::exp(static_cast<double>(logits[i] - mx));
  const float log_z = mx + static_cast<float>(std::log(sum));
  for (std::size_t i = 0; i < logits.size(); ++i) out[i] = logits[i] - log_z;
}

}  // namespace

std::vector<std::int32_t> Transformer::generate_beam(
    std::span<const std::int32_t> prompt, const BeamOptions& options) const {
  const int width = std::max(1, options.beam_width);
  std::span<const std::int32_t> kept =
      kept_prompt(prompt, options.max_new_tokens);
  if (kept.empty()) return {};

  struct Beam {
    KvCache cache;
    std::vector<std::int32_t> tokens;
    float score = 0.0f;
    std::vector<float> logprobs;  // of the next-token distribution
  };
  auto normalized = [&](float score, std::size_t length) {
    if (length == 0) return score;
    return score / std::pow(static_cast<float>(length),
                            options.length_penalty);
  };

  GenerateStatus local_status;
  GenerateStatus& status = options.status ? *options.status : local_status;
  status = GenerateStatus{};

  obs::TraceContext inert_trace;
  obs::TraceContext& trace =
      options.trace ? *options.trace : inert_trace;
  const bool observe = obs::enabled();
  if (observe) decode_metrics().generate_calls->inc();

  // Seed beam: the prompt fed once, resuming past any warm-cached prefix
  // (same contract as GenerateOptions::warm_cache; the warm cache is
  // cloned so the caller's copy stays usable).
  Beam seed;
  if (options.warm_cache) {
    assert(options.warm_cache->length <= static_cast<int>(kept.size()));
    assert(options.warm_cache->length < static_cast<int>(kept.size()) ||
           !options.warm_cache->logits.empty());
    seed.cache = options.warm_cache->clone();
  } else {
    seed.cache = make_cache();
  }
  const std::size_t skip = static_cast<std::size_t>(seed.cache.length);
  status.prefill_tokens_reused = seed.cache.length;
  std::span<const float> logits;
  if (skip == kept.size() && skip > 0) logits = seed.cache.logits;
  {
    auto prefill_span = trace.span("prefill");
    auto prefill_start = observe ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
    for (std::size_t i = skip; i < kept.size(); ++i) {
      if (options.deadline.expired()) {
        status.deadline_expired = true;
        return {};  // prefill never finished: no hypothesis exists yet
      }
      logits = decode_step(seed.cache, kept[i]);
      ++status.steps_taken;
    }
    if (observe) {
      decode_metrics().prefill_ms->observe(elapsed_ms_since(prefill_start));
      decode_metrics().decoded_tokens->inc(
          static_cast<std::uint64_t>(status.steps_taken));
    }
  }
  if (options.prompt_snapshot)
    *options.prompt_snapshot = seed.cache.clone(static_cast<int>(kept.size()));
  log_softmax(logits, seed.logprobs);

  std::vector<Beam> beams;
  beams.push_back(std::move(seed));
  std::vector<std::int32_t> best_finished;
  float best_finished_score = -std::numeric_limits<float>::infinity();

  for (int step = 0; step < options.max_new_tokens && !beams.empty();
       ++step) {
    if (options.deadline.expired()) {
      status.deadline_expired = true;
      break;  // fall through to best-finished / best-live selection
    }
    ++status.steps_taken;
    auto step_span = trace.span("beam_step");
    // Gather candidate expansions from every live beam.
    struct Candidate {
      std::size_t beam;
      std::int32_t token;
      float score;
    };
    std::vector<Candidate> candidates;
    candidates.reserve(beams.size() * static_cast<std::size_t>(width) * 2);
    for (std::size_t b = 0; b < beams.size(); ++b) {
      // Only the top `width` tokens of a beam can survive the global cut.
      std::vector<std::int32_t> order(
          static_cast<std::size_t>(config_.vocab));
      for (std::int32_t j = 0; j < config_.vocab; ++j)
        order[static_cast<std::size_t>(j)] = j;
      std::size_t keep_n =
          std::min<std::size_t>(static_cast<std::size_t>(width),
                                order.size());
      std::partial_sort(
          order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep_n),
          order.end(), [&](std::int32_t x, std::int32_t y) {
            return beams[b].logprobs[static_cast<std::size_t>(x)] >
                   beams[b].logprobs[static_cast<std::size_t>(y)];
          });
      for (std::size_t i = 0; i < keep_n; ++i) {
        candidates.push_back(
            {b, order[i],
             beams[b].score +
                 beams[b].logprobs[static_cast<std::size_t>(order[i])]});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.score > b.score;
              });

    std::vector<Beam> next;
    for (const Candidate& c : candidates) {
      if (static_cast<int>(next.size()) >= width) break;
      const Beam& parent = beams[c.beam];
      if (c.token == options.stop_token) {
        float score = normalized(c.score, parent.tokens.size() + 1);
        if (score > best_finished_score) {
          best_finished_score = score;
          best_finished = parent.tokens;
        }
        continue;
      }
      if (parent.cache.length >= config_.ctx) {
        // Out of window: treat as finished without the stop token.
        float score = normalized(c.score, parent.tokens.size() + 1);
        if (score > best_finished_score) {
          best_finished_score = score;
          best_finished = parent.tokens;
          best_finished.push_back(c.token);
        }
        continue;
      }
      Beam child;
      child.cache = parent.cache;  // copy (small at this scale)
      child.tokens = parent.tokens;
      child.tokens.push_back(c.token);
      child.score = c.score;
      std::span<const float> child_logits =
          decode_step(child.cache, c.token);
      log_softmax(child_logits, child.logprobs);
      next.push_back(std::move(child));
    }
    beams = std::move(next);
    // Early-stop heuristic (standard practice): once the best finished
    // hypothesis outscores every live beam's current normalized score,
    // further expansion is very unlikely to win.
    if (!beams.empty()) {
      float best_live = -std::numeric_limits<float>::infinity();
      for (const Beam& b : beams)
        best_live = std::max(best_live,
                             normalized(b.score, b.tokens.size()));
      if (best_finished_score > best_live &&
          best_finished_score > -std::numeric_limits<float>::infinity())
        break;
    }
  }
  if (!best_finished.empty() ||
      best_finished_score > -std::numeric_limits<float>::infinity()) {
    return best_finished;
  }
  // No beam finished: return the best live hypothesis.
  const Beam* best = nullptr;
  for (const Beam& b : beams) {
    if (!best || normalized(b.score, b.tokens.size()) >
                     normalized(best->score, best->tokens.size()))
      best = &b;
  }
  return best ? best->tokens : std::vector<std::int32_t>{};
}

std::int32_t Transformer::argmax_token(std::span<const float> logits) const {
  assert(logits.size() >= static_cast<std::size_t>(config_.vocab));
  return nn::argmax(logits.data(), config_.vocab);
}

std::int32_t Transformer::sample_token(std::span<const float> logits,
                                       float temperature, int top_k,
                                       util::Rng& rng) const {
  // Rank candidates, keep the top-k (or all), temperature-scale, sample.
  std::vector<std::int32_t> order(static_cast<std::size_t>(config_.vocab));
  for (std::int32_t j = 0; j < config_.vocab; ++j)
    order[static_cast<std::size_t>(j)] = j;
  std::size_t keep = top_k > 0 ? std::min<std::size_t>(
                                     static_cast<std::size_t>(top_k),
                                     order.size())
                               : order.size();
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(keep),
                    order.end(), [&](std::int32_t a, std::int32_t b) {
                      return logits[static_cast<std::size_t>(a)] >
                             logits[static_cast<std::size_t>(b)];
                    });
  order.resize(keep);

  const float max_logit = logits[static_cast<std::size_t>(order[0])];
  std::vector<double> weights(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    weights[i] = std::exp(
        (logits[static_cast<std::size_t>(order[i])] - max_logit) /
        temperature);
  }
  return order[rng.weighted(weights)];
}

}  // namespace wisdom::model
