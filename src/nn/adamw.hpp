// AdamW optimizer (decoupled weight decay), the optimizer the paper's
// HuggingFace training stack uses by default.
#pragma once

#include "nn/tensor.hpp"

namespace wisdom::nn {

struct AdamWConfig {
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.01f;
};

class AdamW {
 public:
  explicit AdamW(AdamWConfig config = {}) : config_(config) {}

  // Applies one update to `param` at learning rate `lr`, advancing the
  // bias-correction step only when `advance_step` (call with true on the
  // first param of each optimizer step). A weights-only `param` first gets
  // its gradient and moments sized, zeroed.
  void step_param(Param& param, float lr, bool decay = true);
  void begin_step() { ++t_; }
  std::int64_t steps() const { return t_; }

 private:
  AdamWConfig config_;
  std::int64_t t_ = 0;
};

// Global-norm gradient clipping across a set of parameters; returns the
// pre-clip norm.
float clip_grad_norm(std::vector<Param*>& params, float max_norm);

}  // namespace wisdom::nn
