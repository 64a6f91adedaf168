#include "nn/adamw.hpp"

#include <cmath>

namespace wisdom::nn {

void AdamW::step_param(Param& param, float lr, bool decay) {
  const float b1 = config_.beta1;
  const float b2 = config_.beta2;
  const float bias1 =
      1.0f - std::pow(b1, static_cast<float>(t_));
  const float bias2 =
      1.0f - std::pow(b2, static_cast<float>(t_));
  const float wd = decay ? config_.weight_decay : 0.0f;
  param.ensure_grad();
  if (param.m.size() != param.w.size()) {
    param.m.assign(param.w.size(), 0.0f);
    param.v.assign(param.w.size(), 0.0f);
  }
  for (std::size_t i = 0; i < param.w.size(); ++i) {
    float g = param.g[i];
    param.m[i] = b1 * param.m[i] + (1.0f - b1) * g;
    param.v[i] = b2 * param.v[i] + (1.0f - b2) * g * g;
    float mhat = param.m[i] / bias1;
    float vhat = param.v[i] / bias2;
    param.w[i] -= lr * (mhat / (std::sqrt(vhat) + config_.eps) +
                        wd * param.w[i]);
  }
}

float clip_grad_norm(std::vector<Param*>& params, float max_norm) {
  double sq = 0.0;
  for (Param* p : params) {
    for (float g : p->g) sq += static_cast<double>(g) * g;
  }
  float norm = static_cast<float>(std::sqrt(sq));
  if (norm > max_norm && norm > 0.0f) {
    float scale = max_norm / norm;
    for (Param* p : params) {
      for (float& g : p->g) g *= scale;
    }
  }
  return norm;
}

}  // namespace wisdom::nn
