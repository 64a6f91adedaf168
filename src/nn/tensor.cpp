#include "nn/tensor.hpp"

#include <algorithm>

namespace wisdom::nn {

void Param::resize(std::size_t n) {
  w.assign(n, 0.0f);
  g.assign(n, 0.0f);
  m.assign(n, 0.0f);
  v.assign(n, 0.0f);
}

void Param::zero_grad() { g.assign(w.size(), 0.0f); }

void Param::ensure_grad() {
  if (g.size() != w.size()) g.assign(w.size(), 0.0f);
}

void init_normal(Vec& w, util::Rng& rng, float std) {
  for (float& x : w) x = static_cast<float>(rng.normal()) * std;
}

void fill(Vec& w, float value) { std::fill(w.begin(), w.end(), value); }

}  // namespace wisdom::nn
