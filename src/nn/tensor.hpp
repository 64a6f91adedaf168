// Flat float buffers for the transformer. The model is small enough that a
// minimal representation — contiguous row-major data plus explicit
// dimensions at the call sites — is clearer and faster than a full tensor
// library, and keeps every backward pass auditable.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace wisdom::nn {

using Vec = std::vector<float>;

// A learnable parameter: weights, gradient accumulator, and AdamW moments.
// resize() sizes all four; a parameter that only serves (a loaded
// checkpoint) holds just `w`, and training sizes the others, zeroed, on
// first use: zero_grad() and ensure_grad() the gradient, the AdamW step
// the moments. Training from either start gives the same floats.
struct Param {
  Vec w;
  Vec g;
  Vec m;
  Vec v;

  explicit Param(std::size_t n = 0) { resize(n); }
  void resize(std::size_t n);
  std::size_t size() const { return w.size(); }
  void zero_grad();
  // Sizes `g` to `w`, zeroed, unless it already is; keeps a sized `g`.
  void ensure_grad();
};

// Normal(0, std) initialization.
void init_normal(Vec& w, util::Rng& rng, float std);
// Ones / zeros (layernorm gain / biases).
void fill(Vec& w, float value);

}  // namespace wisdom::nn
