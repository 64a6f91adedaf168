#include "model/kv_block.hpp"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include "nn/ops.hpp"

namespace wisdom::model {

KvBlockAllocator::KvBlockAllocator(int capacity_blocks, int block_size,
                                   int n_layers, int d_model)
    : capacity_(capacity_blocks),
      block_size_(block_size),
      n_layers_(n_layers),
      d_(d_model),
      tiles_(nn::key_tiles(block_size)),
      tile_floats_(static_cast<std::size_t>(nn::kKeyTile) * d_model),
      layer_stride_((static_cast<std::size_t>(tiles_) * nn::kKeyTile +
                     static_cast<std::size_t>(block_size)) *
                    d_model),
      value_offset_(static_cast<std::size_t>(tiles_) * tile_floats_),
      block_stride_(static_cast<std::size_t>(n_layers) * layer_stride_) {
  assert(capacity_ > 0 && block_size_ > 0 && n_layers_ > 0 && d_ > 0);
  storage_.reset(static_cast<float*>(std::calloc(
      static_cast<std::size_t>(capacity_) * block_stride_, sizeof(float))));
  if (!storage_) throw std::bad_alloc();
  refs_.assign(static_cast<std::size_t>(capacity_), 0);
  free_.reserve(static_cast<std::size_t>(capacity_));
  // LIFO: block 0 is handed out first.
  for (int id = capacity_ - 1; id >= 0; --id) free_.push_back(id);
}

void KvBlockAllocator::check_live(std::int32_t id, const char* op) const {
  if (id < 0 || id >= capacity_)
    throw std::logic_error(std::string("KvBlockAllocator::") + op +
                           ": block id " + std::to_string(id) +
                           " out of range");
  if (refs_[static_cast<std::size_t>(id)] <= 0)
    throw std::logic_error(std::string("KvBlockAllocator::") + op +
                           ": block " + std::to_string(id) +
                           " is not live (double free?)");
}

std::int32_t KvBlockAllocator::allocate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.empty()) {
    ++failed_allocations_;
    return -1;
  }
  const std::int32_t id = free_.back();
  free_.pop_back();
  refs_[static_cast<std::size_t>(id)] = 1;
  ++allocations_;
  const int in_use = capacity_ - static_cast<int>(free_.size());
  if (in_use > peak_in_use_) peak_in_use_ = in_use;
  return id;
}

void KvBlockAllocator::add_ref(std::int32_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  check_live(id, "add_ref");
  ++refs_[static_cast<std::size_t>(id)];
}

void KvBlockAllocator::release(std::int32_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  check_live(id, "release");
  if (--refs_[static_cast<std::size_t>(id)] == 0) {
    free_.push_back(id);
    ++releases_;
  }
}

int KvBlockAllocator::ref_count(std::int32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= capacity_) return 0;
  return refs_[static_cast<std::size_t>(id)];
}

std::int32_t KvBlockAllocator::make_exclusive(std::int32_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  check_live(id, "make_exclusive");
  if (refs_[static_cast<std::size_t>(id)] == 1) return id;
  if (free_.empty()) {
    ++failed_allocations_;
    return -1;
  }
  const std::int32_t copy = free_.back();
  free_.pop_back();
  refs_[static_cast<std::size_t>(copy)] = 1;
  ++allocations_;
  ++cow_copies_;
  const int in_use = capacity_ - static_cast<int>(free_.size());
  if (in_use > peak_in_use_) peak_in_use_ = in_use;
  std::memcpy(storage_.get() + static_cast<std::size_t>(copy) * block_stride_,
              storage_.get() + static_cast<std::size_t>(id) * block_stride_,
              block_stride_ * sizeof(float));
  --refs_[static_cast<std::size_t>(id)];
  return copy;
}

int KvBlockAllocator::free_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(free_.size());
}

KvBlockStats KvBlockAllocator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  KvBlockStats s;
  s.capacity = capacity_;
  s.free_blocks = static_cast<int>(free_.size());
  s.in_use = capacity_ - s.free_blocks;
  s.peak_in_use = peak_in_use_;
  s.allocations = allocations_;
  s.releases = releases_;
  s.cow_copies = cow_copies_;
  s.failed_allocations = failed_allocations_;
  return s;
}

}  // namespace wisdom::model
