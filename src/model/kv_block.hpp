// Paged KV memory: a fixed-capacity arena of uniform KV blocks.
//
// A block holds `block_size` token rows of rotated keys and values for
// every layer at once (vLLM-style paged attention, scaled to this repo).
// Keys are stored as key tiles (nn::kKeyTile rows, channel-major; see
// nn/ops.hpp), the same layout as the monolithic cache, so a block's keys
// take whole tiles: a block size that is not a multiple of the tile pads
// its last tile.
// Decodes hold per-sequence block tables instead of one monolithic
// [ctx x d_model] buffer per layer, which is what makes continuous
// batching affordable: admitting a sequence costs ceil(len / block_size)
// blocks rather than a full context window, and the prefix-cache trie
// shares blocks by reference count instead of deep-copying snapshots.
//
// Sharing is copy-on-write: clone()ing a paged KvCache bumps refcounts;
// the first append into a shared block copies it into a fresh exclusive
// one (KvBlockAllocator::make_exclusive). Shared blocks are never
// written, so readers need no locks — the mutex guards only the free
// list and refcounts. Payload values are bit-identical to the monolithic
// layout because blocks only change where rows live, never how they are
// computed.
//
// The region idiom: all storage is one contiguous allocation owned by
// the arena; blocks are handles (indices) into it, freed by pushing the
// index back on a LIFO free list. Blocks are uniform, so there is no
// external fragmentation — any free block satisfies any request. The
// allocation comes from calloc, so its pages are mapped, zeroed, on first
// touch: building an arena sized for the worst case costs no page
// faults, each block's cost moves to the first decode that writes it, and
// a never-written block reads zero.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

namespace wisdom::model {

struct KvBlockStats {
  int capacity = 0;       // total blocks in the arena
  int free_blocks = 0;    // currently on the free list
  int in_use = 0;         // capacity - free_blocks
  int peak_in_use = 0;    // high-water mark
  std::uint64_t allocations = 0;  // allocate() + COW copies
  std::uint64_t releases = 0;     // refs dropped to zero
  std::uint64_t cow_copies = 0;   // make_exclusive() copies
  std::uint64_t failed_allocations = 0;  // exhaustion events
};

class KvBlockAllocator {
 public:
  // capacity_blocks uniform blocks of block_size token rows: per layer,
  // key_tiles(block_size) key tiles plus block_size rows of d_model value
  // floats.
  KvBlockAllocator(int capacity_blocks, int block_size, int n_layers,
                   int d_model);

  int capacity() const { return capacity_; }
  int block_size() const { return block_size_; }
  int n_layers() const { return n_layers_; }
  int row_width() const { return d_; }
  // Blocks needed to hold `tokens` rows (ceil division); the unit the
  // scheduler's admission control and KV-pressure checks budget in.
  int blocks_for_tokens(int tokens) const {
    return tokens <= 0 ? 0 : (tokens + block_size_ - 1) / block_size_;
  }
  // Payload bytes of one block (all layers, keys + values), the padding
  // of a partly used last key tile included.
  std::size_t block_bytes() const {
    return block_stride_ * sizeof(float);
  }

  // Hands out a free block with refcount 1; -1 when the arena is
  // exhausted (callers fall back to monolithic caches — never fatal).
  std::int32_t allocate();
  // Shares `id`: one more owner.
  void add_ref(std::int32_t id);
  // Drops one owner; the block returns to the free list at zero.
  // Throws std::logic_error on a block that is not live (double free)
  // or an out-of-range id — the arena's corruption tripwire.
  void release(std::int32_t id);
  int ref_count(std::int32_t id) const;
  // Copy-on-write helper: returns `id` unchanged when exclusively
  // owned; otherwise copies the payload into a fresh block, drops one
  // reference on `id`, and returns the copy. Returns -1 (and leaves
  // `id`'s refcount untouched) when the arena is exhausted.
  std::int32_t make_exclusive(std::int32_t id);

  int free_blocks() const;
  KvBlockStats stats() const;

  // Payload accessors. Lock-free: storage never moves after
  // construction, and a block's payload is only written by its exclusive
  // owner. Block row r's key is lane r % kKeyTile of key tile
  // r / kKeyTile; its value is a d_model-float row.
  float* key_tile(std::int32_t block, int layer, int tile) {
    return storage_.get() + layer_offset(block, layer) +
           static_cast<std::size_t>(tile) * tile_floats_;
  }
  const float* key_tile(std::int32_t block, int layer, int tile) const {
    return storage_.get() + layer_offset(block, layer) +
           static_cast<std::size_t>(tile) * tile_floats_;
  }
  float* value_row(std::int32_t block, int layer, int row) {
    return storage_.get() + layer_offset(block, layer) + value_offset_ +
           static_cast<std::size_t>(row) * d_;
  }
  const float* value_row(std::int32_t block, int layer, int row) const {
    return storage_.get() + layer_offset(block, layer) + value_offset_ +
           static_cast<std::size_t>(row) * d_;
  }

 private:
  std::size_t layer_offset(std::int32_t block, int layer) const {
    return static_cast<std::size_t>(block) * block_stride_ +
           static_cast<std::size_t>(layer) * layer_stride_;
  }
  void check_live(std::int32_t id, const char* op) const;  // mu_ held

  const int capacity_;
  const int block_size_;
  const int n_layers_;
  const int d_;
  const int tiles_;                  // key tiles per block and layer
  // Block layout: [layer 0 keys | layer 0 values | layer 1 keys | ...]:
  // keys as tiles_ key tiles, values block_size x d_model row-major.
  const std::size_t tile_floats_;    // floats per key tile
  const std::size_t layer_stride_;   // floats per layer section pair
  const std::size_t value_offset_;   // keys -> values skip within a layer
  const std::size_t block_stride_;   // floats per block

  struct FreeStorage {
    void operator()(float* p) const { std::free(p); }
  };
  std::unique_ptr<float[], FreeStorage> storage_;
  mutable std::mutex mu_;
  std::vector<std::int32_t> free_;  // LIFO free list of block ids
  std::vector<int> refs_;           // 0 = free
  int peak_in_use_ = 0;
  std::uint64_t allocations_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t cow_copies_ = 0;
  std::uint64_t failed_allocations_ = 0;
};

}  // namespace wisdom::model
