// Checkpoint save/load: model config + every parameter tensor, plus the
// tokenizer blob so a checkpoint is self-contained (the paper's workflow of
// resuming from a released CodeGen checkpoint and extending its pre-training
// maps onto load -> continue training here).
//
// Format v2 (the only version this build reads or writes):
//
//   u32 magic "WISM" | u32 version=2 | u64 fnv1a64(payload) | payload
//   payload = 6x u32 config | string tokenizer | u64 count | count f32 vecs
//
// The content checksum means a truncated or bit-flipped file loads as a
// typed error instead of silently materializing a garbage model; files
// written before the version field existed are rejected with a clear
// "regenerate" message rather than misparsed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "model/transformer.hpp"
#include "text/bpe.hpp"

namespace wisdom::model {

inline constexpr std::uint32_t kCheckpointVersion = 2;

// Why a load failed; Ok iff a model was produced.
enum class LoadStatus {
  Ok,
  FileNotFound,        // file wrappers only
  BadMagic,            // not a Wisdom checkpoint at all
  UnsupportedVersion,  // pre-versioned (v1) or future format
  ChecksumMismatch,    // truncated or corrupted content
  BadHeader,           // header fields unreadable or config invalid
  BadTensors,          // parameter count/shape disagrees with the config
  TrailingBytes,       // well-formed prefix followed by garbage
};

// Short stable identifier for a status (log/error-message friendly).
const char* load_status_name(LoadStatus status);

struct LoadResult {
  std::optional<Transformer> model;
  LoadStatus status = LoadStatus::Ok;
  std::string message;    // human-readable failure detail; empty on Ok
  std::string tokenizer;  // serialized tokenizer blob (may be empty)

  bool ok() const { return model.has_value(); }
};

// Serializes the model (and optionally its tokenizer blob) to bytes.
std::string save_checkpoint(const Transformer& model,
                            const std::string& tokenizer_blob);

// Restores a model with a typed failure reason. The model is weights-only
// (Transformer's weights constructor): training it sizes its gradient and
// AdamW buffers on first use, so load -> train matches training the saved
// model from fresh optimizer state.
LoadResult load_checkpoint_ex(std::string_view data);
LoadResult load_checkpoint_file_ex(const std::string& path);

// Legacy wrappers collapsing the reason into nullopt. The tokenizer blob is
// returned through `tokenizer_blob` when non-null.
std::optional<Transformer> load_checkpoint(std::string_view data,
                                           std::string* tokenizer_blob);

// Convenience file wrappers.
bool save_checkpoint_file(const std::string& path, const Transformer& model,
                          const std::string& tokenizer_blob);
std::optional<Transformer> load_checkpoint_file(const std::string& path,
                                                std::string* tokenizer_blob);

}  // namespace wisdom::model
