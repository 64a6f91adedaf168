#include "model/checkpoint.hpp"

#include "util/hashing.hpp"
#include "util/io.hpp"

namespace wisdom::model {

namespace util = wisdom::util;

namespace {

constexpr std::uint32_t kMagic = 0x5749534D;  // "WISM"
// magic + version + checksum.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;

LoadResult fail(LoadStatus status, std::string message) {
  LoadResult result;
  result.status = status;
  result.message = std::move(message);
  return result;
}

}  // namespace

const char* load_status_name(LoadStatus status) {
  switch (status) {
    case LoadStatus::Ok: return "ok";
    case LoadStatus::FileNotFound: return "file-not-found";
    case LoadStatus::BadMagic: return "bad-magic";
    case LoadStatus::UnsupportedVersion: return "unsupported-version";
    case LoadStatus::ChecksumMismatch: return "checksum-mismatch";
    case LoadStatus::BadHeader: return "bad-header";
    case LoadStatus::BadTensors: return "bad-tensors";
    case LoadStatus::TrailingBytes: return "trailing-bytes";
  }
  return "unknown";
}

std::string save_checkpoint(const Transformer& model,
                            const std::string& tokenizer_blob) {
  std::string payload;
  const ModelConfig& cfg = model.config();
  util::put_u32(payload, static_cast<std::uint32_t>(cfg.vocab));
  util::put_u32(payload, static_cast<std::uint32_t>(cfg.ctx));
  util::put_u32(payload, static_cast<std::uint32_t>(cfg.d_model));
  util::put_u32(payload, static_cast<std::uint32_t>(cfg.n_head));
  util::put_u32(payload, static_cast<std::uint32_t>(cfg.n_layer));
  util::put_u32(payload, static_cast<std::uint32_t>(cfg.d_ff));
  util::put_string(payload, tokenizer_blob);
  auto params = model.parameters();
  util::put_u64(payload, params.size());
  for (const nn::Param* p : params) util::put_f32_vec(payload, p->w);

  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  util::put_u32(out, kMagic);
  util::put_u32(out, kCheckpointVersion);
  util::put_u64(out, util::fnv1a64(payload));
  out += payload;
  return out;
}

LoadResult load_checkpoint_ex(std::string_view data) {
  if (data.size() < kHeaderBytes)
    return fail(LoadStatus::BadMagic,
                "blob too short to hold a checkpoint header (" +
                    std::to_string(data.size()) + " bytes)");
  util::ByteReader header(data.substr(0, kHeaderBytes));
  if (header.get_u32() != kMagic)
    return fail(LoadStatus::BadMagic, "not a Wisdom checkpoint (bad magic)");
  const std::uint32_t version = header.get_u32();
  if (version != kCheckpointVersion)
    return fail(
        LoadStatus::UnsupportedVersion,
        "checkpoint format version " + std::to_string(version) +
            " is not supported (expected " +
            std::to_string(kCheckpointVersion) +
            "); pre-versioned checkpoints must be regenerated with "
            "save_checkpoint");
  const std::uint64_t stored_checksum = header.get_u64();

  std::string_view payload = data.substr(kHeaderBytes);
  if (util::fnv1a64(payload) != stored_checksum)
    return fail(LoadStatus::ChecksumMismatch,
                "content checksum mismatch: checkpoint is truncated or "
                "corrupted");

  util::ByteReader reader(payload);
  ModelConfig cfg;
  cfg.vocab = static_cast<std::int32_t>(reader.get_u32());
  cfg.ctx = static_cast<std::int32_t>(reader.get_u32());
  cfg.d_model = static_cast<std::int32_t>(reader.get_u32());
  cfg.n_head = static_cast<std::int32_t>(reader.get_u32());
  cfg.n_layer = static_cast<std::int32_t>(reader.get_u32());
  cfg.d_ff = static_cast<std::int32_t>(reader.get_u32());
  std::string blob = reader.get_string();
  if (!reader.ok())
    return fail(LoadStatus::BadHeader, "config header unreadable");
  if (!cfg.valid())
    return fail(LoadStatus::BadHeader,
                "config fields out of range (vocab=" +
                    std::to_string(cfg.vocab) +
                    ", d_model=" + std::to_string(cfg.d_model) + ")");

  // Each tensor is copied once, from the verified bytes into the vector
  // that becomes its weight buffer in a weights-only model.
  const std::vector<std::size_t> sizes = Transformer::parameter_sizes(cfg);
  std::uint64_t count = reader.get_u64();
  if (count != sizes.size())
    return fail(LoadStatus::BadTensors,
                "parameter tensor count " + std::to_string(count) +
                    " does not match the config's " +
                    std::to_string(sizes.size()));
  std::vector<nn::Vec> weights(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    weights[i] = reader.get_f32_vec();
    if (!reader.ok() || weights[i].size() != sizes[i])
      return fail(LoadStatus::BadTensors,
                  "parameter tensor " + std::to_string(i) +
                      " truncated or of unexpected shape");
  }
  if (!reader.at_end())
    return fail(LoadStatus::TrailingBytes,
                "checkpoint has trailing bytes after the last tensor");

  LoadResult result;
  result.model.emplace(cfg, std::move(weights));
  result.tokenizer = std::move(blob);
  return result;
}

LoadResult load_checkpoint_file_ex(const std::string& path) {
  auto data = util::read_file(path);
  if (!data)
    return fail(LoadStatus::FileNotFound, "cannot open '" + path + "'");
  return load_checkpoint_ex(*data);
}

std::optional<Transformer> load_checkpoint(std::string_view data,
                                           std::string* tokenizer_blob) {
  LoadResult result = load_checkpoint_ex(data);
  if (!result.ok()) return std::nullopt;
  if (tokenizer_blob) *tokenizer_blob = std::move(result.tokenizer);
  return std::move(result.model);
}

bool save_checkpoint_file(const std::string& path, const Transformer& model,
                          const std::string& tokenizer_blob) {
  return util::write_file(path, save_checkpoint(model, tokenizer_blob));
}

std::optional<Transformer> load_checkpoint_file(const std::string& path,
                                                std::string* tokenizer_blob) {
  LoadResult result = load_checkpoint_file_ex(path);
  if (!result.ok()) return std::nullopt;
  if (tokenizer_blob) *tokenizer_blob = std::move(result.tokenizer);
  return std::move(result.model);
}

}  // namespace wisdom::model
