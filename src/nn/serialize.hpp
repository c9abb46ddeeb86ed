// Parameter serialization: checkpoint trained models (ECT-Price, PPO
// policies) to a byte string and restore them into an identically-shaped
// model.
//
// Blob layout (common/binio encoding: every u64 and double bit pattern
// little-endian):
//
//   u64   magic 0x45435448 ("ECTH")
//   u64   tensor count
//   per tensor: u64 name length, name bytes, u64 rows, u64 cols,
//               rows × cols doubles (row-major)
//
// The blob carries no checksum of its own: it travels inside a checksummed
// container (a DRL checkpoint's ECDR section 2) or in memory.
#pragma once

#include "nn/layers.hpp"

#include <string>
#include <string_view>
#include <vector>

namespace ecthub::nn {

/// Encodes all parameter tensors (name, shape, values) as a blob.
[[nodiscard]] std::string save_parameters(const std::vector<Parameter>& params);

/// Same blob from read-only parameter views — checkpointing a const model
/// (e.g. mid-training export from the rollout collector).
[[nodiscard]] std::string save_parameters(const std::vector<ConstParameter>& params);

/// Reads a blob back into `params`.  Names and shapes must match exactly
/// (same model architecture), every value must be finite — a NaN or
/// infinite weight would void the matmul kernel's contract (nn/matrix.hpp)
/// — and no byte may be left over.  Throws binio::MagicError for a wrong
/// magic and binio::FormatError otherwise, naming the tensor where there is
/// one.
void load_parameters(std::string_view blob, std::vector<Parameter>& params);

}  // namespace ecthub::nn
