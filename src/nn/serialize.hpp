// Parameter serialization: checkpoint trained models (ECT-Price, PPO
// policies) to a binary stream and restore them into an identically-shaped
// model.
#pragma once

#include "nn/layers.hpp"

#include <iosfwd>
#include <vector>

namespace ecthub::nn {

/// Writes all parameter tensors (name, shape, values) to `out`.
/// Throws std::runtime_error on I/O failure.
void save_parameters(std::ostream& out, const std::vector<Parameter>& params);

/// Same format from read-only parameter views — checkpointing a const model
/// (e.g. mid-training export from the rollout collector).  Byte-identical
/// output to the mutable overload for the same tensors.
void save_parameters(std::ostream& out, const std::vector<ConstParameter>& params);

/// Reads tensors back into `params`.  Names and shapes must match exactly
/// (same model architecture) and every value must be finite — a NaN or
/// infinite weight would void the matmul kernel's contract (nn/matrix.hpp);
/// throws std::runtime_error naming the tensor otherwise.
void load_parameters(std::istream& in, std::vector<Parameter>& params);

}  // namespace ecthub::nn
