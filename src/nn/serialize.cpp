#include "nn/serialize.hpp"

#include "common/binio.hpp"

#include <cstdint>
#include <stdexcept>

namespace ecthub::nn {

namespace {

constexpr std::uint64_t kMagic = 0x45435448;  // "ECTH"

}  // namespace

std::string save_parameters(const std::vector<ConstParameter>& params) {
  std::string out;
  binio::put_u64(out, kMagic);
  binio::put_u64(out, params.size());
  for (const auto& p : params) {
    if (p.value == nullptr) throw std::invalid_argument("save_parameters: null tensor");
    binio::put_string(out, p.name);
    binio::put_u64(out, p.value->rows());
    binio::put_u64(out, p.value->cols());
    for (const double x : p.value->data()) binio::put_double(out, x);
  }
  return out;
}

std::string save_parameters(const std::vector<Parameter>& params) {
  std::vector<ConstParameter> views;
  views.reserve(params.size());
  for (const auto& p : params) views.push_back({p.name, p.value});
  return save_parameters(views);
}

void load_parameters(std::string_view blob, std::vector<Parameter>& params) {
  binio::Reader in(blob, "load_parameters");
  if (in.u64() != kMagic) throw binio::MagicError("load_parameters: bad magic");
  if (in.u64() != params.size()) {
    throw binio::FormatError("load_parameters: parameter count mismatch");
  }
  for (auto& p : params) {
    if (p.value == nullptr) throw std::invalid_argument("load_parameters: null tensor");
    if (in.u64() != p.name.size() || in.bytes(p.name.size()) != p.name) {
      throw binio::FormatError("load_parameters: parameter name mismatch (expected '" +
                               p.name + "')");
    }
    const std::uint64_t rows = in.u64();
    const std::uint64_t cols = in.u64();
    if (rows != p.value->rows() || cols != p.value->cols()) {
      throw binio::FormatError("load_parameters: shape mismatch for '" + p.name + "'");
    }
    try {
      for (double& x : p.value->data()) x = in.f64();
    } catch (const binio::FormatError& e) {
      throw binio::FormatError(e.what() + (" in '" + p.name + "'"));
    }
  }
  in.expect_end();
}

}  // namespace ecthub::nn
