#include "nn/serialize.hpp"

#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace ecthub::nn {

namespace {

constexpr std::uint32_t kMagic = 0x45435448;  // "ECTH"

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("load_parameters: truncated stream");
  return v;
}

}  // namespace

void save_parameters(std::ostream& out, const std::vector<ConstParameter>& params) {
  write_u64(out, kMagic);
  write_u64(out, params.size());
  for (const auto& p : params) {
    if (p.value == nullptr) throw std::runtime_error("save_parameters: null tensor");
    write_u64(out, p.name.size());
    out.write(p.name.data(), static_cast<std::streamsize>(p.name.size()));
    write_u64(out, p.value->rows());
    write_u64(out, p.value->cols());
    out.write(reinterpret_cast<const char*>(p.value->data().data()),
              static_cast<std::streamsize>(p.value->data().size() * sizeof(double)));
  }
  if (!out) throw std::runtime_error("save_parameters: write failed");
}

void save_parameters(std::ostream& out, const std::vector<Parameter>& params) {
  std::vector<ConstParameter> views;
  views.reserve(params.size());
  for (const auto& p : params) views.push_back({p.name, p.value});
  save_parameters(out, views);
}

void load_parameters(std::istream& in, std::vector<Parameter>& params) {
  if (read_u64(in) != kMagic) throw std::runtime_error("load_parameters: bad magic");
  const std::uint64_t count = read_u64(in);
  if (count != params.size()) {
    throw std::runtime_error("load_parameters: parameter count mismatch");
  }
  for (auto& p : params) {
    if (p.value == nullptr) throw std::runtime_error("load_parameters: null tensor");
    const auto name_mismatch = [&p] {
      return std::runtime_error("load_parameters: parameter name mismatch (expected '" +
                                p.name + "')");
    };
    // The length field is untrusted: check it before sizing the buffer, so a
    // corrupt length can never drive the allocation.
    if (read_u64(in) != p.name.size()) throw name_mismatch();
    std::string name(p.name.size(), '\0');
    in.read(name.data(), static_cast<std::streamsize>(name.size()));
    if (!in || name != p.name) throw name_mismatch();
    const std::uint64_t rows = read_u64(in);
    const std::uint64_t cols = read_u64(in);
    if (rows != p.value->rows() || cols != p.value->cols()) {
      throw std::runtime_error("load_parameters: shape mismatch for '" + p.name + "'");
    }
    in.read(reinterpret_cast<char*>(p.value->data().data()),
            static_cast<std::streamsize>(p.value->data().size() * sizeof(double)));
    if (!in) throw std::runtime_error("load_parameters: truncated tensor data");
    for (const double x : p.value->data()) {
      if (!std::isfinite(x)) {
        throw std::runtime_error("load_parameters: non-finite value in '" + p.name + "'");
      }
    }
  }
}

}  // namespace ecthub::nn
