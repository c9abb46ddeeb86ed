// Round-trip tests for model checkpointing.
#include "causal/ect_price.hpp"
#include "common/binio.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace ecthub::nn {
namespace {

TEST(Serialize, MlpRoundTripReproducesOutputs) {
  Rng rng(1);
  Mlp a(MlpConfig{.layer_dims = {4, 8, 2}}, rng, "m");
  Rng rng2(2);
  Mlp b(MlpConfig{.layer_dims = {4, 8, 2}}, rng2, "m");

  const Matrix x = Matrix::randn(3, 4, rng);
  // Different inits -> different outputs.
  EXPECT_NE(a.forward(x).data(), b.forward(x).data());

  const std::string blob = save_parameters(a.parameters());
  auto pb = b.parameters();
  load_parameters(blob, pb);
  EXPECT_EQ(a.forward(x).data(), b.forward(x).data());
}

TEST(Serialize, NameMismatchThrows) {
  Rng rng(3);
  Mlp a(MlpConfig{.layer_dims = {2, 2}}, rng, "alpha");
  Mlp b(MlpConfig{.layer_dims = {2, 2}}, rng, "beta");
  const std::string blob = save_parameters(a.parameters());
  auto pb = b.parameters();
  EXPECT_THROW(load_parameters(blob, pb), std::runtime_error);
}

TEST(Serialize, ShapeMismatchThrows) {
  Rng rng(4);
  Mlp a(MlpConfig{.layer_dims = {2, 3}}, rng, "m");
  Mlp b(MlpConfig{.layer_dims = {2, 4}}, rng, "m");
  const std::string blob = save_parameters(a.parameters());
  auto pb = b.parameters();
  EXPECT_THROW(load_parameters(blob, pb), std::runtime_error);
}

TEST(Serialize, TruncatedStreamThrows) {
  Rng rng(5);
  Mlp a(MlpConfig{.layer_dims = {2, 2}}, rng, "m");
  auto pa = a.parameters();
  const std::string full = save_parameters(pa);
  EXPECT_THROW(load_parameters(full.substr(0, full.size() / 2), pa), std::runtime_error);
}

TEST(Serialize, BadMagicThrows) {
  Rng rng(6);
  Mlp a(MlpConfig{.layer_dims = {2, 2}}, rng, "m");
  auto pa = a.parameters();
  EXPECT_THROW(load_parameters("not a checkpoint at all........", pa), std::runtime_error);
}

TEST(Serialize, InflatedNameLengthThrowsBeforeAllocating) {
  // A blob whose first name-length field claims 2^40 bytes or UINT64_MAX
  // must be rejected as a name mismatch, not sized into a buffer (which
  // would throw bad_alloc/length_error or exhaust memory first).
  Rng rng(9);
  Mlp a(MlpConfig{.layer_dims = {2, 2}}, rng, "m");
  auto pa = a.parameters();
  for (const std::uint64_t name_len : {std::uint64_t{1} << 40, UINT64_MAX}) {
    std::string blob;
    for (const std::uint64_t field : {std::uint64_t{0x45435448}, pa.size(), name_len}) {
      binio::put_u64(blob, field);
    }
    EXPECT_THROW(load_parameters(blob, pa), std::runtime_error) << name_len;
  }
}

// A checkpoint holding a NaN or infinite weight must fail to load, naming
// the tensor: the matmul kernel's sums are defined for finite right-hand
// operands only (nn/matrix.hpp).
void expect_poisoned_weight_rejected(double poison) {
  Rng rng(10);
  Mlp a(MlpConfig{.layer_dims = {3, 4, 2}}, rng, "m");
  auto pa = a.parameters();
  ASSERT_EQ(pa.size(), 4u);
  pa[2].value->data()[5] = poison;  // the second layer's weights
  const std::string blob = save_parameters(pa);
  Mlp b(MlpConfig{.layer_dims = {3, 4, 2}}, rng, "m");
  auto pb = b.parameters();
  try {
    load_parameters(blob, pb);
    ADD_FAILURE() << "loaded a weight of " << poison;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'" + pa[2].name + "'"), std::string::npos)
        << e.what();
  }
}

TEST(Serialize, InfiniteWeightThrowsNamingTheTensor) {
  expect_poisoned_weight_rejected(std::numeric_limits<double>::infinity());
  expect_poisoned_weight_rejected(-std::numeric_limits<double>::infinity());
}

TEST(Serialize, NanWeightThrowsNamingTheTensor) {
  expect_poisoned_weight_rejected(std::numeric_limits<double>::quiet_NaN());
}

TEST(Serialize, EctPriceModelCheckpointRestoresPredictions) {
  // End-to-end: train a model, checkpoint, restore into a fresh model with
  // a different seed, and verify identical predictions.
  using namespace ecthub::causal;
  EctPriceConfig cfg;
  cfg.ncf.num_stations = 2;
  cfg.ncf.embedding_dim = 4;
  cfg.ncf.hidden_dims = {8};
  cfg.epochs = 1;
  std::vector<Item> items;
  Rng data_rng(7);
  for (int k = 0; k < 200; ++k) {
    Item it;
    it.station_id = k % 2;
    it.time_id = k % 24;
    it.treated = data_rng.bernoulli(0.5);
    it.charged = data_rng.bernoulli(0.3);
    items.push_back(it);
  }
  EctPriceModel trained(cfg, Rng(8));
  trained.fit(items);
  EctPriceModel restored(cfg, Rng(999));

  const std::string blob = save_parameters(trained.parameters());
  auto pr = restored.parameters();
  load_parameters(blob, pr);

  const auto a = trained.predict_one(0, 5);
  const auto b = restored.predict_one(0, 5);
  EXPECT_DOUBLE_EQ(a.p_incentive, b.p_incentive);
  EXPECT_DOUBLE_EQ(a.p_always, b.p_always);
  EXPECT_DOUBLE_EQ(a.propensity, b.propensity);
}

}  // namespace
}  // namespace ecthub::nn
