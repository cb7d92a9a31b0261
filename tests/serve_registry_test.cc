// ModelRegistry semantics: publish/resolve/retire, version ordering,
// resolve-latest — and the ownership contract that makes hot swap safe:
// a resolved snapshot (and any session built from it) keeps serving,
// byte-identically, after its registry entry is retired.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "api/trainer.h"
#include "common/random.h"
#include "pdf/pdf_builder.h"
#include "serve/model_registry.h"
#include "serve/servable.h"

namespace udt {
namespace serve {
namespace {

Dataset NumericDataset(int tuples, int attributes, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(attributes, {"A", "B", "C"}));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 3;
    for (int j = 0; j < attributes; ++j) {
      auto pdf = MakeGaussianErrorPdf(
          rng.Gaussian(static_cast<double>(t.label) * 1.5, 1.0), 1.2, 8);
      UDT_CHECK(pdf.ok());
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

CompiledModel TrainCompiled(uint64_t seed) {
  auto model = Trainer().TrainUdt(NumericDataset(90, 2, seed));
  UDT_CHECK(model.ok());
  return model->Compile();
}

CompiledForest TrainCompiledForest(uint64_t seed) {
  ForestConfig config;
  config.num_trees = 3;
  config.seed = seed;
  auto forest = ForestTrainer(config).TrainUdt(NumericDataset(90, 2, seed));
  UDT_CHECK(forest.ok());
  return forest->Compile();
}

TEST(ModelRegistryTest, PublishAssignsMonotonicVersionsPerName) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Publish("prod", Servable(TrainCompiled(1))), 1u);
  EXPECT_EQ(registry.Publish("prod", Servable(TrainCompiled(2))), 2u);
  EXPECT_EQ(registry.Publish("canary", Servable(TrainCompiled(3))), 1u);

  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"canary", "prod"}));
  EXPECT_EQ(registry.Versions("prod"), (std::vector<uint64_t>{1, 2}));
}

TEST(ModelRegistryTest, ResolveLatestAndExactVersion) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Publish("prod", Servable(TrainCompiled(1))), 1u);
  EXPECT_EQ(registry.Publish("prod", Servable(TrainCompiled(2))), 2u);

  ModelHandle latest = registry.Resolve("prod");
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->version, 2u);
  EXPECT_EQ(latest->name, "prod");

  ModelHandle v1 = registry.Resolve("prod", 1);
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);

  EXPECT_EQ(registry.Resolve("prod", 99), nullptr);
  EXPECT_EQ(registry.Resolve("nope"), nullptr);
  EXPECT_EQ(registry.Resolve("nope", 1), nullptr);
}

TEST(ModelRegistryTest, RetireRemovesOneVersionAndNeverReusesNumbers) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Publish("prod", Servable(TrainCompiled(1))), 1u);
  EXPECT_EQ(registry.Publish("prod", Servable(TrainCompiled(2))), 2u);

  ASSERT_TRUE(registry.Retire("prod", 2).ok());
  ModelHandle latest = registry.Resolve("prod");
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->version, 1u);

  // Version numbers are never recycled: after retiring v2 the next
  // publish is v3, so a stale "v2" reference can never alias a new model.
  EXPECT_EQ(registry.Publish("prod", Servable(TrainCompiled(3))), 3u);
  EXPECT_EQ(registry.Versions("prod"), (std::vector<uint64_t>{1, 3}));

  EXPECT_EQ(registry.Retire("prod", 2).code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Retire("ghost", 1).code(), StatusCode::kNotFound);
}

TEST(ModelRegistryTest, RetireAllForgetsTheName) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Publish("prod", Servable(TrainCompiled(1))), 1u);
  EXPECT_EQ(registry.Publish("prod", Servable(TrainCompiled(2))), 2u);
  EXPECT_EQ(registry.RetireAll("prod"), 2u);
  EXPECT_EQ(registry.Resolve("prod"), nullptr);
  EXPECT_TRUE(registry.Names().empty());
  // RetireAll forgets the version counter along with the name.
  EXPECT_EQ(registry.Publish("prod", Servable(TrainCompiled(3))), 1u);
}

TEST(ModelRegistryTest, RetiredSnapshotKeepsServingByteIdentically) {
  Dataset pool = NumericDataset(32, 2, 77);
  CompiledModel compiled = TrainCompiled(5);
  const int k = compiled.num_classes();

  ModelRegistry registry;
  EXPECT_EQ(registry.Publish("prod", Servable(compiled)), 1u);
  ModelHandle handle = registry.Resolve("prod");
  ASSERT_NE(handle, nullptr);

  // Reference distributions while the entry is live.
  ServeSession before(handle->servable);
  std::vector<double> ref(static_cast<size_t>(k));
  std::vector<double> row(static_cast<size_t>(k));

  EXPECT_EQ(registry.RetireAll("prod"), 1u);

  // The snapshot co-owns the artifact: sessions built from it after the
  // retire still classify, byte-identical to before.
  ServeSession after(handle->servable);
  for (const UncertainTuple& tuple : pool.tuples()) {
    before.ClassifyInto(tuple, ref.data());
    after.ClassifyInto(tuple, row.data());
    EXPECT_EQ(std::memcmp(ref.data(), row.data(),
                          static_cast<size_t>(k) * sizeof(double)),
              0);
  }
}

TEST(ModelRegistryTest, HoldsForestServables) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Publish("ensemble", Servable(TrainCompiledForest(11))),
            1u);
  ModelHandle handle = registry.Resolve("ensemble");
  ASSERT_NE(handle, nullptr);
  EXPECT_GT(handle->servable.num_trees(), 1);
  EXPECT_EQ(handle->servable.num_classes(), 3);

  Dataset pool = NumericDataset(8, 2, 78);
  ServeSession session(handle->servable);
  std::vector<double> row(3);
  session.ClassifyInto(pool.tuple(0), row.data());
  double sum = row[0] + row[1] + row[2];
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// Sessions co-own their artifact: one built from an artifact held behind
// a shared_ptr survives the pointer being reset (the inner shared handle
// is copied).
TEST(SessionOwnershipTest, SessionOutlivesSharedPtrOwner) {
  Dataset pool = NumericDataset(16, 2, 79);
  auto compiled = std::make_shared<const CompiledModel>(TrainCompiled(6));
  const size_t k = static_cast<size_t>(compiled->num_classes());

  PredictSession by_value(*compiled);
  PredictSession by_ptr(*compiled);
  compiled.reset();  // the registry retired its reference

  std::vector<double> a(k), b(k);
  for (const UncertainTuple& tuple : pool.tuples()) {
    by_value.ClassifyInto(tuple, a.data());
    by_ptr.ClassifyInto(tuple, b.data());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), k * sizeof(double)), 0);
  }
}

TEST(SessionOwnershipTest, ForestSessionOutlivesSharedPtrOwner) {
  Dataset pool = NumericDataset(16, 2, 80);
  auto compiled =
      std::make_shared<const CompiledForest>(TrainCompiledForest(7));
  const size_t k = static_cast<size_t>(compiled->num_classes());

  PredictSession by_value(*compiled);
  PredictSession by_ptr(*compiled);
  compiled.reset();

  std::vector<double> a(k), b(k);
  for (const UncertainTuple& tuple : pool.tuples()) {
    by_value.ClassifyInto(tuple, a.data());
    by_ptr.ClassifyInto(tuple, b.data());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), k * sizeof(double)), 0);
  }
}

}  // namespace
}  // namespace serve
}  // namespace udt
