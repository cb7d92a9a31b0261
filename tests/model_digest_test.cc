// Cross-version byte oracle: FNV-1a digests of the saved `udt-model` and
// `udt-forest-model` bytes of fixed training runs. The other determinism
// suites compare builds of one binary against each other (thread counts,
// pooled vs serial scans); this one pins the bytes themselves, so a
// rewrite of the construction engine that changes any split point, class
// count or leaf distribution — even identically at every thread count —
// fails here.
//
// The digests were recorded before the split scans learned to filter a
// parent's rank-ordered events instead of re-gathering them; every
// algorithm, the forests, the categorical split and the percentile
// end-point mode must keep them.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/forest.h"
#include "api/trainer.h"
#include "common/random.h"
#include "datagen/synthetic.h"
#include "datagen/uci_like.h"
#include "pdf/pdf_builder.h"
#include "table/uncertainty_injector.h"

namespace udt {
namespace {

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (unsigned char ch : bytes) {
    hash ^= ch;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::string Hex(uint64_t digest) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIX64, digest);
  return buffer;
}

// A UCI-shaped data set (Table 2) made uncertain the paper's way: Gaussian
// error pdfs of width 10% of each attribute's range, `s` samples each.
Dataset UciLike(const char* name, double scale, int s) {
  auto spec = datagen::FindUciSpec(name);
  UDT_CHECK(spec.ok());
  UncertaintyOptions options;
  options.width_fraction = 0.10;
  options.samples_per_pdf = s;
  options.error_model = ErrorModel::kGaussian;
  auto data =
      InjectUncertainty(datagen::MakeUciLikePointData(*spec, scale), options);
  UDT_CHECK(data.ok());
  return std::move(data).value();
}

// Numerical + categorical attributes (Section 7.2).
Dataset MixedDataset(int tuples, uint64_t seed) {
  Rng rng(seed);
  auto schema = Schema::Create(
      {
          {"x", AttributeKind::kNumerical, 0},
          {"channel", AttributeKind::kCategorical, 4},
          {"y", AttributeKind::kNumerical, 0},
      },
      {"a", "b", "c"});
  UDT_CHECK(schema.ok());
  Dataset ds(std::move(*schema));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 3;
    auto px = MakeGaussianErrorPdf(rng.Gaussian(t.label * 1.0, 0.8), 0.9, 10);
    UDT_CHECK(px.ok());
    t.values.push_back(UncertainValue::Numerical(std::move(*px)));
    std::vector<double> probs(4, 0.15);
    probs[static_cast<size_t>((i + t.label) % 4)] = 0.55;
    auto cat = CategoricalPdf::Create(std::move(probs));
    UDT_CHECK(cat.ok());
    t.values.push_back(UncertainValue::Categorical(std::move(*cat)));
    auto py = MakeUniformErrorPdf(rng.Gaussian(-t.label * 0.7, 0.9), 1.2, 10);
    UDT_CHECK(py.ok());
    t.values.push_back(UncertainValue::Numerical(std::move(*py)));
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

std::string TreeBytes(const Dataset& data, TreeConfig config, int threads,
                      ModelKind kind = ModelKind::kUdt) {
  config.num_threads = threads;
  auto model = Trainer(config).Train(TrainRequest::For(data, kind));
  UDT_CHECK(model.ok());
  return model->Serialize();
}

std::string ForestBytes(const Dataset& data, ForestConfig config,
                        int threads) {
  config.num_threads = threads;
  auto forest = ForestTrainer(config).TrainUdt(data);
  UDT_CHECK(forest.ok());
  return forest->Serialize();
}

void ExpectDigest(const std::string& bytes, uint64_t want) {
  EXPECT_EQ(Hex(Fnv1a(bytes)), Hex(want)) << bytes.size() << " bytes";
}

// The end-to-end benchmark's tree: Segment-shaped (19 attributes, 7
// classes, s = 20), UDT-ES with entropy, serial and on four threads.
TEST(ModelDigestTest, SegmentUdtEsTree) {
  const Dataset data = UciLike("Segment", 0.4, 20);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  ExpectDigest(TreeBytes(data, config, 1), 0xB39123A2ED4C59D1ULL);
  ExpectDigest(TreeBytes(data, config, 4), 0xB39123A2ED4C59D1ULL);
}

TEST(ModelDigestTest, EverySplitAlgorithm) {
  const Dataset data = UciLike("Glass", 1.0, 12);
  struct Want {
    SplitAlgorithm algorithm;
    uint64_t digest;
  };
  const Want wants[] = {
      {SplitAlgorithm::kAvg, 0x5E53C4C242DD03F0ULL},
      {SplitAlgorithm::kUdt, 0x8794A7503F9B8115ULL},
      {SplitAlgorithm::kUdtBp, 0x5A20730C7AF7E016ULL},
      {SplitAlgorithm::kUdtLp, 0xA135D58668D7FD20ULL},
      {SplitAlgorithm::kUdtGp, 0x0F12A09E65753C37ULL},
      {SplitAlgorithm::kUdtEs, 0xACB7A36684EA0448ULL},
  };
  for (const Want& want : wants) {
    SCOPED_TRACE(SplitAlgorithmToString(want.algorithm));
    TreeConfig config;
    config.algorithm = want.algorithm;
    const ModelKind kind = want.algorithm == SplitAlgorithm::kAvg
                               ? ModelKind::kAveraging
                               : ModelKind::kUdt;
    ExpectDigest(TreeBytes(data, config, 2, kind), want.digest);
  }
}

TEST(ModelDigestTest, BaggedForest) {
  const Dataset data = UciLike("Glass", 1.0, 10);
  ForestConfig config;
  config.num_trees = 8;
  config.seed = 17;
  ExpectDigest(ForestBytes(data, config, 4), 0x694B11CCB0631530ULL);
}

TEST(ModelDigestTest, RandomSubspaceForest) {
  const Dataset data = UciLike("Glass", 1.0, 10);
  ForestConfig config;
  config.num_trees = 6;
  config.seed = 29;
  config.bootstrap = false;
  config.subspace_attributes = ForestConfig::kSubspaceSqrt;
  ExpectDigest(ForestBytes(data, config, 4), 0xF58BF771A151D19DULL);
}

TEST(ModelDigestTest, CategoricalTree) {
  const Dataset data = MixedDataset(300, 5);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  ExpectDigest(TreeBytes(data, config, 1), 0xC679E802E8628277ULL);
  ExpectDigest(TreeBytes(data, config, 4), 0xC679E802E8628277ULL);
}

TEST(ModelDigestTest, PercentileEndpoints) {
  const Dataset data = UciLike("Glass", 1.0, 12);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtGp;
  config.split_options.use_percentile_endpoints = true;
  ExpectDigest(TreeBytes(data, config, 1), 0x263D3EBE94E082DCULL);
}

}  // namespace
}  // namespace udt
