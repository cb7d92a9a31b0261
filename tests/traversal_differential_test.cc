// Differential property test of the one serving stack. Seeded random small
// trees — numerical and categorical splits, absent categorical children,
// numerical attributes re-split along a path, pooled leaf distributions —
// and seeded random pdf tuples go through the pointer-tree oracle
// (tree/classify.cc, ForestModel voting) and through PredictSession at
// n = 1 (ClassifyInto) and n = many (PredictBatchInto, 1 and 3 threads),
// for a single tree and a 3-tree forest, for both model kinds. Every row
// must match byte for byte: the flat kernels have no other reference.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/compiled_forest.h"
#include "api/forest.h"
#include "api/model.h"
#include "api/predict_session.h"
#include "common/math.h"
#include "tree/classify.h"

namespace udt {
namespace {

constexpr int kClasses = 3;

// A counter-based SplitMix64 stream: the whole test is a pure function of
// its seeds.
class Stream {
 public:
  explicit Stream(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    const uint64_t out = SplitMix64(state_);
    state_ += 0x9E3779B97F4A7C15ULL;
    return out;
  }
  // Uniform in [0, n).
  int Below(int n) {
    return static_cast<int>(Next() % static_cast<uint64_t>(n));
  }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // A point on a coarse grid over [-2, 2], so pdf samples and split points
  // collide often (the <= boundary of a numerical split).
  double GridPoint() { return -2.0 + 0.25 * Below(17); }

 private:
  uint64_t state_;
};

// Numerical x0..x2, categorical c0 (3 values) and c1 (4 values).
Schema MixedSchema() {
  auto schema = Schema::Create(
      {
          {"x0", AttributeKind::kNumerical, 0},
          {"x1", AttributeKind::kNumerical, 0},
          {"c0", AttributeKind::kCategorical, 3},
          {"x2", AttributeKind::kNumerical, 0},
          {"c1", AttributeKind::kCategorical, 4},
      },
      {"a", "b", "c"});
  UDT_CHECK(schema.ok());
  return *std::move(schema);
}

std::vector<double> RandomDistribution(Stream* rng) {
  std::vector<double> dist(kClasses);
  double total = 0.0;
  for (double& p : dist) {
    p = rng->Below(3) == 0 ? 0.0 : rng->Unit();
    total += p;
  }
  if (total <= 0.0) {
    dist[static_cast<size_t>(rng->Below(kClasses))] = 1.0;
    return dist;
  }
  for (double& p : dist) p /= total;
  return dist;
}

// Leaves draw from a small palette half the time, so identical
// distributions exercise the flat layout's pooled leaf table.
struct TreeGen {
  Stream* rng;
  const Schema* schema;
  std::vector<std::vector<double>> palette;

  // `fixed_categorical` marks categorical attributes already split on the
  // path: the builder never re-splits those (the category is fixed), and
  // neither traversal defines one.
  std::unique_ptr<TreeNode> Node(int depth, uint32_t fixed_categorical) {
    auto node = std::make_unique<TreeNode>();
    if (depth == 0 || rng->Below(4) == 0) {
      node->distribution =
          rng->Below(2) == 0
              ? palette[static_cast<size_t>(
                    rng->Below(static_cast<int>(palette.size())))]
              : RandomDistribution(rng);
      return node;
    }
    int j = rng->Below(schema->num_attributes());
    const AttributeInfo* info = &schema->attribute(j);
    if (info->kind == AttributeKind::kCategorical &&
        (fixed_categorical >> j & 1u) != 0) {
      j = 0;  // always numerical
      info = &schema->attribute(j);
    }
    node->attribute = j;
    if (info->kind == AttributeKind::kNumerical) {
      node->split_point = rng->Below(4) == 0
                              ? rng->GridPoint() + 0.1 * rng->Unit()
                              : rng->GridPoint();
      node->left = Node(depth - 1, fixed_categorical);
      node->right = Node(depth - 1, fixed_categorical);
      return node;
    }
    node->is_categorical = true;
    for (int v = 0; v < info->num_categories; ++v) {
      // Roughly one child in four is absent.
      node->children.push_back(
          rng->Below(4) == 0
              ? nullptr
              : Node(depth - 1, fixed_categorical | (1u << j)));
    }
    return node;
  }
};

DecisionTree RandomTree(Stream* rng, const Schema& schema) {
  TreeGen gen{rng, &schema, {}};
  for (int p = 0; p < 3; ++p) gen.palette.push_back(RandomDistribution(rng));
  return DecisionTree(schema, gen.Node(1 + rng->Below(6), 0));
}

UncertainValue RandomNumerical(Stream* rng) {
  if (rng->Below(5) == 0) {
    return UncertainValue::Numerical(SampledPdf::PointMass(rng->GridPoint()));
  }
  const int s = 1 + rng->Below(8);
  std::vector<double> points;
  std::vector<double> masses;
  for (int i = 0; i < s; ++i) {
    points.push_back(rng->Below(2) == 0 ? rng->GridPoint()
                                        : 5.0 * rng->Unit() - 2.5);
    masses.push_back(0.05 + rng->Unit());
  }
  auto pdf = SampledPdf::Create(std::move(points), std::move(masses));
  UDT_CHECK(pdf.ok());
  return UncertainValue::Numerical(*std::move(pdf));
}

UncertainValue RandomCategorical(Stream* rng, int arity) {
  if (rng->Below(4) == 0) {
    return UncertainValue::Categorical(
        CategoricalPdf::Certain(rng->Below(arity), arity));
  }
  std::vector<double> probs(static_cast<size_t>(arity));
  for (double& p : probs) p = rng->Below(3) == 0 ? 0.0 : rng->Unit();
  probs[static_cast<size_t>(rng->Below(arity))] += 0.1;  // positive mass
  auto pdf = CategoricalPdf::Create(std::move(probs));
  UDT_CHECK(pdf.ok());
  return UncertainValue::Categorical(*std::move(pdf));
}

std::vector<UncertainTuple> RandomTuples(Stream* rng, const Schema& schema,
                                         int count) {
  std::vector<UncertainTuple> tuples(static_cast<size_t>(count));
  for (UncertainTuple& tuple : tuples) {
    for (int j = 0; j < schema.num_attributes(); ++j) {
      const AttributeInfo& info = schema.attribute(j);
      tuple.values.push_back(info.kind == AttributeKind::kNumerical
                                 ? RandomNumerical(rng)
                                 : RandomCategorical(rng,
                                                     info.num_categories));
    }
  }
  return tuples;
}

bool RowsEqual(const double* a, const double* b) {
  return std::memcmp(a, b, kClasses * sizeof(double)) == 0;
}

// Serves `tuples` through one session over `artifact` at n = 1 and at
// n = many (1 and 3 threads) and checks every row against `oracle`.
void ExpectSessionMatchesOracle(
    const CompiledForest& artifact, const std::vector<UncertainTuple>& tuples,
    const std::vector<std::vector<double>>& oracle, const std::string& what) {
  PredictSession session(artifact);
  std::vector<double> row(kClasses);
  for (size_t i = 0; i < tuples.size(); ++i) {
    session.ClassifyInto(tuples[i], row.data());
    ASSERT_TRUE(RowsEqual(row.data(), oracle[i].data()))
        << what << ", n = 1, tuple " << i;
  }
  for (int threads : {1, 3}) {
    FlatBatchResult batch;
    ASSERT_TRUE(session
                    .PredictBatchInto(std::span<const UncertainTuple>(tuples),
                                      {.num_threads = threads}, &batch)
                    .ok());
    for (size_t i = 0; i < tuples.size(); ++i) {
      ASSERT_TRUE(RowsEqual(batch.distribution(i).data(), oracle[i].data()))
          << what << ", n = " << tuples.size() << ", threads " << threads
          << ", tuple " << i;
      ASSERT_EQ(batch.labels[i], ArgMax(oracle[i])) << what;
    }
  }
}

constexpr int kTrials = 200;
constexpr int kTuplesPerTrial = 48;

// One trial's trees and tuples. Regenerated from the seed per model kind,
// so every kind gets its own identical copy of the (move-only) trees.
struct Trial {
  std::vector<DecisionTree> trees;
  std::vector<UncertainTuple> tuples;
};

Trial MakeTrial(uint64_t seed, const Schema& schema, int num_trees) {
  Stream rng(seed);
  Trial trial;
  for (int t = 0; t < num_trees; ++t) {
    trial.trees.push_back(RandomTree(&rng, schema));
  }
  trial.tuples = RandomTuples(&rng, schema, kTuplesPerTrial);
  return trial;
}

TEST(TraversalDifferentialTest, TreeMatchesPointerOracle) {
  const Schema schema = MixedSchema();
  for (int i = 0; i < kTrials; ++i) {
    for (ModelKind kind : {ModelKind::kUdt, ModelKind::kAveraging}) {
      Trial trial = MakeTrial(0x51D0 + static_cast<uint64_t>(i), schema, 1);
      const Model model =
          Model::FromTree(std::move(trial.trees[0]), kind, {});
      std::vector<std::vector<double>> oracle;
      for (const UncertainTuple& tuple : trial.tuples) {
        oracle.push_back(model.ClassifyDistribution(tuple));
      }
      ExpectSessionMatchesOracle(model.Compile(), trial.tuples, oracle,
                                 "trial " + std::to_string(i) + ", " +
                                     ModelKindToString(kind) + " tree");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(TraversalDifferentialTest, ForestMatchesPointerOracle) {
  const Schema schema = MixedSchema();
  for (int i = 0; i < kTrials; ++i) {
    for (ModelKind kind : {ModelKind::kUdt, ModelKind::kAveraging}) {
      for (ForestVote vote : {ForestVote::kAverage, ForestVote::kMajority}) {
        Trial trial =
            MakeTrial(0xF0E5 + static_cast<uint64_t>(i), schema, 3);
        std::vector<Model> models;
        for (DecisionTree& tree : trial.trees) {
          models.push_back(Model::FromTree(std::move(tree), kind, {}));
        }
        const ForestModel forest =
            ForestModel::FromTrees(std::move(models), vote);
        std::vector<std::vector<double>> oracle;
        for (const UncertainTuple& tuple : trial.tuples) {
          oracle.push_back(forest.ClassifyDistribution(tuple));
        }
        ExpectSessionMatchesOracle(
            forest.Compile(), trial.tuples, oracle,
            "trial " + std::to_string(i) + ", " + ModelKindToString(kind) +
                " forest, " + ForestVoteToString(vote) + " vote");
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace udt
