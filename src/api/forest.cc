#include "api/forest.h"

#include "api/container_tags.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>

#include "api/predict_session.h"
#include "common/logging.h"
#include "common/math.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/task_pool.h"
#include "table/schema_io.h"
#include "tree/classify.h"

namespace udt {
namespace {

constexpr char kMagic[] = "udt-forest-model v1";

// Salts separating the forest's independent random streams: a tree's bag
// and its subspace stream must not correlate just because they share the
// run seed and tree index.
constexpr uint64_t kBagSalt = 0x8FB3'79A1'C2D4'5E67ULL;
constexpr uint64_t kSubspaceSalt = 0x243F'6A88'85A3'08D3ULL;

uint64_t DeriveStreamSeed(uint64_t run_seed, uint64_t salt, int tree_index) {
  return SplitMix64(run_seed ^ SplitMix64(salt + static_cast<uint64_t>(
                                                     tree_index)));
}

// The per-tree TreeConfig of tree `t`: forest-level subspace knobs
// resolved and seeded, inner threading disabled (the forest owns the
// pool), and the averaging algorithm override applied — mirroring what
// Trainer::Train does for a single tree.
TreeConfig DeriveTreeConfig(const ForestConfig& config, int num_attributes,
                            int tree_index, ModelKind kind) {
  TreeConfig tree = config.tree;
  tree.num_threads = 1;
  if (kind == ModelKind::kAveraging) tree.algorithm = SplitAlgorithm::kAvg;
  int k = config.subspace_attributes;
  if (k == ForestConfig::kSubspaceSqrt) {
    k = static_cast<int>(
        std::floor(std::sqrt(static_cast<double>(num_attributes))));
    if (k < 1) k = 1;
  }
  tree.subspace_attributes = k;
  tree.subspace_seed = DeriveStreamSeed(config.seed, kSubspaceSalt,
                                        tree_index);
  return tree;
}

}  // namespace

const char* ForestVoteToString(ForestVote vote) {
  return vote == ForestVote::kAverage ? "probability-average"
                                      : "majority";
}

Status ForestConfig::Validate() const {
  if (num_trees < 1) {
    return Status::InvalidArgument("num_trees must be >= 1");
  }
  if (subspace_attributes < kSubspaceSqrt) {
    return Status::InvalidArgument(
        "subspace_attributes must be >= 0, or -1 for floor(sqrt(k))");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 0 (0 = one per hardware thread)");
  }
  return tree.Validate();
}

std::string ForestConfig::ToString() const {
  return StrFormat(
      "trees=%d seed=%llu bootstrap=%s subspace=%d vote=%s threads=%d [%s]",
      num_trees, static_cast<unsigned long long>(seed),
      bootstrap ? "yes" : "no", subspace_attributes, wire::VoteTag(vote),
      num_threads, tree.ToString().c_str());
}

std::vector<double> ForestBootstrapBag(uint64_t seed, int tree_index,
                                       int num_tuples) {
  UDT_CHECK(num_tuples > 0);
  Rng rng(DeriveStreamSeed(seed, kBagSalt, tree_index));
  std::vector<double> bag(static_cast<size_t>(num_tuples), 0.0);
  for (int draw = 0; draw < num_tuples; ++draw) {
    bag[static_cast<size_t>(rng.UniformInt(num_tuples))] += 1.0;
  }
  return bag;
}

void AccumulateForestVote(ForestVote vote, const double* tree_distribution,
                          int num_classes, double* accumulator) {
  if (vote == ForestVote::kAverage) {
    for (int c = 0; c < num_classes; ++c) {
      accumulator[c] += tree_distribution[c];
    }
    return;
  }
  int best = 0;
  for (int c = 1; c < num_classes; ++c) {
    if (tree_distribution[c] > tree_distribution[best]) best = c;
  }
  accumulator[best] += 1.0;
}

ForestModel ForestModel::FromTrees(std::vector<Model> trees,
                                   ForestVote vote) {
  UDT_CHECK(!trees.empty());
  const ModelKind kind = trees[0].kind();
  for (const Model& tree : trees) {
    UDT_CHECK(tree.kind() == kind);
    UDT_CHECK(SchemaEquals(tree.schema(), trees[0].schema()));
  }
  return ForestModel(
      std::make_shared<const std::vector<Model>>(std::move(trees)), vote,
      kind);
}

std::vector<double> ForestModel::ClassifyDistribution(
    const UncertainTuple& tuple) const {
  const int k = num_classes();
  std::vector<double> out(static_cast<size_t>(k), 0.0);
  for (const Model& tree : *trees_) {
    std::vector<double> dist = tree.ClassifyDistribution(tuple);
    AccumulateForestVote(vote_, dist.data(), k, out.data());
  }
  const double trees = static_cast<double>(num_trees());
  for (double& value : out) value /= trees;
  return out;
}

int ForestModel::Predict(const UncertainTuple& tuple) const {
  return ArgMax(ClassifyDistribution(tuple));
}

std::string ForestModel::Serialize() const {
  std::ostringstream out;
  out << kMagic << "\n";
  out << "vote " << wire::VoteTag(vote_) << "\n";
  out << "trees " << num_trees() << "\n";
  // Each tree rides as its own byte-framed udt-model container: the frame
  // length makes the outer format oblivious to the inner one's shape.
  for (int t = 0; t < num_trees(); ++t) {
    std::string body = tree(t).Serialize();
    out << "tree " << t << " " << body.size() << "\n";
    out << body;
  }
  return out.str();
}

StatusOr<ForestModel> ForestModel::Deserialize(const std::string& text) {
  std::istringstream in(text);
  LineReader reader(in, "udt-forest-model");

  UDT_RETURN_NOT_OK(reader.Next("magic"));
  if (reader.line() != kMagic) {
    return reader.Error("bad magic line: " + reader.line());
  }

  UDT_RETURN_NOT_OK(reader.Next("vote"));
  if (reader.line().rfind("vote ", 0) != 0) {
    return reader.Error("expected vote line");
  }
  UDT_ASSIGN_OR_RETURN(ForestVote vote,
                       wire::ParseVoteTag(reader.line().substr(5)));

  UDT_RETURN_NOT_OK(reader.Next("trees"));
  constexpr int kMaxTrees = 1 << 16;
  if (reader.line().rfind("trees ", 0) != 0) {
    return reader.Error("expected trees line");
  }
  std::optional<int> num_trees = ParseInt(reader.line().substr(6));
  if (!num_trees || *num_trees < 1 || *num_trees > kMaxTrees) {
    return reader.Error("bad tree count");
  }

  std::vector<Model> trees;
  trees.reserve(static_cast<size_t>(*num_trees));
  for (int t = 0; t < *num_trees; ++t) {
    UDT_RETURN_NOT_OK(reader.Next("tree frame"));
    const std::vector<std::string> frame = SplitString(reader.line(), ' ');
    std::optional<uint64_t> bytes;
    if (frame.size() == 3 && frame[0] == "tree" && ParseInt(frame[1]) == t) {
      bytes = ParseUint64(frame[2]);
    }
    if (!bytes || *bytes < 1 || *bytes > text.size()) {
      return reader.Error("bad tree frame: " + reader.line());
    }
    std::string body(static_cast<size_t>(*bytes), '\0');
    in.read(body.data(), static_cast<std::streamsize>(*bytes));
    if (in.gcount() != static_cast<std::streamsize>(*bytes)) {
      return reader.Error("truncated tree body");
    }
    // The raw read consumed the body's lines behind the reader; account
    // for them so errors on later frames report true absolute lines.
    reader.AccountRawLines(
        static_cast<int>(std::count(body.begin(), body.end(), '\n')));
    UDT_ASSIGN_OR_RETURN(Model model, Model::Deserialize(body));
    if (t > 0 && (model.kind() != trees[0].kind() ||
                  !SchemaEquals(model.schema(), trees[0].schema()))) {
      return reader.Error("trees disagree on kind or schema");
    }
    trees.push_back(std::move(model));
  }
  return FromTrees(std::move(trees), vote);
}

Status ForestModel::Save(const std::string& path) const {
  return wire::WriteTextFile(path, Serialize());
}

StatusOr<ForestModel> ForestModel::Load(const std::string& path) {
  UDT_ASSIGN_OR_RETURN(std::string text, wire::ReadTextFile(path));
  return Deserialize(text);
}

StatusOr<ForestModel> ForestTrainer::Train(const TrainRequest& request) const {
  UDT_RETURN_NOT_OK(request.Validate());
  if (!request.weights.empty()) {
    return Status::InvalidArgument(
        "forest requests reject explicit weights: bootstrap bags own the "
        "ensemble's tuple weighting");
  }

  ForestConfig config = config_;
  if (request.num_threads >= 0) config.num_threads = request.num_threads;
  if (request.seed) config.seed = *request.seed;
  UDT_RETURN_NOT_OK(config.Validate());

  const Dataset& train = *request.dataset;
  const ModelKind kind = request.kind;
  OobEstimate* oob = request.oob;
  BuildStats* stats = request.stats;

  if (train.empty()) {
    return Status::InvalidArgument(
        "cannot train a forest on an empty data set");
  }

  // Warm start: trees [0, carried) come from the incumbent unchanged;
  // only [carried, num_trees) build below. Bags and subspace streams stay
  // keyed by tree index, so fresh tree t is bitwise-identical to the tree
  // a cold run would have built at index t.
  const int carried = request.warm_start != nullptr ? request.warm_trees : 0;
  if (carried > 0) {
    const ForestModel& warm = *request.warm_start;
    if (carried > config.num_trees) {
      return Status::InvalidArgument(
          StrFormat("warm_trees %d exceeds num_trees %d", carried,
                    config.num_trees));
    }
    if (carried > warm.num_trees()) {
      return Status::InvalidArgument(
          StrFormat("warm_trees %d exceeds the warm-start forest's %d trees",
                    carried, warm.num_trees()));
    }
    if (warm.kind() != kind) {
      return Status::InvalidArgument(
          "warm-start forest kind does not match the request kind");
    }
    if (!SchemaEquals(warm.schema(), train.schema())) {
      return Status::InvalidArgument(
          "warm-start forest schema does not match the training data");
    }
  }

  const int num_trees = config.num_trees;
  const int num_tuples = train.num_tuples();

  // Averaging forests reduce the pdfs to their means once; every bag then
  // reweights the shared means data instead of re-materialising it.
  std::optional<Dataset> means;
  if (kind == ModelKind::kAveraging) means = train.ToMeans();
  const Dataset& build_data = means ? *means : train;

  // Every random choice is drawn here, serially, as a pure function of the
  // run seed and tree index — the pool below only decides *when* a tree
  // builds, never what it builds. Carried trees keep their (unused) slots
  // so fresh indices line up with a cold run's.
  std::vector<TreeConfig> tree_configs(static_cast<size_t>(num_trees));
  std::vector<std::vector<double>> bags(static_cast<size_t>(num_trees));
  for (int t = carried; t < num_trees; ++t) {
    tree_configs[static_cast<size_t>(t)] =
        DeriveTreeConfig(config, train.num_attributes(), t, kind);
    if (config.bootstrap) {
      bags[static_cast<size_t>(t)] =
          ForestBootstrapBag(config.seed, t, num_tuples);
    }
  }

  std::vector<std::optional<DecisionTree>> built(
      static_cast<size_t>(num_trees));
  std::vector<Status> errors(static_cast<size_t>(num_trees), Status::OK());
  std::vector<BuildStats> tree_stats(static_cast<size_t>(num_trees));

  const int fresh = num_trees - carried;
  const int concurrency = TaskPool::EffectiveConcurrency(config.num_threads);
  // The calling thread participates via Wait, so spawn one fewer worker.
  std::optional<TaskPool> pool;
  if (concurrency > 1 && fresh > 1) pool.emplace(concurrency - 1);

  // One rank index serves every fresh tree: the bags reweight the shared
  // build data, they never change its sample points.
  std::optional<AttributeIndex> index;
  if (fresh > 0) {
    index = AttributeIndex::Build(build_data, pool ? &*pool : nullptr);
  }
  const AttributeIndex* shared_index = index ? &*index : nullptr;

  auto build_one = [&](int t) {
    const size_t ut = static_cast<size_t>(t);
    TreeBuilder builder(tree_configs[ut]);
    StatusOr<DecisionTree> tree =
        config.bootstrap
            ? builder.BuildWeighted(build_data, bags[ut], &tree_stats[ut],
                                    shared_index)
            : builder.Build(build_data, &tree_stats[ut], shared_index);
    if (tree.ok()) {
      built[ut].emplace(std::move(tree).value());
    } else {
      errors[ut] = tree.status();
    }
  };

  if (!pool) {
    for (int t = carried; t < num_trees; ++t) build_one(t);
  } else {
    // Each task writes only its own slots; no further synchronisation.
    TaskGroup group;
    for (int t = carried; t < num_trees; ++t) {
      pool->Submit(&group, [&build_one, t] { build_one(t); });
    }
    pool->Wait(&group);
  }

  for (int t = carried; t < num_trees; ++t) {
    UDT_RETURN_NOT_OK(errors[static_cast<size_t>(t)]);
  }
  // Stats cover the work this run did: the freshly built trees. Carried
  // trees reported theirs when they were first trained.
  if (stats != nullptr) {
    for (int t = carried; t < num_trees; ++t) {
      *stats += tree_stats[static_cast<size_t>(t)];
    }
  }

  std::vector<Model> trees;
  trees.reserve(static_cast<size_t>(num_trees));
  for (int t = 0; t < carried; ++t) {
    trees.push_back(request.warm_start->tree(t));  // shared, never copied
  }
  for (int t = carried; t < num_trees; ++t) {
    const size_t ut = static_cast<size_t>(t);
    trees.push_back(Model::FromTree(std::move(*built[ut]), kind,
                                    tree_configs[ut]));
  }
  ForestModel forest = ForestModel::FromTrees(std::move(trees), config.vote);

  if (oob != nullptr) {
    *oob = OobEstimate{};
    oob->total_tuples = num_tuples;
    if (config.bootstrap && fresh > 0) {
      const size_t k = static_cast<size_t>(forest.num_classes());
      // Tree-outer: each fresh tree classifies the tuples its bag left out
      // in one batch through a session over its one-tree compiled forest
      // (zero, one add, a divide by 1.0: exactly the tree's distribution),
      // and the votes fold into per-tuple accumulators in tree order. Only
      // the fresh trees take part: a carried tree never drew a bag over
      // this window, so it has no out-of-bag relation to score.
      std::vector<double> votes(static_cast<size_t>(num_tuples) * k, 0.0);
      std::vector<int> oob_trees(static_cast<size_t>(num_tuples), 0);
      std::vector<int> members;
      std::vector<const UncertainTuple*> tuples;
      FlatBatchResult rows;
      for (int t = carried; t < num_trees; ++t) {
        const std::vector<double>& bag = bags[static_cast<size_t>(t)];
        members.clear();
        tuples.clear();
        for (int i = 0; i < num_tuples; ++i) {
          if (bag[static_cast<size_t>(i)] > 0.0) continue;  // trained on i
          members.push_back(i);
          tuples.push_back(&train.tuple(i));
        }
        PredictSession session(forest.tree(t).Compile());
        UDT_RETURN_NOT_OK(session.PredictBatchInto(tuples, {}, &rows));
        for (size_t r = 0; r < members.size(); ++r) {
          const size_t i = static_cast<size_t>(members[r]);
          AccumulateForestVote(config.vote, rows.distribution(r).data(),
                               static_cast<int>(k), votes.data() + i * k);
          ++oob_trees[i];
        }
      }
      int correct = 0;
      for (int i = 0; i < num_tuples; ++i) {
        const size_t ui = static_cast<size_t>(i);
        if (oob_trees[ui] == 0) continue;
        ++oob->evaluated_tuples;
        // First maximum, ties -> lowest class id, as udt::ArgMax.
        const double* row = votes.data() + ui * k;
        if (std::max_element(row, row + k) - row == train.tuple(i).label) {
          ++correct;
        }
      }
      // With zero evaluated tuples the rates keep their NaN defaults and
      // coverage stays 0 — the documented "no estimate" sentinel
      // (forest.h), not a stale 0.0 pretending to be a perfect error.
      if (oob->evaluated_tuples > 0) {
        oob->accuracy = static_cast<double>(correct) /
                        static_cast<double>(oob->evaluated_tuples);
        oob->error = 1.0 - oob->accuracy;
        oob->coverage = static_cast<double>(oob->evaluated_tuples) /
                        static_cast<double>(num_tuples);
      }
    }
  }
  return forest;
}

}  // namespace udt
