#include "api/model.h"

#include "api/container_tags.h"

#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "table/schema_io.h"
#include "tree/classify.h"
#include "tree/tree_io.h"

namespace udt {
namespace {

// Serialisation keywords of the v1 model container. The header is
// line-oriented (names may contain spaces, so each name owns the rest of
// its line); the tree body is the tree_io text verbatim.
constexpr char kMagic[] = "udt-model v1";

StatusOr<SplitAlgorithm> ParseAlgorithm(std::string_view name) {
  for (SplitAlgorithm a :
       {SplitAlgorithm::kAvg, SplitAlgorithm::kUdt, SplitAlgorithm::kUdtBp,
        SplitAlgorithm::kUdtLp, SplitAlgorithm::kUdtGp,
        SplitAlgorithm::kUdtEs}) {
    if (name == SplitAlgorithmToString(a)) return a;
  }
  return Status::InvalidArgument("unknown algorithm: " + std::string(name));
}

StatusOr<DispersionMeasure> ParseMeasure(std::string_view name) {
  for (DispersionMeasure m :
       {DispersionMeasure::kEntropy, DispersionMeasure::kGini,
        DispersionMeasure::kGainRatio}) {
    if (name == DispersionMeasureToString(m)) return m;
  }
  return Status::InvalidArgument("unknown measure: " + std::string(name));
}

// The training knobs worth persisting: enough to retrain or audit a model,
// including the split_options that change which tree gets built. Written as
// key=value tokens; unknown keys are skipped on load so future versions can
// extend the line.
std::string ConfigLine(const TreeConfig& config) {
  return StrFormat(
      "config algorithm=%s measure=%s max_depth=%d min_split_weight=%.17g "
      "min_gain=%.17g post_prune=%d pruning_confidence=%.17g "
      "es_endpoint_sample_rate=%.17g use_percentile_endpoints=%d "
      "percentiles_per_class=%d min_side_mass=%.17g "
      "subspace_attributes=%d subspace_seed=%llu",
      SplitAlgorithmToString(config.algorithm),
      DispersionMeasureToString(config.measure), config.max_depth,
      config.min_split_weight, config.min_gain, config.post_prune ? 1 : 0,
      config.pruning_confidence,
      config.split_options.es_endpoint_sample_rate,
      config.split_options.use_percentile_endpoints ? 1 : 0,
      config.split_options.percentiles_per_class,
      config.split_options.min_side_mass, config.subspace_attributes,
      static_cast<unsigned long long>(config.subspace_seed));
}

Status ParseConfigLine(std::string_view line, TreeConfig* config) {
  for (const std::string& token : SplitString(line, ' ')) {
    size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    std::string_view key(token.data(), eq);
    std::string_view value(token.data() + eq + 1, token.size() - eq - 1);
    if (key == "algorithm") {
      UDT_ASSIGN_OR_RETURN(config->algorithm, ParseAlgorithm(value));
    } else if (key == "measure") {
      UDT_ASSIGN_OR_RETURN(config->measure, ParseMeasure(value));
    } else if (key == "max_depth") {
      std::optional<int> v = ParseInt(value);
      if (!v) return Status::InvalidArgument("bad max_depth");
      config->max_depth = *v;
    } else if (key == "min_split_weight") {
      std::optional<double> v = ParseDouble(value);
      if (!v) return Status::InvalidArgument("bad min_split_weight");
      config->min_split_weight = *v;
    } else if (key == "min_gain") {
      std::optional<double> v = ParseDouble(value);
      if (!v) return Status::InvalidArgument("bad min_gain");
      config->min_gain = *v;
    } else if (key == "post_prune") {
      config->post_prune = value != "0";
    } else if (key == "pruning_confidence") {
      std::optional<double> v = ParseDouble(value);
      if (!v) return Status::InvalidArgument("bad pruning_confidence");
      config->pruning_confidence = *v;
    } else if (key == "es_endpoint_sample_rate") {
      std::optional<double> v = ParseDouble(value);
      if (!v) return Status::InvalidArgument("bad es_endpoint_sample_rate");
      config->split_options.es_endpoint_sample_rate = *v;
    } else if (key == "use_percentile_endpoints") {
      config->split_options.use_percentile_endpoints = value != "0";
    } else if (key == "percentiles_per_class") {
      std::optional<int> v = ParseInt(value);
      if (!v) return Status::InvalidArgument("bad percentiles_per_class");
      config->split_options.percentiles_per_class = *v;
    } else if (key == "min_side_mass") {
      std::optional<double> v = ParseDouble(value);
      if (!v) return Status::InvalidArgument("bad min_side_mass");
      config->split_options.min_side_mass = *v;
    } else if (key == "subspace_attributes") {
      std::optional<int> v = ParseInt(value);
      if (!v) return Status::InvalidArgument("bad subspace_attributes");
      config->subspace_attributes = *v;
    } else if (key == "subspace_seed") {
      std::optional<uint64_t> v = ParseUint64(value);
      if (!v) return Status::InvalidArgument("bad subspace_seed");
      config->subspace_seed = *v;
    }
    // Unknown keys: ignore (forward compatibility).
  }
  // A loaded config is retrained from and audited; it must satisfy the
  // same ranges a trainer enforces (strtod accepts "nan" and "inf").
  Status valid = config->Validate();
  if (!valid.ok()) {
    return Status::InvalidArgument("invalid config: " + valid.message());
  }
  return Status::OK();
}

}  // namespace

const char* ModelKindToString(ModelKind kind) {
  return kind == ModelKind::kAveraging ? "averaging" : "distribution-based";
}

Status PredictOptions::Validate() const {
  if (top_k < 0) {
    return Status::InvalidArgument(
        StrFormat("PredictOptions::top_k must be >= 0, got %d", top_k));
  }
  if (!(abstain_threshold >= 0.0 && abstain_threshold <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("PredictOptions::abstain_threshold must be in [0, 1], "
                  "got %g",
                  abstain_threshold));
  }
  return Status::OK();
}

Model Model::FromTree(DecisionTree tree, ModelKind kind, TreeConfig config) {
  return Model(std::make_shared<const DecisionTree>(std::move(tree)), kind,
               std::move(config));
}

std::vector<double> Model::ClassifyDistribution(
    const UncertainTuple& tuple) const {
  if (kind_ == ModelKind::kAveraging) {
    return udt::ClassifyDistribution(*tree_, TupleToMeans(tuple));
  }
  return udt::ClassifyDistribution(*tree_, tuple);
}

int Model::Predict(const UncertainTuple& tuple) const {
  return ArgMax(ClassifyDistribution(tuple));
}

std::string Model::Serialize() const {
  std::ostringstream out;
  out << kMagic << "\n";
  out << "kind " << wire::KindTag(kind_) << "\n";
  WriteSchemaBlock(schema(), out);
  out << ConfigLine(config_) << "\n";
  out << "tree\n";
  out << SerializeTree(*tree_) << "\n";
  return out.str();
}

StatusOr<Model> Model::Deserialize(const std::string& text) {
  std::istringstream in(text);
  LineReader reader(in, "udt-model");

  UDT_RETURN_NOT_OK(reader.Next("magic"));
  if (reader.line() != kMagic) {
    return reader.Error("bad magic line: " + reader.line());
  }

  UDT_RETURN_NOT_OK(reader.Next("kind"));
  if (reader.line().rfind("kind ", 0) != 0) {
    return reader.Error("expected kind line");
  }
  UDT_ASSIGN_OR_RETURN(ModelKind kind,
                       wire::ParseKindTag(reader.line().substr(5)));

  UDT_ASSIGN_OR_RETURN(Schema schema, ReadSchemaBlock(&reader));

  UDT_RETURN_NOT_OK(reader.Next("config"));
  TreeConfig config;
  if (reader.line().rfind("config", 0) != 0) {
    return reader.Error("expected config line");
  }
  UDT_RETURN_NOT_OK(ParseConfigLine(reader.line(), &config));

  UDT_RETURN_NOT_OK(reader.Next("tree"));
  if (reader.line() != "tree") {
    return reader.Error("expected tree marker");
  }
  std::string tree_text;
  std::string line;
  while (std::getline(in, line)) {
    tree_text += line;
    tree_text += "\n";
  }
  UDT_ASSIGN_OR_RETURN(DecisionTree tree, ParseTree(tree_text, schema));
  return FromTree(std::move(tree), kind, std::move(config));
}

Status Model::Save(const std::string& path) const {
  return wire::WriteTextFile(path, Serialize());
}

StatusOr<Model> Model::Load(const std::string& path) {
  UDT_ASSIGN_OR_RETURN(std::string text, wire::ReadTextFile(path));
  return Deserialize(text);
}

}  // namespace udt
