// End-to-end CSV workflow: what a downstream user of the library does with
// their own measurements file.
//
//   1. write/read a CSV with missing values ("?", the UCI convention)
//   2. build the uncertain data set: pdfs for present readings, Section 2's
//      mixture "guess" pdfs for missing ones
//   3. train a distribution-based udt::Model with udt::Trainer
//   4. persist the model to disk with Model::Save and load it back with
//      Model::Load (schema and config travel inside the file)
//   5. compile the reloaded model into its serving artifact (a one-tree
//      CompiledForest) and check it is byte-identical to the original
//   6. extract human-readable IF-THEN rules and a Graphviz rendering
//
// Run: build/examples/csv_workflow [output-directory]  (default: the
// working directory)

#include <cstdio>
#include <fstream>
#include <string>

#include "api/predict_session.h"
#include "api/trainer.h"
#include "common/random.h"
#include "common/string_util.h"
#include "eval/metrics.h"
#include "table/csv.h"
#include "table/missing.h"
#include "tree/rules.h"
#include "tree/tree_printer.h"

namespace {

// A small wine-quality-style measurements file; "?" marks a failed assay.
std::string MakeCsv() {
  udt::Rng rng(404);
  std::string csv = "acidity,sugar,sulphates,class\n";
  for (int i = 0; i < 240; ++i) {
    int label = i % 2;
    double acidity = rng.Gaussian(label == 0 ? 6.5 : 8.0, 0.7);
    double sugar = rng.Gaussian(label == 0 ? 2.0 : 5.5, 1.2);
    double sulphates = rng.Gaussian(label == 0 ? 0.5 : 0.75, 0.12);
    auto field = [&rng](double v) {
      return rng.Bernoulli(0.08) ? std::string("?")
                                 : udt::StrFormat("%.3f", v);
    };
    csv += field(acidity) + "," + field(sugar) + "," + field(sulphates) +
           "," + (label == 0 ? "table" : "premium") + "\n";
  }
  return csv;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = argc > 1 ? argv[1] : ".";

  // 1. Round-trip the measurements through CSV.
  std::string csv_path = out_dir + "/udt_wine.csv";
  {
    std::ofstream out(csv_path);
    out << MakeCsv();
  }
  auto points = udt::ReadCsvFile(csv_path);
  UDT_CHECK(points.ok());
  std::printf("loaded %s: %d rows, %d attributes, %d missing entries\n",
              csv_path.c_str(), points->num_tuples(),
              points->num_attributes(), points->CountMissing());

  // 2. Uncertain view: instrument error 6% of each attribute's range;
  //    missing entries get the class-conditional mixture guess pdf.
  udt::MissingPdfOptions missing_options;
  missing_options.inject.width_fraction = 0.06;
  missing_options.inject.samples_per_pdf = 32;
  missing_options.inject.error_model = udt::ErrorModel::kGaussian;
  missing_options.class_conditional = true;
  auto ds = udt::InjectUncertaintyWithMissing(*points, missing_options);
  UDT_CHECK(ds.ok());

  udt::Rng rng(7);
  auto [train, test] = ds->RandomSplit(0.25, &rng);

  // 3. Train.
  udt::TreeConfig config;
  config.algorithm = udt::SplitAlgorithm::kUdtEs;
  udt::Trainer trainer(config);
  auto model = trainer.TrainUdt(train);
  UDT_CHECK(model.ok());
  const udt::CompiledForest served = model->Compile();
  udt::PredictSession session(served);
  std::printf("trained UDT tree (%s), test accuracy %.3f\n",
              udt::TreeSummary(model->tree()).c_str(),
              udt::EvaluateAccuracy(session, test));

  // 4. Persist and reload. The model file is self-contained: kind, schema
  // and training config ride along with the tree.
  std::string model_path = out_dir + "/udt_wine.model";
  UDT_CHECK(model->Save(model_path).ok());
  auto restored = udt::Model::Load(model_path);
  UDT_CHECK(restored.ok());
  UDT_CHECK(udt::EvaluateAccuracy(*restored, test) ==
            udt::EvaluateAccuracy(session, test));
  std::printf("model persisted to %s and reloaded: predictions identical\n",
              model_path.c_str());

  // 5. The serving artifact is never persisted itself: a server loads the
  // model file and compiles it (linear in the tree's size). The model
  // container determines the compiled layout, so the reloaded model
  // compiles to the same bytes and serves identical predictions.
  const udt::CompiledForest compiled = restored->Compile();
  UDT_CHECK(compiled.Serialize() == served.Serialize());
  udt::PredictSession reloaded_session(compiled);
  UDT_CHECK(udt::EvaluateAccuracy(reloaded_session, test) ==
            udt::EvaluateAccuracy(session, test));
  std::printf("reloaded model compiled to %d flat nodes, byte-identical to "
              "the original artifact\n",
              compiled.num_nodes());

  // 6. Rules and Graphviz.
  udt::RuleSet rules = udt::RuleSet::FromTree(model->tree());
  std::printf("\nextracted %d rules (top by support):\n", rules.num_rules());
  std::string all_rules = rules.ToString();
  // Print the first few lines only.
  size_t pos = 0;
  for (int line = 0; line < 5 && pos != std::string::npos; ++line) {
    size_t next = all_rules.find('\n', pos);
    std::printf("  %s\n", all_rules.substr(pos, next - pos).c_str());
    pos = next == std::string::npos ? next : next + 1;
  }
  std::string dot_path = out_dir + "/udt_wine.dot";
  {
    std::ofstream out(dot_path);
    out << udt::TreeToDot(model->tree());
  }
  std::printf("\nGraphviz rendering written to %s "
              "(render with: dot -Tpng %s -o tree.png)\n",
              dot_path.c_str(), dot_path.c_str());
  return 0;
}
