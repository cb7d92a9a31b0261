#include "pipeline.h"

#include <algorithm>
#include <cmath>

#include "api/compiled_model.h"
#include "api/trainer.h"
#include "common/logging.h"
#include "common/math.h"
#include "common/random.h"
#include "datagen/synthetic.h"
#include "datagen/uci_like.h"
#include "serve/servable.h"
#include "support.h"
#include "table/csv.h"

namespace perfbench {

udt::PointDataset SampleSegmentRows(int rows) {
  auto spec = udt::datagen::FindUciSpec("Segment");
  UDT_CHECK(spec.ok());
  udt::datagen::SyntheticConfig config =
      udt::datagen::MakeUciLikeConfig(*spec, 1.0);
  config.num_tuples = rows;
  return udt::datagen::GenerateSynthetic(config);
}

udt::PointDataset ShuffleWithinClasses(const udt::PointDataset& points,
                                       uint64_t seed) {
  const int classes = points.num_classes();
  std::vector<std::vector<int>> by_class(static_cast<size_t>(classes));
  for (int i = 0; i < points.num_tuples(); ++i) {
    by_class[static_cast<size_t>(points.label(i))].push_back(i);
  }
  udt::Rng rng(udt::SplitMix64(seed));
  for (std::vector<int>& rows : by_class) rng.Shuffle(&rows);
  std::vector<size_t> next(static_cast<size_t>(classes), 0);
  udt::PointDataset out(points.schema());
  for (int r = 0; r < points.num_tuples(); ++r) {
    const size_t c = static_cast<size_t>(points.label(r));
    const int i = by_class[c][next[c]++];
    UDT_CHECK(out.AddRow(points.row(i), points.label(i)).ok());
  }
  return out;
}

Table MakeSegmentTable(uint64_t seed, double scale) {
  const int train_n =
      7 * std::max(10, static_cast<int>(std::lround(kSegmentTuples * scale / 7)));
  const int holdout_n = 7 * std::max(
      5, static_cast<int>(std::lround(kSegmentHoldout * scale / 7)));
  const udt::PointDataset all = SampleSegmentRows(train_n + holdout_n);
  udt::PointDataset train(all.schema());
  udt::PointDataset holdout(all.schema());
  for (int i = 0; i < all.num_tuples(); ++i) {
    udt::PointDataset& side = i < train_n ? train : holdout;
    UDT_CHECK(side.AddRow(all.row(i), all.label(i)).ok());
  }
  train = ShuffleWithinClasses(train, seed);
  holdout = ShuffleWithinClasses(holdout, seed + 1);

  Table table;
  table.train_csv = udt::WriteCsvToString(train);
  table.holdout = ParseAndInject(udt::WriteCsvToString(holdout));
  return table;
}

udt::UncertaintyOptions PaperUncertainty() {
  udt::UncertaintyOptions options;
  options.width_fraction = 0.10;
  options.samples_per_pdf = 20;
  options.error_model = udt::ErrorModel::kGaussian;
  return options;
}

udt::TreeConfig PaperTreeConfig(int threads) {
  udt::TreeConfig config;
  config.algorithm = udt::SplitAlgorithm::kUdtEs;
  config.measure = udt::DispersionMeasure::kEntropy;
  config.num_threads = threads;
  return config;
}

udt::Dataset ParseAndInject(const std::string& csv) {
  auto points = udt::ReadCsvFromString(csv);
  UDT_CHECK(points.ok());
  auto data = udt::InjectUncertainty(*points, PaperUncertainty());
  UDT_CHECK(data.ok());
  return std::move(data).value();
}

JobOutput RunPaperJob(const std::string& csv, int threads,
                      udt::serve::ModelRegistry* registry,
                      const std::string& name, JobTrace* trace) {
  trace->start = NowNs();
  auto points = udt::ReadCsvFromString(csv);
  UDT_CHECK(points.ok());
  trace->parsed = NowNs();
  auto data = udt::InjectUncertainty(*points, PaperUncertainty());
  UDT_CHECK(data.ok());
  trace->injected = NowNs();

  udt::Trainer trainer(PaperTreeConfig(threads));
  udt::TrainRequest request = udt::TrainRequest::For(*data);
  trace->stats = udt::BuildStats();
  request.stats = &trace->stats;
  auto model = trainer.Train(request);
  UDT_CHECK(model.ok());
  trace->trained = NowNs();

  udt::CompiledModel compiled = model->Compile();
  trace->compiled = NowNs();

  JobOutput out;
  out.serialized = compiled.Serialize();
  trace->serialized = NowNs();

  out.version = registry->Publish(name, udt::serve::Servable(compiled));
  trace->published = NowNs();
  out.model = std::move(model).value();
  return out;
}

}  // namespace perfbench
