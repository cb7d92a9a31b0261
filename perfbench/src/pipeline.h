// The paper's pipeline as the benchmark drives it: a seeded UCI-like point
// table in the Segment shape, rendered as CSV text, and one "job" that
// turns that text into a published model.
//
//   CSV text -> ReadCsvFromString -> InjectUncertainty (w = 10%, s = 20,
//   Gaussian) -> UDT-ES tree -> Compile -> Serialize -> Publish

#ifndef UDT_PERFBENCH_PIPELINE_H_
#define UDT_PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "api/model.h"
#include "core/builder.h"
#include "core/config.h"
#include "table/point_dataset.h"
#include "serve/model_registry.h"
#include "table/dataset.h"
#include "table/uncertainty_injector.h"

namespace perfbench {

// Segment: 2310 tuples x 19 attributes x 7 classes (Table 2).
constexpr int kSegmentTuples = 2310;
constexpr int kSegmentHoldout = 770;

// One seeded table: the training rows as CSV text (what a job parses) and
// a held-out set from the same generator, already made uncertain. The
// seed orders the rows; the rows themselves are the same for every seed,
// so run-to-run spread measures the program, not the sample.
struct Table {
  std::string train_csv;
  std::optional<udt::Dataset> holdout;
};

// `rows` point tuples drawn from the Segment-shaped generator: the
// catalogue's fixed class mixture and a fixed draw, so every seed poses
// the same problem at the same cost. Row r has class r % 7, so any prefix
// or suffix that starts at a multiple of 7 lists the classes in the same
// order, and the CSV reader assigns them the same class ids.
udt::PointDataset SampleSegmentRows(int rows);

// Reorders the rows of `points` by `seed`, each row moving only among the
// positions of its own class (the r % 7 layout survives).
udt::PointDataset ShuffleWithinClasses(const udt::PointDataset& points,
                                       uint64_t seed);

// `scale` shrinks the tuple counts (smoke runs); 1.0 is the paper shape.
Table MakeSegmentTable(uint64_t seed, double scale);

udt::UncertaintyOptions PaperUncertainty();

// UDT-ES with entropy, the paper's fastest pruned search.
udt::TreeConfig PaperTreeConfig(int threads);

// Parses and injects a CSV document; aborts on malformed input (the
// benchmark generates its own, so failure is a bug).
udt::Dataset ParseAndInject(const std::string& csv);

// Timestamps of one job's stages (NowNs) plus what the layers reported.
struct JobTrace {
  int64_t start = 0;
  int64_t parsed = 0;
  int64_t injected = 0;
  int64_t trained = 0;
  int64_t compiled = 0;
  int64_t serialized = 0;
  int64_t published = 0;
  udt::BuildStats stats;
};

struct JobOutput {
  std::string serialized;  // the compiled model's container bytes
  uint64_t version = 0;    // registry version it was published as
  std::optional<udt::Model> model;  // kept for the accuracy oracle
};

// Runs one job at `threads` training threads and publishes the compiled
// model under `name`.
JobOutput RunPaperJob(const std::string& csv, int threads,
                      udt::serve::ModelRegistry* registry,
                      const std::string& name, JobTrace* trace);

}  // namespace perfbench

#endif  // UDT_PERFBENCH_PIPELINE_H_
