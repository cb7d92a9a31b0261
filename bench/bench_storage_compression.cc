// Accuracy vs compression for the storage tier: sweep the quantization
// bin budget against exact in-memory training and report what each bin
// count costs in held-out accuracy and buys in memory.
//
// Motivation (ROADMAP compact-representation item): every tuple stores
// O(attributes x s samples) of raw doubles, so dataset size is capped by
// RAM long before production scale. The storage tier (src/storage/)
// quantizes pdfs onto shared per-attribute grids with dictionary-pooled
// uint16 mass rows and streams them from a "udt-dataset v1" container in
// bounded-memory chunks. This harness measures the trade: for each bin
// count it converts the training set to a container file, materialises it
// back through the chunk-streamed DatasetReader (dictionary-shared pdf
// slices), trains a tree, and compares held-out accuracy against the
// exact baseline — alongside the exact decoded footprint, the resident
// quantized footprint (grids + dictionaries + id columns), the pooled
// materialised working set, the private-copy (unshared) cost the pool
// avoids, the container file size and the dictionary hit rate.
//
// Output: one table row per configuration, and with --json=PATH one JSON
// row (bench_common JsonRows; the committed sidecar is
// BENCH_storage_compression.json): the exact baseline plus one row per
// bin count.
//
// Run: build/bench/bench_storage_compression [--full] [--scale=F] [--s=N]
//      [--json=PATH]

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>

#include "api/trainer.h"
#include "bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"
#include "common/timer.h"
#include "datagen/synthetic.h"
#include "eval/metrics.h"
#include "storage/dataset_file.h"
#include "table/uncertainty_injector.h"

namespace udt {
namespace {

// An integer-domain synthetic corpus (PenDigits-style value vocabulary)
// with injected Gaussian error pdfs: the bounded vocabulary is what gives
// the dictionary pool repeated distributions to deduplicate, the same
// regime tests/storage_out_of_core_test.cc trains under.
std::pair<Dataset, Dataset> MakeCorpus(int tuples, int s) {
  datagen::SyntheticConfig config;
  config.name = "storage-bench";
  config.num_tuples = tuples;
  config.num_attributes = 4;
  config.num_classes = 3;
  config.integer_domain = true;
  config.integer_levels = 100;
  config.seed = 17;
  const PointDataset points = datagen::GenerateSynthetic(config);

  UncertaintyOptions inject;
  inject.width_fraction = 0.10;
  inject.samples_per_pdf = s;
  auto uncertain = InjectUncertainty(points, inject);
  UDT_CHECK(uncertain.ok());

  Rng rng(5);
  return uncertain->RandomSplit(0.25, &rng);
}

}  // namespace
}  // namespace udt

int main(int argc, char** argv) {
  udt::BenchOptions options = udt::ParseBenchOptions(argc, argv);
  udt::bench::PrintBanner(
      "Storage compression: quantized bin budget vs exact training",
      "storage-tier extension (not a paper figure); Section 8 'information "
      "explosion' is the footprint being compressed",
      options);
  udt::bench::JsonRows sink(options);

  const double scale = options.scale > 0.0 ? options.scale
                       : options.full      ? 1.0
                                           : 0.3;
  const int tuples = static_cast<int>(10000 * scale);
  const int s = udt::bench::SamplesFor(options, 48);

  auto [train, test] = udt::MakeCorpus(tuples, s);
  std::printf("train %d tuples, test %d tuples, s=%d per pdf\n\n",
              train.num_tuples(), test.num_tuples(), s);

  const udt::Trainer trainer;

  // Exact in-memory baseline: the accuracy every quantized row is
  // measured against, and the footprint every ratio divides.
  udt::WallTimer exact_timer;
  auto exact = trainer.TrainUdt(train);
  UDT_CHECK(exact.ok());
  const double exact_seconds = exact_timer.ElapsedSeconds();
  const double exact_accuracy = udt::EvaluateAccuracy(*exact, test);
  const udt::DatasetMemoryBreakdown exact_memory = train.MemoryBreakdown();

  std::printf("%-10s acc %.4f   resident %8.2f KiB   train %6.2fs\n", "exact",
              exact_accuracy, exact_memory.total_bytes / 1024.0,
              exact_seconds);
  sink.AddRow()
      .Str("dataset", "synthetic-int100")
      .Str("config", "exact")
      .Int("bins", 0)
      .Int("train_tuples", train.num_tuples())
      .Int("test_tuples", test.num_tuples())
      .Int("samples_per_pdf", s)
      .Num("accuracy", exact_accuracy)
      .Num("accuracy_delta", 0.0)
      .Int("source_bytes", static_cast<long long>(exact_memory.total_bytes))
      .Int("resident_bytes", static_cast<long long>(exact_memory.total_bytes))
      .Int("pooled_bytes", static_cast<long long>(exact_memory.total_bytes))
      .Int("unshared_bytes",
           static_cast<long long>(exact_memory.unshared_total_bytes))
      .Int("file_bytes", 0)
      .Int("dict_entries", 0)
      .Num("dict_hit_rate", 0.0)
      .Num("compression_ratio", 1.0)
      .Num("convert_seconds", 0.0)
      .Num("train_seconds", exact_seconds)
      .Str("build_type", UDT_BENCH_BUILD_TYPE);

  const std::string path =
      (std::filesystem::temp_directory_path() / "bench_storage.udtds")
          .string();

  for (int bins : {8, 16, 32, 64, 128}) {
    udt::QuantizationOptions qopt;
    qopt.bins = bins;
    qopt.chunk_tuples = 512;

    udt::WallTimer convert_timer;
    auto stats = udt::ConvertDatasetToFile(train, path, qopt);
    UDT_CHECK(stats.ok());
    const double convert_seconds = convert_timer.ElapsedSeconds();

    auto reader = udt::DatasetReader::Open(path);
    UDT_CHECK(reader.ok());
    auto pooled = udt::MaterializeDataset(&*reader);
    UDT_CHECK(pooled.ok());
    const udt::DatasetMemoryBreakdown pooled_memory =
        pooled->MemoryBreakdown();

    udt::WallTimer train_timer;
    auto model = trainer.TrainUdt(*pooled);
    UDT_CHECK(model.ok());
    const double train_seconds = train_timer.ElapsedSeconds();
    const double accuracy = udt::EvaluateAccuracy(*model, test);

    const double ratio = static_cast<double>(stats->source_decoded_bytes) /
                         static_cast<double>(pooled_memory.total_bytes);
    std::printf("bins=%-5d acc %.4f (%+.4f)   pooled %8.2f KiB (%6.1fx)   "
                "file %8.2f KiB   dict %6lld rows (hit %.3f)   train %6.2fs\n",
                bins, accuracy, accuracy - exact_accuracy,
                pooled_memory.total_bytes / 1024.0, ratio,
                stats->file_bytes / 1024.0,
                static_cast<long long>(stats->dictionary_entries),
                stats->dictionary_hit_rate, train_seconds);

    sink.AddRow()
        .Str("dataset", "synthetic-int100")
        .Str("config", "bins=" + std::to_string(bins))
        .Int("bins", bins)
        .Int("train_tuples", train.num_tuples())
        .Int("test_tuples", test.num_tuples())
        .Int("samples_per_pdf", s)
        .Num("accuracy", accuracy)
        .Num("accuracy_delta", accuracy - exact_accuracy)
        .Int("source_bytes",
             static_cast<long long>(stats->source_decoded_bytes))
        .Int("resident_bytes", static_cast<long long>(stats->quantized_bytes))
        .Int("pooled_bytes", static_cast<long long>(pooled_memory.total_bytes))
        .Int("unshared_bytes",
             static_cast<long long>(pooled_memory.unshared_total_bytes))
        .Int("file_bytes", static_cast<long long>(stats->file_bytes))
        .Int("dict_entries", stats->dictionary_entries)
        .Num("dict_hit_rate", stats->dictionary_hit_rate)
        .Num("compression_ratio", ratio)
        .Num("convert_seconds", convert_seconds)
        .Num("train_seconds", train_seconds)
        .Str("build_type", UDT_BENCH_BUILD_TYPE);
  }

  std::filesystem::remove(path);
  sink.Flush();
  return 0;
}
