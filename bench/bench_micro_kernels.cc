// google-benchmark microbenchmarks of the kernels that dominate tree
// construction and serving: uncertainty injection, the retrain spill's
// udt-dataset v1 round trip, CDF queries, root and child scan
// construction, the split search's set-up (rank index and root lists),
// entropy scoring, interval bounding, working-set partitioning, uncertain
// classification, the thread scaling of the parallel construction engine,
// and the flat-tree traversal kernels.
//
// Machine-readable output: unless --benchmark_out is given, results are
// also written as google-benchmark JSON to BENCH_micro_kernels.json so
// kernel timings can be tracked as a trajectory across commits. The
// flat-traversal sweep measures best-of and median ns/tuple per pool,
// model kind and batch size; it runs only when --json=PATH is given or
// the --benchmark_filter selects BM_FlatTraversal, and it writes its
// bench_common JsonRows only to PATH (the committed sidecar is
// BENCH_micro_batch_kernels.json), never by default. CI diffs the sweep's
// rows against that sidecar with tools/check_bench_schema.py. While
// timing, the sweep re-checks that every kernel pass is byte-identical to
// the pointer tree on every tuple.

#include <benchmark/benchmark.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <regex>
#include <span>
#include <string>
#include <vector>

#include "api/compiled_forest.h"
#include "api/predict_session.h"
#include "api/trainer.h"
#include "bench_common.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/task_pool.h"
#include "common/timer.h"
#include "datagen/synthetic.h"
#include "datagen/uci_like.h"
#include "pdf/pdf_builder.h"
#include "split/attribute_scan.h"
#include "split/bounds.h"
#include "split/fractional_tuple.h"
#include "storage/dataset_file.h"
#include "storage/quantized_dataset.h"
#include "table/uncertainty_injector.h"
#include "tree/classify.h"
#include "tree/flat_tree.h"

namespace udt {
namespace {

Dataset BenchDataset(int tuples, int attributes, int s, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(attributes, {"A", "B", "C"}));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 3;
    for (int j = 0; j < attributes; ++j) {
      auto pdf = MakeGaussianErrorPdf(
          rng.Gaussian(static_cast<double>(t.label), 1.0), 1.0, s);
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

// Minor page faults taken so far by the whole process.
long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

void BM_PdfBuildGaussian(benchmark::State& state) {
  int s = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto pdf = MakeGaussianErrorPdf(1.0, 0.5, s);
    benchmark::DoNotOptimize(pdf);
  }
}
BENCHMARK(BM_PdfBuildGaussian)->Arg(20)->Arg(100)->Arg(400);

// CSV-free injection at Segment shape (2310 tuples x 19 attributes, s =
// 20, Gaussian over 10% of each domain) on Arg threads, as a train_csv job
// runs it: every pdf's samples are written, normalised and put in their
// tuple's block. minflt_per_iter counts the page faults the process takes
// per injection (fresh sample blocks touch fresh pages).
void BM_InjectUncertainty(benchmark::State& state) {
  static const PointDataset* const points = [] {
    auto spec = datagen::FindUciSpec("Segment");
    UDT_CHECK(spec.ok());
    datagen::SyntheticConfig config = datagen::MakeUciLikeConfig(*spec, 1.0);
    config.num_tuples = 2310;
    return new PointDataset(datagen::GenerateSynthetic(config));
  }();
  UncertaintyOptions options;
  options.width_fraction = 0.10;
  options.samples_per_pdf = 20;
  options.error_model = ErrorModel::kGaussian;
  const int threads = static_cast<int>(state.range(0));
  const long faults_before = MinorFaults();
  for (auto _ : state) {
    auto data = InjectUncertainty(*points, options, threads);
    UDT_CHECK(data.ok());
    benchmark::DoNotOptimize(data->tuples().data());
  }
  state.counters["minflt_per_iter"] = benchmark::Counter(
      static_cast<double>(MinorFaults() - faults_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_InjectUncertainty)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The adaptive loop's retrain spill at its Segment shape (768 tuples x 19
// attributes, s = 20, Gaussian over 10% of each domain; default
// QuantizationOptions: 64 bins, one 1024-tuple chunk), one layer per
// Arg: 0 the whole round trip (ConvertDatasetToFile, DatasetReader::Open,
// MaterializeDataset), 1 QuantizedDataset::FromDataset, 2
// ConvertDatasetToFile (quantize + emit; emit is the difference to 1), 3
// Open (header, grids, 8.6k dictionary rows), 4 MaterializeDataset of a
// freshly opened reader (the Open is not timed). The second Arg is the
// width the layers run column-parallel at: the threads of a task pool
// made before timing (1 runs inline, as a null pool does).
// minflt_per_iter counts the process's page faults per iteration.
void BM_SpillRoundTrip(benchmark::State& state) {
  static const Dataset* const split = [] {
    auto spec = datagen::FindUciSpec("Segment");
    UDT_CHECK(spec.ok());
    datagen::SyntheticConfig config = datagen::MakeUciLikeConfig(*spec, 1.0);
    config.num_tuples = 768;
    UncertaintyOptions options;
    options.width_fraction = 0.10;
    options.samples_per_pdf = 20;
    options.error_model = ErrorModel::kGaussian;
    auto data = InjectUncertainty(datagen::GenerateSynthetic(config), options);
    UDT_CHECK(data.ok());
    return new Dataset(std::move(data).value());
  }();
  static const char* const kLayers[] = {"round trip", "quantize", "convert",
                                        "open", "materialize"};
  const int layer = static_cast<int>(state.range(0));
  const int width = static_cast<int>(state.range(1));
  std::optional<TaskPool> pool_storage;
  if (width > 1) pool_storage.emplace(width - 1);
  TaskPool* pool = pool_storage ? &*pool_storage : nullptr;
  const std::string path = std::filesystem::temp_directory_path().string() +
                           StrFormat("/bench_spill_%d.udtds", getpid());
  UDT_CHECK(ConvertDatasetToFile(*split, path).ok());
  const long faults_before = MinorFaults();
  for (auto _ : state) {
    switch (layer) {
      case 1: {
        auto quantized = QuantizedDataset::FromDataset(*split, {}, pool);
        UDT_CHECK(quantized.ok());
        benchmark::DoNotOptimize(quantized->labels().data());
        break;
      }
      case 2:
        UDT_CHECK(ConvertDatasetToFile(*split, path, {}, pool).ok());
        break;
      case 3: {
        auto reader = DatasetReader::Open(path, pool);
        UDT_CHECK(reader.ok());
        benchmark::DoNotOptimize(reader->num_tuples());
        break;
      }
      case 4: {
        state.PauseTiming();
        auto reader = DatasetReader::Open(path, pool);
        UDT_CHECK(reader.ok());
        state.ResumeTiming();
        auto pooled = MaterializeDataset(&*reader, {}, pool);
        UDT_CHECK(pooled.ok());
        benchmark::DoNotOptimize(pooled->tuples().data());
        break;
      }
      default: {
        UDT_CHECK(ConvertDatasetToFile(*split, path, {}, pool).ok());
        auto reader = DatasetReader::Open(path, pool);
        UDT_CHECK(reader.ok());
        auto pooled = MaterializeDataset(&*reader, {}, pool);
        UDT_CHECK(pooled.ok());
        benchmark::DoNotOptimize(pooled->tuples().data());
        break;
      }
    }
  }
  state.counters["minflt_per_iter"] = benchmark::Counter(
      static_cast<double>(MinorFaults() - faults_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(StrFormat("%s, width %d", kLayers[layer], width));
  std::remove(path.c_str());
}
BENCHMARK(BM_SpillRoundTrip)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {1, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CdfQuery(benchmark::State& state) {
  auto pdf = MakeGaussianErrorPdf(0.0, 2.0, static_cast<int>(state.range(0)));
  UDT_CHECK(pdf.ok());
  double z = -0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pdf->CdfAtOrBelow(z));
    z = -z;
  }
}
BENCHMARK(BM_CdfQuery)->Arg(20)->Arg(100)->Arg(400);

// Compresses a root's list into its scan; the index and the root's lists
// are made once, outside the timed region.
void BM_ScanBuild(benchmark::State& state) {
  Dataset ds = BenchDataset(static_cast<int>(state.range(0)), 1, 20, 1);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet root = MakeRootNodeSet(ds, index, MakeRootWorkingSet(ds));
  for (auto _ : state) {
    AttributeScan scan = AttributeScan::Build(ds, index, root, 0, 3);
    benchmark::DoNotOptimize(scan.num_positions());
  }
}
BENCHMARK(BM_ScanBuild)->Arg(50)->Arg(200)->Arg(800);

// The scans below the root: one split of a two-attribute root (at x = 1.0
// on attribute 0), whose children's lists are filtered from the root's
// (PartitionNodeSet), and the two children's scans on attribute 1, which
// the split leaves alone.
void BM_ChildScanBuild(benchmark::State& state) {
  Dataset ds = BenchDataset(static_cast<int>(state.range(0)), 2, 20, 1);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet root = MakeRootNodeSet(ds, index, MakeRootWorkingSet(ds));
  for (auto _ : state) {
    state.PauseTiming();
    NodeSet parent = root;
    NodeSet left, right;
    state.ResumeTiming();
    PartitionNodeSet(ds, index, &parent, 0, 1.0, &left, &right);
    const int positions =
        AttributeScan::Build(ds, index, left, 1, 3).num_positions() +
        AttributeScan::Build(ds, index, right, 1, 3).num_positions();
    benchmark::DoNotOptimize(positions);
  }
}
BENCHMARK(BM_ChildScanBuild)->Arg(50)->Arg(200)->Arg(800)->ArgName("tuples");

// A build's split-search set-up at Segment shape (2310 tuples x 19
// attributes x 20 sample points) on Arg workers, as a build of that width
// runs it: the rank index, which writes the root's lists as it ranks, and
// the root NodeSet that takes them (TakeRootNodeSet). Read the wall-clock
// column: at 4 workers the CPU column is the calling thread's share.
// minflt_per_iter counts the page faults the process takes per set-up.
void BM_RootSetup(benchmark::State& state) {
  static const Dataset* const ds = new Dataset(BenchDataset(2310, 19, 20, 5));
  const int threads = static_cast<int>(state.range(0));
  std::optional<TaskPool> pool;
  if (threads > 1) pool.emplace(threads - 1);
  TaskPool* const workers = pool ? &*pool : nullptr;
  const long faults_before = MinorFaults();
  for (auto _ : state) {
    AttributeIndex index = AttributeIndex::Build(*ds, workers);
    const NodeSet root =
        TakeRootNodeSet(*ds, &index, MakeRootWorkingSet(*ds), workers);
    benchmark::DoNotOptimize(root.lists.data());
  }
  state.counters["minflt_per_iter"] = benchmark::Counter(
      static_cast<double>(MinorFaults() - faults_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RootSetup)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_EntropyScore(benchmark::State& state) {
  SplitScorer scorer(DispersionMeasure::kEntropy, {10.0, 20.0, 30.0});
  std::vector<double> left = {3.0, 8.0, 5.0};
  std::vector<double> right = {7.0, 12.0, 25.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.Score(left, right));
  }
}
BENCHMARK(BM_EntropyScore);

void BM_IntervalBound(benchmark::State& state) {
  IntervalMassStats stats;
  stats.nc = {3.0, 8.0, 5.0};
  stats.kc = {1.0, 2.0, 0.5};
  stats.mc = {7.0, 12.0, 25.0};
  SplitScorer scorer(DispersionMeasure::kEntropy, {11.0, 22.0, 30.5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScoreLowerBound(scorer, stats));
  }
}
BENCHMARK(BM_IntervalBound);

// A build's partition of a two-attribute root at x = 1.0 on attribute 0:
// the children's tuples, their lists cut on the split attribute and their
// lists filtered on the other. The root is copied outside the timed
// region, since the partition consumes its lists.
void BM_PartitionNodeSet(benchmark::State& state) {
  Dataset ds = BenchDataset(static_cast<int>(state.range(0)), 2, 20, 2);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet root = MakeRootNodeSet(ds, index, MakeRootWorkingSet(ds));
  for (auto _ : state) {
    state.PauseTiming();
    NodeSet parent = root;
    NodeSet left, right;
    state.ResumeTiming();
    PartitionNodeSet(ds, index, &parent, 0, 1.0, &left, &right);
    benchmark::DoNotOptimize(left.tuples.size() + right.tuples.size());
  }
}
BENCHMARK(BM_PartitionNodeSet)->Arg(100)->Arg(400);

void BM_ClassifyUncertainTuple(benchmark::State& state) {
  Dataset ds = BenchDataset(200, 4, 16, 3);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  auto model = Trainer(config).TrainUdt(ds);
  UDT_CHECK(model.ok());
  const UncertainTuple& tuple = ds.tuple(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->ClassifyDistribution(tuple));
  }
}
BENCHMARK(BM_ClassifyUncertainTuple);

void BM_PredictBatch(benchmark::State& state) {
  Dataset ds = BenchDataset(512, 4, 16, 3);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  auto model = Trainer(config).TrainUdt(ds);
  UDT_CHECK(model.ok());
  // A long-lived session, as a serving worker would hold: the flat
  // traversal runs out of reusable scratch, so the steady state is
  // allocation-free per tuple.
  PredictSession session(model->Compile());
  PredictOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  FlatBatchResult result;
  for (auto _ : state) {
    UDT_CHECK(session
                  .PredictBatchInto(
                      std::span<const UncertainTuple>(ds.tuples().data(),
                                                      ds.tuples().size()),
                      options, &result)
                  .ok());
    benchmark::DoNotOptimize(result.labels.data());
  }
  state.SetItemsProcessed(state.iterations() * ds.num_tuples());
}
BENCHMARK(BM_PredictBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_TreeBuild(benchmark::State& state) {
  Dataset ds = BenchDataset(static_cast<int>(state.range(0)), 4, 16, 4);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  for (auto _ : state) {
    BuildStats stats;
    auto tree = TreeBuilder(config).Build(ds, &stats);
    benchmark::DoNotOptimize(tree.ok());
  }
}
BENCHMARK(BM_TreeBuild)->Arg(50)->Arg(150)->Unit(benchmark::kMillisecond);

// Thread scaling of the construction engine. The Arg is
// TreeConfig::num_threads; the Arg(1) run must come first (registration
// order) because it provides the serial baseline the other runs report
// their "speedup" counter against. The tree is bitwise-identical at every
// arg; only the wall clock may move.
void BM_TreeBuildThreads(benchmark::State& state) {
  static Dataset ds = BenchDataset(300, 6, 14, 5);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  config.num_threads = static_cast<int>(state.range(0));
  double total_seconds = 0.0;
  for (auto _ : state) {
    WallTimer timer;
    BuildStats stats;
    auto tree = TreeBuilder(config).Build(ds, &stats);
    benchmark::DoNotOptimize(tree.ok());
    total_seconds += timer.ElapsedSeconds();
  }
  double mean_seconds =
      state.iterations() > 0
          ? total_seconds / static_cast<double>(state.iterations())
          : 0.0;
  static double serial_mean_seconds = 0.0;
  if (state.range(0) == 1) serial_mean_seconds = mean_seconds;
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  // Only report a speedup when the serial baseline ran in this process;
  // under --benchmark_filter that excludes Arg(1) the counter would
  // otherwise poison the JSON trajectory with zeros.
  if (mean_seconds > 0.0 && serial_mean_seconds > 0.0) {
    state.counters["speedup"] =
        benchmark::Counter(serial_mean_seconds / mean_seconds);
  }
}
BENCHMARK(BM_TreeBuildThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---------------------------- flat traversal ------------------------------

#ifndef UDT_BENCH_BUILD_TYPE
#define UDT_BENCH_BUILD_TYPE "unknown"
#endif

// One traversal fixture: a tuple pool plus a UDT-ES tree of each model
// kind, compiled. Fixtures live for the whole process so every benchmark
// and the JSON sweep measure the same models.
struct TraversalFixture {
  std::string name;
  Dataset pool;
  std::vector<Model> models;            // UDT, then AVG
  std::vector<CompiledForest> compiled;  // index-aligned with models
};

TraversalFixture MakeTraversalFixture(std::string name, const Dataset& train,
                                      Dataset pool) {
  TraversalFixture fixture{std::move(name), std::move(pool), {}, {}};
  for (ModelKind kind : {ModelKind::kUdt, ModelKind::kAveraging}) {
    TreeConfig config;
    config.algorithm = SplitAlgorithm::kUdtEs;
    config.num_threads = 0;
    auto model = Trainer(config).Train(TrainRequest::For(train, kind));
    UDT_CHECK(model.ok());
    fixture.compiled.push_back(model->Compile());
    fixture.models.push_back(*std::move(model));
  }
  return fixture;
}

// A Segment-shaped fixture, as the end-to-end benchmark serves it: 19
// attributes, 7 classes, Gaussian pdfs over 10% of the domain with s = 20;
// the tree trains on 2310 tuples and classifies 770 others.
TraversalFixture SegmentFixture() {
  auto spec = datagen::FindUciSpec("Segment");
  UDT_CHECK(spec.ok());
  datagen::SyntheticConfig config = datagen::MakeUciLikeConfig(*spec, 1.0);
  config.num_tuples = 2310 + 770;
  UncertaintyOptions uncertainty;
  uncertainty.width_fraction = 0.10;
  uncertainty.samples_per_pdf = 20;
  uncertainty.error_model = ErrorModel::kGaussian;
  auto data =
      InjectUncertainty(datagen::GenerateSynthetic(config), uncertainty);
  UDT_CHECK(data.ok());
  std::vector<int> fold_of(static_cast<size_t>(data->num_tuples()));
  for (size_t i = 0; i < fold_of.size(); ++i) fold_of[i] = i % 4 == 3;
  auto [train, pool] = data->SplitByFold(fold_of, 1);
  return MakeTraversalFixture("segment", train, std::move(pool));
}

// The two pools: 512 tuples x 4 numerical attributes, and Segment. They
// disagree about the UDT kernel's single-tuple cost, so both are swept.
const std::vector<TraversalFixture>& TraversalFixtures() {
  static const std::vector<TraversalFixture> fixtures = [] {
    std::vector<TraversalFixture> all;
    Dataset pool4 = BenchDataset(512, 4, 16, 6);
    all.push_back(MakeTraversalFixture("pool4", pool4, pool4));
    all.push_back(SegmentFixture());
    return all;
  }();
  return fixtures;
}

// One pass over the pool through the model kind's one flat kernel: the
// UDT kernel in blocks of `batch` tuples (batch 1 is the single-tuple
// path), or the AVG means walk tuple by tuple.
double ClassifyPoolOnce(const FlatTree& flat, bool averaging, size_t batch,
                        const std::vector<const UncertainTuple*>& tuples,
                        const std::vector<double*>& rows,
                        FlatTraversalScratch* scratch) {
  const size_t n = tuples.size();
  WallTimer timer;
  if (averaging) {
    for (size_t i = 0; i < n; ++i) {
      ClassifyFlatMeans(flat, *tuples[i], scratch, rows[i]);
    }
  } else {
    for (size_t begin = 0; begin < n; begin += batch) {
      const size_t count = std::min(batch, n - begin);
      ClassifyFlatBatch(flat, tuples.data() + begin, rows.data() + begin,
                        count, scratch);
    }
  }
  return timer.ElapsedSeconds();
}

// Row storage and the kernels' pointer arrays over one fixture's pool.
struct PoolRows {
  explicit PoolRows(const TraversalFixture& fixture) {
    const size_t n = static_cast<size_t>(fixture.pool.num_tuples());
    k = static_cast<size_t>(fixture.pool.num_classes());
    storage.resize(n * k);
    tuples.resize(n);
    rows.resize(n);
    for (size_t i = 0; i < n; ++i) {
      tuples[i] = &fixture.pool.tuple(static_cast<int>(i));
      rows[i] = storage.data() + i * k;
    }
  }
  size_t k = 0;
  std::vector<double> storage;
  std::vector<const UncertainTuple*> tuples;
  std::vector<double*> rows;
};

// ns/tuple of the flat kernels. Args: {pool, batch}, pool 0 = pool4,
// 1 = segment; batch 0 is the AVG means walk, batch >= 1 the UDT kernel in
// blocks of that many tuples (1 = the single-tuple path). Distributions
// are byte-identical to the pointer tree at every arg
// (tests/traversal_differential_test.cc); only the wall clock may move.
void BM_FlatTraversal(benchmark::State& state) {
  const TraversalFixture& fixture =
      TraversalFixtures()[static_cast<size_t>(state.range(0))];
  const size_t batch = static_cast<size_t>(state.range(1));
  const bool averaging = batch == 0;
  const FlatTree& flat = fixture.compiled[averaging ? 1 : 0].tree(0);
  PoolRows pool(fixture);
  FlatTraversalScratch scratch;
  double total_seconds = 0.0;
  for (auto _ : state) {
    total_seconds += ClassifyPoolOnce(flat, averaging, batch, pool.tuples,
                                      pool.rows, &scratch);
    benchmark::DoNotOptimize(pool.storage.data());
    benchmark::ClobberMemory();
  }
  const double tuples = static_cast<double>(state.iterations()) *
                        static_cast<double>(pool.tuples.size());
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
  state.counters["batch"] = benchmark::Counter(static_cast<double>(batch));
  if (tuples > 0.0) {
    state.counters["ns_per_tuple"] =
        benchmark::Counter(total_seconds * 1e9 / tuples);
  }
}
// BM_FlatTraversal's {pool, batch} grid.
const std::vector<std::vector<int64_t>> kFlatTraversalArgs = {
    {0, 1}, {0, 1, 7, 64, 256}};
BENCHMARK(BM_FlatTraversal)->ArgsProduct(kFlatTraversalArgs);

// Whether --benchmark_filter selects any BM_FlatTraversal row, under
// google-benchmark's rules: empty and "all" select every row, a leading
// '-' negates, and the rest is a POSIX extended regex searched in each
// row name. A filter that is no valid regex selects nothing here;
// google-benchmark reports it itself.
bool FilterSelectsFlatTraversal(std::string filter) {
  if (filter.empty() || filter == "all") return true;
  const bool negated = filter[0] == '-';
  if (negated) filter.erase(0, 1);
  std::regex pattern;
  try {
    pattern = std::regex(filter, std::regex::extended);
  } catch (const std::regex_error&) {
    return false;
  }
  for (int64_t pool : kFlatTraversalArgs[0]) {
    for (int64_t batch : kFlatTraversalArgs[1]) {
      const std::string name =
          StrFormat("BM_FlatTraversal/%lld/%lld", static_cast<long long>(pool),
                    static_cast<long long>(batch));
      if (std::regex_search(name, pattern) != negated) return true;
    }
  }
  return false;
}

// The sidecar sweep behind BENCH_micro_batch_kernels.json: per pool and
// model kind, classify the pool through the kind's one flat kernel and
// prove every row byte-identical to the pointer-tree oracle, then report
// best-of and median ns/tuple over the repetitions. UDT rows cover
// batches 1 / 7 / 64 / 256; the AVG means walk is per tuple. Runs outside
// google-benchmark so the row set is fixed (the schema checker keys on
// it) whichever BM_FlatTraversal rows --benchmark_filter selects.
void RunBatchKernelSweep(bench::JsonRows* sink) {
  constexpr int kRepetitions = 21;
  constexpr size_t kUdtBatches[] = {1, 7, 64, 256};
  constexpr size_t kAvgBatches[] = {1};

  std::printf("flat traversal sweep (%s build): %d repetitions, "
              "best-of / median\n",
              UDT_BENCH_BUILD_TYPE, kRepetitions);
  for (const TraversalFixture& fixture : TraversalFixtures()) {
    for (size_t m = 0; m < fixture.models.size(); ++m) {
      const Model& model = fixture.models[m];
      const bool averaging = model.kind() == ModelKind::kAveraging;
      const FlatTree& flat = fixture.compiled[m].tree(0);
      PoolRows pool(fixture);
      const size_t n = pool.tuples.size();
      std::vector<double> oracle;
      oracle.reserve(n * pool.k);
      for (const UncertainTuple* tuple : pool.tuples) {
        std::vector<double> row = model.ClassifyDistribution(*tuple);
        oracle.insert(oracle.end(), row.begin(), row.end());
      }
      FlatTraversalScratch scratch;
      for (size_t batch : averaging ? std::span<const size_t>(kAvgBatches)
                                    : std::span<const size_t>(kUdtBatches)) {
        std::vector<double> ns(kRepetitions);
        for (double& sample : ns) {
          sample = ClassifyPoolOnce(flat, averaging, batch, pool.tuples,
                                    pool.rows, &scratch) *
                   1e9 / static_cast<double>(n);
          // The serving guarantee, re-checked under this build's
          // optimiser: every row byte-identical to the pointer tree.
          UDT_CHECK(std::memcmp(pool.storage.data(), oracle.data(),
                                n * pool.k * sizeof(double)) == 0);
        }
        std::sort(ns.begin(), ns.end());
        const double best = std::max(ns.front(), 1e-3);
        const double median = ns[ns.size() / 2];
        const char* kernel = averaging ? "avg" : "udt";
        std::printf("  %-8s %-4s batch=%-4zu  best %8.1f ns/tuple   median "
                    "%8.1f ns/tuple\n",
                    fixture.name.c_str(), kernel, batch, best, median);
        sink->AddRow()
            .Str("pool", fixture.name)
            .Str("kernel", kernel)
            .Str("batch", std::to_string(batch))
            .Str("build_type", UDT_BENCH_BUILD_TYPE)
            .Int("tuples", static_cast<long long>(n))
            .Int("nodes", flat.num_nodes())
            .Num("ns_per_tuple_best", best)
            .Num("ns_per_tuple_median", median);
      }
    }
  }
}

}  // namespace
}  // namespace udt

int main(int argc, char** argv) {
  // Default to a JSON sidecar for trajectory tracking; any explicit
  // --benchmark_out wins. A --json=PATH flag belongs to the traversal
  // sweep (bench_common JsonRows) and is stripped before google-benchmark
  // parses the rest.
  udt::BenchOptions sweep_options;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      sweep_options.json_path = argv[i] + 7;
      continue;
    }
    args.push_back(argv[i]);
  }
  bool has_out = false;
  for (size_t i = 1; i < args.size(); ++i) {
    if (std::strncmp(args[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_kernels.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }

  // The traversal sweep runs first, and whole, so its sidecar row set
  // does not depend on which BM_FlatTraversal rows a filter selects.
  if (!sweep_options.json_path.empty() ||
      udt::FilterSelectsFlatTraversal(benchmark::GetBenchmarkFilter())) {
    udt::bench::JsonRows sweep_sink(sweep_options);
    udt::RunBatchKernelSweep(&sweep_sink);
    sweep_sink.Flush();
  }

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
