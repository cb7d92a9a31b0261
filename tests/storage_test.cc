// The storage tier's unit surface: fixed-point quantization, grids,
// dictionaries, the quantized columnar dataset, the "udt-dataset v1"
// container (including hostile inputs), memory introspection, and the
// convergence of quantized training to exact training as the bin budget
// grows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/compiled_forest.h"
#include "api/trainer.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/task_pool.h"
#include "eval/metrics.h"
#include "pdf/pdf_builder.h"
#include "storage/dataset_file.h"
#include "storage/quantized_dataset.h"
#include "storage/quantized_pdf.h"
#include "table/dataset.h"

namespace udt {
namespace {

// A synthetic uncertain data set in the determinism suites' mould, with a
// bounded value vocabulary so dictionaries actually deduplicate: centres
// snap to a coarse lattice, and the pdf of a value is a pure function of
// the value (as table/uncertainty_injector.h produces).
Dataset LatticeDataset(int tuples, int attributes, int classes, int s,
                       uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < classes; ++c) names.push_back(StrFormat("c%d", c));
  Dataset ds(Schema::Numerical(attributes, names));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % classes;
    for (int j = 0; j < attributes; ++j) {
      const double raw = rng.Gaussian(static_cast<double>(t.label) * 1.2, 1.0);
      const double center = std::round(raw * 4.0) / 4.0;  // lattice of 1/4s
      auto pdf = MakeGaussianErrorPdf(center, 0.8, s);
      UDT_CHECK(pdf.ok());
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

Dataset MixedLatticeDataset(int tuples, uint64_t seed) {
  Rng rng(seed);
  auto schema = Schema::Create(
      {
          {"x", AttributeKind::kNumerical, 0},
          {"channel", AttributeKind::kCategorical, 4},
      },
      {"a", "b"});
  UDT_CHECK(schema.ok());
  Dataset ds(std::move(*schema));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 2;
    const double center =
        std::round(rng.Gaussian(t.label * 1.0, 0.8) * 4.0) / 4.0;
    auto px = MakeGaussianErrorPdf(center, 0.9, 10);
    UDT_CHECK(px.ok());
    t.values.push_back(UncertainValue::Numerical(std::move(*px)));
    std::vector<double> probs(4, 0.15);
    probs[static_cast<size_t>((i + t.label) % 4)] = 0.55;
    auto cat = CategoricalPdf::Create(std::move(probs));
    UDT_CHECK(cat.ok());
    t.values.push_back(UncertainValue::Categorical(std::move(*cat)));
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

// Quantizes `source` into a "udt-dataset v1" file and materialises it back:
// the pooled working set out-of-core training sees.
StatusOr<Dataset> PooledThroughFile(const Dataset& source,
                                    const QuantizationOptions& options = {}) {
  const std::string path = TempPath("storage_pooled.udtds");
  UDT_RETURN_NOT_OK(ConvertDatasetToFile(source, path, options).status());
  UDT_ASSIGN_OR_RETURN(DatasetReader reader, DatasetReader::Open(path));
  return MaterializeDataset(&reader);
}

// ------------------------------------------------------------ fixed point

TEST(FixedPointMassesTest, SumsToScaleExactly) {
  const std::vector<std::vector<double>> cases = {
      {1.0},
      {0.5, 0.5},
      {0.1, 0.2, 0.7},
      {1e-9, 1.0, 1e-9},
      {0.3333, 0.3333, 0.3334},
      {0.0, 0.25, 0.0, 0.75},
  };
  for (const auto& weights : cases) {
    const std::vector<uint16_t> fixed =
        FixedPointMasses(weights.data(), static_cast<int>(weights.size()));
    uint32_t sum = 0;
    for (uint16_t w : fixed) sum += w;
    EXPECT_EQ(sum, kQuantizedOne);
  }
}

TEST(FixedPointMassesTest, PreservesProportionsWithinOneUnit) {
  const std::vector<double> weights = {0.125, 0.25, 0.625};
  const std::vector<uint16_t> fixed = FixedPointMasses(weights.data(), 3);
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(fixed[i]),
                weights[i] * static_cast<double>(kQuantizedOne), 1.0);
  }
}

// ------------------------------------------------------------------ grids

TEST(AttributeGridTest, UniformCoversRangeInclusive) {
  const AttributeGrid grid = AttributeGrid::Uniform(-2.0, 6.0, 5);
  ASSERT_EQ(grid.num_points(), 5);
  EXPECT_DOUBLE_EQ(grid.point(0), -2.0);
  EXPECT_DOUBLE_EQ(grid.point(4), 6.0);
  EXPECT_DOUBLE_EQ(grid.point(2), 2.0);
}

TEST(AttributeGridTest, DegenerateRangeCollapsesToOnePoint) {
  const AttributeGrid grid = AttributeGrid::Uniform(3.0, 3.0, 64);
  EXPECT_EQ(grid.num_points(), 1);
  EXPECT_DOUBLE_EQ(grid.point(0), 3.0);
}

TEST(AttributeGridTest, NearestIndexTiesGoLow) {
  auto grid = AttributeGrid::FromSortedPoints({0.0, 1.0, 3.0});
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->NearestIndex(-5.0), 0);
  EXPECT_EQ(grid->NearestIndex(0.4), 0);
  EXPECT_EQ(grid->NearestIndex(0.5), 0);  // tie -> lower index
  EXPECT_EQ(grid->NearestIndex(0.6), 1);
  EXPECT_EQ(grid->NearestIndex(2.1), 2);
  EXPECT_EQ(grid->NearestIndex(99.0), 2);
}

TEST(AttributeGridTest, RejectsHostilePointSets) {
  EXPECT_FALSE(AttributeGrid::FromSortedPoints({}).ok());
  EXPECT_FALSE(AttributeGrid::FromSortedPoints({1.0, 1.0}).ok());
  EXPECT_FALSE(AttributeGrid::FromSortedPoints({2.0, 1.0}).ok());
  EXPECT_FALSE(
      AttributeGrid::FromSortedPoints(
          {0.0, std::numeric_limits<double>::quiet_NaN()})
          .ok());
}

// ------------------------------------------------------- quantize/decode

TEST(QuantizedPdfTest, ExactGridRoundTripsWithinRounding) {
  auto pdf = SampledPdf::Create({-1.0, 0.5, 2.0}, {0.25, 0.5, 0.25});
  ASSERT_TRUE(pdf.ok());
  auto grid = AttributeGrid::FromSortedPoints({-1.0, 0.5, 2.0});
  ASSERT_TRUE(grid.ok());
  const std::vector<uint16_t> masses = QuantizeToGrid(*pdf, *grid);
  auto decoded = DecodeNumerical(*grid, masses.data());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->num_points(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(decoded->point(i), pdf->point(i));
    EXPECT_NEAR(decoded->mass(i), pdf->mass(i), 2.0 / kQuantizedOne);
  }
}

TEST(QuantizedPdfTest, CoarseGridSnapsMassToNearestBin) {
  auto pdf = SampledPdf::Create({0.1, 0.9}, {0.5, 0.5});
  ASSERT_TRUE(pdf.ok());
  auto grid = AttributeGrid::FromSortedPoints({0.0, 1.0});
  ASSERT_TRUE(grid.ok());
  const std::vector<uint16_t> masses = QuantizeToGrid(*pdf, *grid);
  auto decoded = DecodeNumerical(*grid, masses.data());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->num_points(), 2);
  EXPECT_NEAR(decoded->mass(0), 0.5, 2.0 / kQuantizedOne);
}

TEST(QuantizedPdfTest, DecodeRejectsZeroMass) {
  auto grid = AttributeGrid::FromSortedPoints({0.0, 1.0});
  ASSERT_TRUE(grid.ok());
  const uint16_t zeros[2] = {0, 0};
  EXPECT_FALSE(DecodeNumerical(*grid, zeros).ok());
  EXPECT_FALSE(DecodeCategorical(zeros, 2).ok());
}

// ------------------------------------------------------------ dictionary

TEST(PdfDictionaryTest, InternDeduplicates) {
  PdfDictionary dict(3);
  const uint16_t a[3] = {100, 200, 65235};
  const uint16_t b[3] = {100, 200, 65235};
  const uint16_t c[3] = {200, 100, 65235};
  EXPECT_EQ(dict.Intern(a), 0u);
  EXPECT_EQ(dict.Intern(b), 0u);
  EXPECT_EQ(dict.Intern(c), 1u);
  EXPECT_EQ(dict.num_entries(), 2u);
  EXPECT_EQ(dict.entry(1)[0], 200);
}

TEST(PdfDictionaryTest, DecodedCacheSharesInstances) {
  auto grid = AttributeGrid::FromSortedPoints({0.0, 1.0});
  ASSERT_TRUE(grid.ok());
  PdfDictionary dict(2);
  const uint16_t row[2] = {30000, 35535};
  dict.Intern(row);
  DecodedPdfCache cache;
  auto first = cache.Get(*grid, dict, 0);
  auto second = cache.Get(*grid, dict, 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->slice(), second->slice());  // same slice, not a copy
  EXPECT_FALSE(cache.Get(*grid, dict, 7).ok());  // id out of range
}

// ------------------------------------------------- memory introspection

TEST(DatasetMemoryTest, BreakdownCountsSharedInstancesOnce) {
  Dataset ds(Schema::Numerical(1, {"a", "b"}));
  auto pdf = SampledPdf::Create({0.0, 1.0, 2.0}, {0.25, 0.5, 0.25});
  ASSERT_TRUE(pdf.ok());
  const SampledPdf shared = *pdf;
  for (int i = 0; i < 4; ++i) {
    UncertainTuple t;
    t.label = i % 2;
    t.values.push_back(UncertainValue::Numerical(shared));
    ASSERT_TRUE(ds.AddTuple(std::move(t)).ok());
  }
  const DatasetMemoryBreakdown breakdown = ds.MemoryBreakdown();
  EXPECT_EQ(breakdown.num_tuples, 4);
  EXPECT_EQ(breakdown.num_values, 4);
  EXPECT_EQ(breakdown.unique_pdfs, 1);
  EXPECT_EQ(breakdown.pdf_bytes, shared.MemoryUsageBytes());
  EXPECT_EQ(breakdown.unshared_pdf_bytes, 4 * shared.MemoryUsageBytes());
  EXPECT_EQ(breakdown.total_bytes, breakdown.tuple_bytes +
                                       breakdown.pdf_bytes +
                                       breakdown.categorical_bytes);
  EXPECT_EQ(breakdown.unshared_total_bytes,
            breakdown.tuple_bytes + breakdown.unshared_pdf_bytes +
                breakdown.categorical_bytes);
  EXPECT_LT(breakdown.total_bytes, breakdown.unshared_total_bytes);
  EXPECT_EQ(ds.MemoryUsageBytes(), breakdown.total_bytes);
  EXPECT_DOUBLE_EQ(breakdown.bytes_per_tuple,
                   static_cast<double>(breakdown.total_bytes) / 4.0);
}

TEST(DatasetMemoryTest, PrivateCopiesReportNoSharing) {
  Dataset ds(Schema::Numerical(1, {"a", "b"}));
  for (int i = 0; i < 3; ++i) {
    UncertainTuple t;
    t.label = 0;
    auto pdf = SampledPdf::Create({0.0, 1.0}, {0.5, 0.5});
    ASSERT_TRUE(pdf.ok());
    t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    ASSERT_TRUE(ds.AddTuple(std::move(t)).ok());
  }
  const DatasetMemoryBreakdown breakdown = ds.MemoryBreakdown();
  EXPECT_EQ(breakdown.unique_pdfs, 3);
  EXPECT_EQ(breakdown.total_bytes, breakdown.unshared_total_bytes);
}

// --------------------------------------------------- quantized data sets

TEST(QuantizedDatasetTest, DictionaryPoolsRepeatedDistributions) {
  const Dataset source = LatticeDataset(400, 3, 2, 12, 7);
  auto quantized = QuantizedDataset::FromDataset(source);
  ASSERT_TRUE(quantized.ok());
  EXPECT_EQ(quantized->num_tuples(), 400);
  // The lattice bounds the distinct centres, so entries << tuples * attrs.
  EXPECT_LT(quantized->dictionary_entries(), 400);
  EXPECT_GT(quantized->dictionary_hit_rate(), 0.5);
  EXPECT_LT(quantized->MemoryUsageBytes(),
            source.MemoryBreakdown().unshared_total_bytes);
}

TEST(QuantizedDatasetTest, MaterializedTuplesShareDecodedPdfs) {
  const Dataset source = LatticeDataset(300, 2, 2, 10, 11);
  auto quantized = QuantizedDataset::FromDataset(source);
  ASSERT_TRUE(quantized.ok());
  auto pooled = PooledThroughFile(source);
  ASSERT_TRUE(pooled.ok());
  ASSERT_EQ(pooled->num_tuples(), source.num_tuples());
  const DatasetMemoryBreakdown breakdown = pooled->MemoryBreakdown();
  // Every tuple value referencing the same dictionary entry shares one
  // decoded slice.
  EXPECT_EQ(breakdown.unique_pdfs, quantized->dictionary_entries());
  EXPECT_LT(breakdown.total_bytes, breakdown.unshared_total_bytes / 2);
  // Labels survive the round trip.
  for (int i = 0; i < source.num_tuples(); ++i) {
    EXPECT_EQ(pooled->tuple(i).label, source.tuple(i).label);
  }
}

TEST(QuantizedDatasetTest, HandlesCategoricalColumns) {
  const Dataset source = MixedLatticeDataset(200, 13);
  auto pooled = PooledThroughFile(source);
  ASSERT_TRUE(pooled.ok());
  ASSERT_EQ(pooled->num_tuples(), 200);
  // Category distributions round-trip within fixed-point rounding.
  const CategoricalPdf& original = source.tuple(5).values[1].categorical();
  const CategoricalPdf& decoded = pooled->tuple(5).values[1].categorical();
  for (int c = 0; c < 4; ++c) {
    EXPECT_NEAR(decoded.probability(c), original.probability(c),
                4.0 / kQuantizedOne);
  }
}

// ----------------------------------------------------- convergence (ISSUE)

// As the bin budget grows past the fixture's distinct-point count the grid
// becomes exact and quantized training converges to the exact split
// choice: same root attribute, (near-)same root threshold, matching
// training accuracy.
TEST(QuantizationConvergenceTest, LargeBinBudgetMatchesExactSplit) {
  const Dataset train = LatticeDataset(500, 3, 2, 12, 42);
  Trainer trainer;
  auto exact = trainer.TrainUdt(train);
  ASSERT_TRUE(exact.ok());

  QuantizationOptions options;
  options.bins = 2048;  // >> distinct sample points of the lattice fixture
  auto pooled = PooledThroughFile(train, options);
  ASSERT_TRUE(pooled.ok());
  auto converged = trainer.TrainUdt(*pooled);
  ASSERT_TRUE(converged.ok());

  const TreeNode& exact_root = exact->tree().root();
  const TreeNode& converged_root = converged->tree().root();
  ASSERT_FALSE(exact_root.is_leaf());
  EXPECT_EQ(converged_root.attribute, exact_root.attribute);
  EXPECT_NEAR(converged_root.split_point, exact_root.split_point, 0.05);
  EXPECT_NEAR(EvaluateAccuracy(*converged, train),
              EvaluateAccuracy(*exact, train), 0.01);

  // A coarse grid is lossy (it may still classify well, but the decoded
  // data genuinely differs): at 4 bins the per-attribute grids collapse.
  QuantizationOptions coarse;
  coarse.bins = 4;
  auto coarse_q = QuantizedDataset::FromDataset(train, coarse);
  ASSERT_TRUE(coarse_q.ok());
  EXPECT_LE(coarse_q->grid(0).num_points(), 4);
}

// --------------------------------------------------- "udt-dataset v1" io

class DatasetFileTest : public testing::Test {
 protected:
  void SetUp() override {
    source_ = LatticeDataset(120, 2, 2, 8, 5);
    path_ = TempPath("storage_roundtrip.udtds");
    QuantizationOptions options;
    options.bins = 1024;  // above the fixture's distinct-point count
    options.chunk_tuples = 32;
    auto stats = ConvertDatasetToFile(source_, path_, options);
    ASSERT_TRUE(stats.ok()) << stats.status().message();
    stats_ = *stats;
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Applies `mutate` to the file's lines and writes the result back.
  void MutateFile(
      const std::function<void(std::vector<std::string>*)>& mutate) {
    std::ifstream in(path_);
    ASSERT_TRUE(in.good());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    in.close();
    mutate(&lines);
    std::ofstream out(path_);
    for (const std::string& l : lines) out << l << "\n";
  }

  Dataset source_{Schema::Numerical(1, {"a", "b"})};
  std::string path_;
  DatasetFileStats stats_;
};

TEST_F(DatasetFileTest, RoundTripsThroughReader) {
  auto reader = DatasetReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  EXPECT_EQ(reader->num_tuples(), 120);
  EXPECT_EQ(reader->num_chunks(), 4);  // 120 tuples / 32 per chunk
  EXPECT_EQ(reader->source_decoded_bytes(), stats_.source_decoded_bytes);
  EXPECT_GT(stats_.file_bytes, 0u);

  auto pooled = MaterializeDataset(&*reader);
  ASSERT_TRUE(pooled.ok()) << pooled.status().message();
  ASSERT_EQ(pooled->num_tuples(), 120);
  for (int i = 0; i < 120; ++i) {
    EXPECT_EQ(pooled->tuple(i).label, source_.tuple(i).label);
  }
  // The lattice fits the raised bin budget, so the grid is exact and the
  // decoded pdf matches the original up to fixed-point rounding — sample
  // points survive verbatim except tail points whose mass rounds to zero.
  const SampledPdf& original = source_.tuple(3).values[0].pdf();
  const SampledPdf& decoded = pooled->tuple(3).values[0].pdf();
  EXPECT_LE(decoded.num_points(), original.num_points());
  EXPECT_NEAR(decoded.Mean(), original.Mean(), 1e-3);
  for (int p = 0; p < original.num_points(); ++p) {
    const double z = original.point(p);
    EXPECT_NEAR(decoded.CdfAtOrBelow(z), original.CdfAtOrBelow(z),
                16.0 / kQuantizedOne);
  }
}

TEST(DatasetFileWriterTest, RejectsChunkSizeTheReaderWouldRefuse) {
  // The reader caps chunk_tuples at 2^20; one more used to write a file
  // that every Open then refused. The writer must refuse it up front,
  // before it creates the file.
  const Dataset source = LatticeDataset(10, 1, 2, 4, 3);
  const std::string path = TempPath("storage_oversized_chunk.udtds");
  std::remove(path.c_str());
  QuantizationOptions options;
  options.chunk_tuples = (1 << 20) + 1;
  auto stats = ConvertDatasetToFile(source, path, options);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::ifstream(path).good()) << "no file may be written";

  // At the cap itself the file is written and reads back.
  options.chunk_tuples = 1 << 20;
  ASSERT_TRUE(ConvertDatasetToFile(source, path, options).ok());
  auto reader = DatasetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  EXPECT_EQ(reader->num_chunks(), 1);
  std::remove(path.c_str());
}

TEST_F(DatasetFileTest, ChunksMustStreamInOrder) {
  auto reader = DatasetReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  Dataset out(reader->schema());
  const Status status = reader->AppendChunk(2, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("ascending order"), std::string::npos);
}

TEST_F(DatasetFileTest, RejectsBadMagic) {
  MutateFile([](std::vector<std::string>* lines) {
    (*lines)[0] = "udt-dataset v999";
  });
  auto reader = DatasetReader::Open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("bad magic"), std::string::npos);
  EXPECT_NE(reader.status().message().find("line 1"), std::string::npos);
}

TEST_F(DatasetFileTest, RejectsTruncatedContainer) {
  MutateFile([](std::vector<std::string>* lines) {
    lines->resize(lines->size() / 2);
  });
  auto reader = DatasetReader::Open(path_);
  if (reader.ok()) {
    // Truncation fell inside the chunk section; it surfaces on streaming.
    auto pooled = MaterializeDataset(&*reader);
    ASSERT_FALSE(pooled.ok());
    EXPECT_NE(pooled.status().message().find("truncated"), std::string::npos);
  } else {
    EXPECT_NE(reader.status().message().find("truncated"), std::string::npos);
  }
}

TEST_F(DatasetFileTest, RejectsNaNGridPoints) {
  MutateFile([](std::vector<std::string>* lines) {
    for (std::string& line : *lines) {
      if (line.rfind("g ", 0) == 0) {
        const size_t second_token = line.find(' ', 2);
        line = "g nan" + line.substr(second_token);
        break;
      }
    }
  });
  auto reader = DatasetReader::Open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("not finite"), std::string::npos);
  EXPECT_NE(reader.status().message().find("line "), std::string::npos);
}

TEST_F(DatasetFileTest, RejectsZeroMassDictionaryEntry) {
  MutateFile([](std::vector<std::string>* lines) {
    for (std::string& line : *lines) {
      if (line.rfind("d ", 0) == 0) {
        const size_t width = SplitString(line, ' ').size() - 1;
        line = "d";
        for (size_t i = 0; i < width; ++i) line += " 0";
        break;
      }
    }
  });
  auto reader = DatasetReader::Open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("carries no mass"),
            std::string::npos);
}

TEST_F(DatasetFileTest, RejectsOutOfRangeDictionaryIds) {
  MutateFile([](std::vector<std::string>* lines) {
    for (std::string& line : *lines) {
      if (line.rfind("c 0 ", 0) == 0) {
        const size_t last_space = line.rfind(' ');
        line = line.substr(0, last_space) + " 4000000";
        break;
      }
    }
  });
  auto reader = DatasetReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  auto pooled = MaterializeDataset(&*reader);
  ASSERT_FALSE(pooled.ok());
  EXPECT_NE(pooled.status().message().find("dictionary id out of range"),
            std::string::npos);
}

TEST_F(DatasetFileTest, RejectsTrailingTokensOnChunkHeader) {
  int header_line = 0;
  MutateFile([&header_line](std::vector<std::string>* lines) {
    for (size_t i = 0; i < lines->size(); ++i) {
      if ((*lines)[i] == "chunk 0 tuples 32") {
        (*lines)[i] += " junk";
        header_line = static_cast<int>(i) + 1;
        break;
      }
    }
  });
  ASSERT_GT(header_line, 0);
  auto reader = DatasetReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  auto pooled = MaterializeDataset(&*reader);
  ASSERT_FALSE(pooled.ok());
  const std::string want =
      "line " + std::to_string(header_line) + ": bad chunk header";
  EXPECT_NE(pooled.status().message().find(want), std::string::npos)
      << pooled.status().message();
}

TEST_F(DatasetFileTest, RejectsLabelOutOfClassRange) {
  MutateFile([](std::vector<std::string>* lines) {
    for (std::string& line : *lines) {
      if (line.rfind("l ", 0) == 0) {
        line[2] = '9';
        break;
      }
    }
  });
  auto reader = DatasetReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  auto pooled = MaterializeDataset(&*reader);
  ASSERT_FALSE(pooled.ok());
  EXPECT_NE(pooled.status().message().find("bad label"), std::string::npos);
}

// ------------------------------------- fixed point against the reference

// The sort-based largest-remainder routine FixedPointMasses replaced: sort
// every (remainder, index) pair, largest first and ties to the lower
// index, and hand the leftover units out round-robin in that order.
std::vector<uint16_t> ReferenceFixedPointMasses(const double* weights,
                                                int count) {
  double total = 0.0;
  for (int i = 0; i < count; ++i) total += weights[i];
  std::vector<uint16_t> fixed(static_cast<size_t>(count), 0);
  std::vector<std::pair<double, int>> remainders;
  int64_t assigned = 0;
  for (int i = 0; i < count; ++i) {
    const double exact =
        weights[i] / total * static_cast<double>(kQuantizedOne);
    const double floored = std::floor(exact);
    const uint32_t units = static_cast<uint32_t>(
        std::min(floored, static_cast<double>(kQuantizedOne)));
    fixed[static_cast<size_t>(i)] = static_cast<uint16_t>(units);
    assigned += units;
    remainders.emplace_back(exact - floored, i);
  }
  int64_t leftover = static_cast<int64_t>(kQuantizedOne) - assigned;
  std::sort(remainders.begin(), remainders.end(),
            [](const std::pair<double, int>& a,
               const std::pair<double, int>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (size_t k = 0; leftover > 0; k = (k + 1) % remainders.size()) {
    ++fixed[static_cast<size_t>(remainders[k].second)];
    --leftover;
  }
  while (leftover < 0) {
    size_t argmax = 0;
    for (size_t i = 1; i < fixed.size(); ++i) {
      if (fixed[i] > fixed[argmax]) argmax = i;
    }
    --fixed[argmax];
    ++leftover;
  }
  return fixed;
}

// One seeded weight vector of `width` entries in one of the shapes the
// rounding has to get right.
std::vector<double> ReferenceCase(Rng* rng, int width, int shape) {
  std::vector<double> weights(static_cast<size_t>(width), 0.0);
  const auto bin = [&] { return static_cast<size_t>(rng->UniformInt(width)); };
  if (shape == 0) {  // dense positive weights
    for (double& w : weights) w = rng->Uniform(1e-12, 1.0);
  } else if (shape == 1) {  // a pdf's few samples, most bins zero
    for (int k = 0; k < 20; ++k) weights[bin()] += rng->Uniform(1e-12, 1.0);
  } else if (shape == 2) {  // whole units: scaled weights land on integers
    int units = static_cast<int>(kQuantizedOne);
    for (int k = 0; k < 24; ++k) {
      const int take = rng->UniformIntRange(0, units);
      weights[bin()] += static_cast<double>(take);
      units -= take;
    }
    weights[bin()] += static_cast<double>(units);
  } else if (shape == 3) {  // tied remainders: two values repeated
    const double tie = rng->Uniform(0.1, 1.0);
    const double other = rng->Uniform(0.1, 1.0);
    for (double& w : weights) {
      const int pick = rng->UniformInt(3);
      w = pick == 0 ? tie : (pick == 1 ? other : 0.0);
    }
    weights[bin()] = tie;
  } else if (shape == 4) {  // all equal
    for (double& w : weights) w = 0.5;
  } else if (shape == 5) {  // one non-zero bin
    weights[bin()] = rng->Uniform(1e-6, 1e6);
  } else {  // wide dynamic range: tiny masses beside large ones
    for (double& w : weights) {
      if (rng->Bernoulli(0.5)) {
        w = std::ldexp(rng->Uniform(0.5, 1.0), rng->UniformIntRange(-60, 4));
      }
    }
    weights[bin()] = 1.0;
  }
  return weights;
}

// True if some positive weight scales to a whole number of units, i.e.
// leaves a zero remainder.
bool HasZeroRemainder(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  for (double w : weights) {
    const double exact = w / total * static_cast<double>(kQuantizedOne);
    if (w > 0.0 && exact == std::floor(exact)) return true;
  }
  return false;
}

TEST(FixedPointMassesTest, MatchesSortedReferenceBitForBit) {
  Rng rng(20231);
  const int widths[] = {1, 2, 3, 19, 64, 65, 4096};
  int cases = 0;
  int exact_cases = 0;  // vectors with a positive weight on a whole unit
  for (int round = 0; round < 260; ++round) {
    for (int width : widths) {
      for (int shape = 0; shape < 7; ++shape) {
        if (width == 4096 && round % 8 != 0) continue;
        const std::vector<double> weights = ReferenceCase(&rng, width, shape);
        const std::vector<uint16_t> want =
            ReferenceFixedPointMasses(weights.data(), width);
        ASSERT_EQ(FixedPointMasses(weights.data(), width), want)
            << "width " << width << " shape " << shape << " round " << round;
        if (HasZeroRemainder(weights)) ++exact_cases;
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 10000);
  EXPECT_GT(exact_cases, 1000);

  // A total that overflows to infinity floors every weight to 0 units, so
  // the leftover (the whole scale) exceeds the count of positive
  // remainders (none) and the round-robin wraps over every bin. For
  // finite totals the floors never sum above the scale (the summation
  // error is far below one unit), so the shave path after the hand-out
  // is a guard that no finite input reaches.
  for (int width : {2, 64, 4096}) {
    const std::vector<double> huge(static_cast<size_t>(width),
                                   std::numeric_limits<double>::max());
    EXPECT_EQ(FixedPointMasses(huge.data(), width),
              ReferenceFixedPointMasses(huge.data(), width))
        << "width " << width;
  }
}

// QuantizeToGrid walks the grid once per pdf instead of searching it per
// sample point; each point must still land in NearestIndex's bin (ties
// low), and the row must match the sorted reference bit for bit.
TEST(QuantizeToGridTest, MatchesPerPointSearchReference) {
  Rng rng(777);
  int cases = 0;
  for (int round = 0; round < 400; ++round) {
    // Uniform grids (the dense-attribute case) and irregular exact ones.
    const int bins = 1 + rng.UniformInt(80);
    AttributeGrid grid;
    if (round % 2 == 0) {
      grid = AttributeGrid::Uniform(-3.0, 5.0, bins);
    } else {
      std::vector<double> points;
      double x = rng.Uniform(-4.0, 0.0);
      for (int g = 0; g < bins; ++g) {
        points.push_back(x);
        x += 0.125 * (1 + rng.UniformInt(8));  // exact binary steps
      }
      auto exact = AttributeGrid::FromSortedPoints(std::move(points));
      ASSERT_TRUE(exact.ok());
      grid = std::move(exact).value();
    }
    // Sample points: some beyond either end, some exactly on grid points
    // or on midpoints between neighbours (ties).
    std::vector<double> xs;
    std::vector<double> masses;
    const int s = 1 + rng.UniformInt(24);
    for (int p = 0; p < s; ++p) {
      const int g = rng.UniformInt(grid.num_points());
      double x = rng.Uniform(grid.point(0) - 1.0,
                             grid.point(grid.num_points() - 1) + 1.0);
      if (p % 3 == 0) x = grid.point(g);
      if (p % 3 == 1 && g + 1 < grid.num_points()) {
        x = 0.5 * (grid.point(g) + grid.point(g + 1));
      }
      xs.push_back(x);
      masses.push_back(rng.Uniform(0.01, 1.0));
    }
    auto pdf = SampledPdf::Create(xs, masses);
    ASSERT_TRUE(pdf.ok());
    std::vector<double> weights(static_cast<size_t>(grid.num_points()), 0.0);
    for (int p = 0; p < pdf->num_points(); ++p) {
      weights[static_cast<size_t>(grid.NearestIndex(pdf->point(p)))] +=
          pdf->mass(p);
    }
    const std::vector<uint16_t> want =
        ReferenceFixedPointMasses(weights.data(), grid.num_points());
    QuantizeScratch scratch;
    const uint16_t* got = QuantizeToGrid(*pdf, grid, &scratch);
    ASSERT_EQ(std::vector<uint16_t>(got, got + grid.num_points()), want)
        << "round " << round;
    ASSERT_EQ(QuantizeToGrid(*pdf, grid), want) << "round " << round;
    ++cases;
  }
  EXPECT_EQ(cases, 400);
}

// ------------------------------------------ reader parity, hostile tokens

// A hand-made two-column container (numerical grid of 2 points, one
// 3-category column, 6 dictionary entries each, 7 classes, one chunk of
// five tuples). `rewrites` maps the name of a line to the text a case
// puts there instead.
std::string ParityContainer(
    const std::vector<std::pair<std::string, std::string>>& rewrites,
    bool crlf) {
  std::vector<std::pair<std::string, std::string>> lines = {
      {"", "udt-dataset v1"},
      {"quantized", "quantized bins 64 chunk 8"},
      {"", "tuples 5"},
      {"", "source bytes 1000"},
      {"", "classes 7"},
  };
  for (int c = 0; c < 7; ++c) lines.push_back({"", StrFormat("c%d", c)});
  lines.push_back({"", "attributes 2"});
  lines.push_back({"", "attr num 0 x"});
  lines.push_back({"", "attr cat 3 k"});
  lines.push_back({"", "columns 2"});
  lines.push_back({"", "column 0 num grid 2 dict 6"});
  lines.push_back({"grid", "g -0x1p+0 0x1.8p+1"});
  lines.push_back({"dict", "d 65535 0"});
  for (int d = 1; d < 6; ++d) {
    lines.push_back({"", StrFormat("d %d %d", d, 65535 - d)});
  }
  lines.push_back({"column 1", "column 1 cat width 3 dict 6"});
  lines.push_back({"dict 1", "d 0 1 65534"});
  for (int d = 1; d < 6; ++d) {
    lines.push_back({"", StrFormat("d %d 1 %d", d, 65534 - d)});
  }
  lines.push_back({"chunks", "chunks 1"});
  lines.push_back({"chunk", "chunk 0 tuples 5"});
  lines.push_back({"label", "l 4 1 2 0 6"});
  lines.push_back({"id", "c 0 3 1 2 0 0"});
  lines.push_back({"", "c 1 0 5 2 1 1"});
  lines.push_back({"", "end"});
  std::string text;
  for (const auto& [kind, content] : lines) {
    const auto rewrite =
        std::find_if(rewrites.begin(), rewrites.end(),
                     [&kind](const auto& r) { return r.first == kind; });
    const bool rewritten = !kind.empty() && rewrite != rewrites.end();
    text += rewritten ? rewrite->second : content;
    text += rewritten && crlf ? "\r\n" : "\n";
  }
  return text;
}

// The container with the line named `target` replaced by `line`.
std::string ParityContainer(const std::string& target, const std::string& line,
                            bool crlf) {
  return ParityContainer({{target, line}}, crlf);
}

// A pool `width` threads wide, the caller included; null at width 1.
std::unique_ptr<TaskPool> PoolOfWidth(int width) {
  return width > 1 ? std::make_unique<TaskPool>(width - 1) : nullptr;
}

// The reader's widths under test: inline, and one thread per hardware
// thread (at least 2, so the pool path always runs).
std::vector<int> ReaderWidths() {
  return {1, std::max(2, TaskPool::EffectiveConcurrency(0))};
}

// Open + materialise; "OK" or the first failure's message.
std::string ReadOutcome(const std::string& text, TaskPool* pool = nullptr) {
  const std::string path = TempPath("storage_parity.udtds");
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  std::string outcome = "OK";
  auto reader = DatasetReader::Open(path, pool);
  if (!reader.ok()) {
    outcome = reader.status().message();
  } else {
    auto pooled = MaterializeDataset(&*reader, {}, pool);
    if (!pooled.ok()) outcome = pooled.status().message();
  }
  std::remove(path.c_str());
  return outcome;
}

TEST(DatasetReaderParityTest, HostileTokensKeepTheirVerdictAndMessage) {
  // Line templates: `{}` is replaced by the token under test.
  const std::vector<std::pair<std::string, std::string>> targets = {
      {"quantized", "quantized bins {} chunk 8"},
      {"dict", "d {} 7"},
      {"chunk", "chunk 0 tuples {}"},
      {"label", "l {} 1 2 0 6"},
      {"id", "c 0 {} 1 2 0 0"},
  };
  struct Input {
    const char* name;
    std::string token;
    std::string suffix;  // appended to the line after substitution
    bool crlf;
  };
  const std::vector<Input> inputs = {
      {"plus", "+5", "", false},
      {"minus zero", "-0", "", false},
      {"leading zeros", "0005", "", false},
      {"u16 overflow", "65536", "", false},
      {"u32 overflow", "4294967296", "", false},
      {"double space", "", "", false},
      {"trailing space", "5", " ", false},
      {"leading tab", "\t5", "", false},
      {"tab separator", "5\t1", "", false},
      {"trailing junk", "5x", "", false},
      {"crlf", "5", "", true},
  };
  // What the reader answered before its tokens became views: "OK" or the
  // message after the "udt-dataset: " prefix, one row per input above.
  const std::vector<std::string> want = {
      // quantized
      "line 2: bad quantized line: quantized bins +5 chunk 8",
      "line 2: bad quantized line: quantized bins -0 chunk 8",
      "OK",
      "line 2: bad quantized line: quantized bins 65536 chunk 8",
      "line 2: bad quantized line: quantized bins 4294967296 chunk 8",
      "line 2: bad quantized line: quantized bins  chunk 8",
      "line 2: expected quantized line",
      "OK",
      "line 2: bad quantized line: quantized bins 5\t1 chunk 8",
      "line 2: bad quantized line: quantized bins 5x chunk 8",
      "OK",
      // dict
      "OK",
      "OK",
      "OK",
      "line 19: bad dictionary mass: 65536",
      "line 19: bad dictionary mass: 4294967296",
      "line 19: bad dictionary mass: ",
      "line 19: bad dictionary entry line",
      "OK",
      "line 19: bad dictionary mass: 5\t1",
      "line 19: bad dictionary mass: 5x",
      "OK",
      // chunk
      "line 33: chunk 0 holds +5 tuples, expected 5",
      "line 33: chunk 0 holds -0 tuples, expected 5",
      "OK",
      "line 33: chunk 0 holds 65536 tuples, expected 5",
      "line 33: chunk 0 holds 4294967296 tuples, expected 5",
      "line 33: chunk 0 holds  tuples, expected 5",
      "line 33: bad chunk header: chunk 0 tuples 5 ",
      "OK",
      "line 33: chunk 0 holds 5\t1 tuples, expected 5",
      "line 33: chunk 0 holds 5x tuples, expected 5",
      "OK",
      // label
      "OK",
      "OK",
      "OK",
      "line 34: bad label: 65536",
      "line 34: bad label: 4294967296",
      "line 34: bad label: ",
      "line 34: bad label line",
      "OK",
      "line 34: bad label: 5\t1",
      "line 34: bad label: 5x",
      "OK",
      // id
      "line 35: dictionary id out of range: +5",
      "line 35: dictionary id out of range: -0",
      "OK",
      "line 35: dictionary id out of range: 65536",
      "line 35: dictionary id out of range: 4294967296",
      "line 35: dictionary id out of range: ",
      "line 35: bad id column line",
      "OK",
      "line 35: dictionary id out of range: 5\t1",
      "line 35: dictionary id out of range: 5x",
      "OK",
  };

  ASSERT_EQ(want.size(), targets.size() * inputs.size());
  for (int width : ReaderWidths()) {
    const std::unique_ptr<TaskPool> pool = PoolOfWidth(width);
    size_t k = 0;
    for (const auto& [target, pattern] : targets) {
      for (const Input& input : inputs) {
        std::string line = pattern;
        line.replace(line.find("{}"), 2, input.token);
        line += input.suffix;
        const std::string got =
            ReadOutcome(ParityContainer(target, line, input.crlf), pool.get());
        const std::string expected =
            want[k] == "OK" ? want[k] : "udt-dataset: " + want[k];
        EXPECT_EQ(got, expected)
            << target << ": " << input.name << " (width " << width << ")";
        ++k;
      }
    }
    // The untouched container reads.
    EXPECT_EQ(ReadOutcome(ParityContainer("none", "", false), pool.get()),
              "OK");
  }
}

// Dictionary rows are parsed after the pass that checks every other
// resident line, yet a file's verdict stays its first bad line: a bad row
// beats any bad line after it, and a bad line before a row beats the row.
TEST(DatasetReaderParityTest, FirstBadLineWinsAtEveryWidth) {
  const std::string bad_header = "column 1 cat width 3 dixt 6";
  struct Case {
    const char* name;
    std::vector<std::pair<std::string, std::string>> rewrites;
    std::string want;
  };
  const std::vector<Case> cases = {
      {"bad header alone",
       {{"column 1", bad_header}},
       "line 25: bad column header: " + bad_header},
      {"bad mass before bad header",
       {{"dict", "d 65536 7"}, {"column 1", bad_header}},
       "line 19: bad dictionary mass: 65536"},
      {"massless row before bad header",
       {{"dict", "d 0 0"}, {"column 1", bad_header}},
       "line 19: dictionary entry carries no mass"},
      {"bad row shape before bad header",
       {{"dict", "d 5"}, {"column 1", bad_header}},
       "line 19: bad dictionary entry line"},
      {"earlier column's row before a later column's row",
       {{"dict", "d 5x 7"}, {"dict 1", "d 0 0 0"}},
       "line 19: bad dictionary mass: 5x"},
      {"later column's row before the chunks line",
       {{"dict 1", "d 0 0 0"}, {"chunks", "chunks 2"}},
       "line 26: dictionary entry carries no mass"},
      {"bad grid before a later column's bad row",
       {{"grid", "g 1 x"}, {"dict 1", "d 0 0 0"}},
       "line 18: bad grid point: x"},
      {"bad row in an overlong dictionary before the chunks line",
       {{"column 1", "column 1 cat width 3 dict 7"}},
       "line 32: bad dictionary entry line"},
      {"bad row in an overlong dictionary before the end of the file",
       {{"column 1", "column 1 cat width 3 dict 600"}},
       "line 32: bad dictionary entry line"},
  };
  for (int width : ReaderWidths()) {
    const std::unique_ptr<TaskPool> pool = PoolOfWidth(width);
    for (const Case& c : cases) {
      EXPECT_EQ(ReadOutcome(ParityContainer(c.rewrites, false), pool.get()),
                "udt-dataset: " + c.want)
          << c.name << " (width " << width << ")";
    }
  }
}

// ------------------------------------------- line-numbered diagnostics

// Satellite of the same PR: every schema_io read path reports the
// offending absolute line number, including bodies parsed through nested
// readers (flat trees inside compiled containers).
TEST(LineNumberDiagnosticsTest, CompiledTreeErrorsCarryLineNumbers) {
  const Dataset train = LatticeDataset(60, 2, 2, 6, 9);
  Trainer trainer;
  auto model = trainer.TrainUdt(train);
  ASSERT_TRUE(model.ok());
  const std::string text = model->Compile().Serialize();

  // Drop the final line: the failure names the line after the last one.
  std::vector<std::string> lines = SplitString(text, '\n');
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  const int total_lines = static_cast<int>(lines.size());
  std::string truncated;
  for (int i = 0; i + 1 < total_lines; ++i) truncated += lines[i] + "\n";
  auto broken = CompiledForest::Deserialize(truncated);
  ASSERT_FALSE(broken.ok());
  EXPECT_NE(broken.status().message().find(
                StrFormat("line %d", total_lines)),
            std::string::npos)
      << broken.status().message();

  // Corrupt a mid-file node record: the error points at that exact line.
  std::vector<std::string> corrupt_lines = lines;
  for (size_t i = 0; i < corrupt_lines.size(); ++i) {
    if (corrupt_lines[i].rfind("n ", 0) == 0) {
      corrupt_lines[i] = "n bogus";
      std::string corrupt;
      for (const std::string& l : corrupt_lines) corrupt += l + "\n";
      auto bad = CompiledForest::Deserialize(corrupt);
      ASSERT_FALSE(bad.ok());
      EXPECT_NE(bad.status().message().find(
                    StrFormat("line %zu", i + 1)),
                std::string::npos)
          << bad.status().message();
      break;
    }
  }
}

}  // namespace
}  // namespace udt
