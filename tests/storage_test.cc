// The storage tier's unit surface: fixed-point quantization, grids,
// dictionaries, the quantized columnar dataset, the "udt-dataset v1"
// container (including hostile inputs), memory introspection, and the
// convergence of quantized training to exact training as the bin budget
// grows.

#include <gtest/gtest.h>

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
#include "eval/metrics.h"
#include "pdf/pdf_builder.h"
#include "storage/dataset_file.h"
#include "storage/pdf_storage.h"
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
  EXPECT_EQ(first->get(), second->get());  // same instance, not a copy
  EXPECT_FALSE(cache.Get(*grid, dict, 7).ok());  // id out of range
}

// ------------------------------------------------- memory introspection

TEST(DatasetMemoryTest, BreakdownCountsSharedInstancesOnce) {
  Dataset ds(Schema::Numerical(1, {"a", "b"}));
  auto pdf = SampledPdf::Create({0.0, 1.0, 2.0}, {0.25, 0.5, 0.25});
  ASSERT_TRUE(pdf.ok());
  auto shared = std::make_shared<const SampledPdf>(std::move(*pdf));
  for (int i = 0; i < 4; ++i) {
    UncertainTuple t;
    t.label = i % 2;
    t.values.push_back(UncertainValue::NumericalShared(shared));
    ASSERT_TRUE(ds.AddTuple(std::move(t)).ok());
  }
  const DatasetMemoryBreakdown breakdown = ds.MemoryBreakdown();
  EXPECT_EQ(breakdown.num_tuples, 4);
  EXPECT_EQ(breakdown.num_values, 4);
  EXPECT_EQ(breakdown.unique_pdfs, 1);
  EXPECT_EQ(breakdown.pdf_bytes, shared->MemoryUsageBytes());
  EXPECT_EQ(breakdown.unshared_pdf_bytes, 4 * shared->MemoryUsageBytes());
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
  auto pooled = MaterializeDataset(&*quantized);
  ASSERT_TRUE(pooled.ok());
  ASSERT_EQ(pooled->num_tuples(), source.num_tuples());
  const DatasetMemoryBreakdown breakdown = pooled->MemoryBreakdown();
  // Every tuple value referencing the same dictionary entry shares one
  // decoded instance.
  EXPECT_EQ(breakdown.unique_pdfs, quantized->dictionary_entries());
  EXPECT_LT(breakdown.total_bytes, breakdown.unshared_total_bytes / 2);
  // Labels survive the round trip.
  for (int i = 0; i < source.num_tuples(); ++i) {
    EXPECT_EQ(pooled->tuple(i).label, source.tuple(i).label);
  }
}

TEST(QuantizedDatasetTest, HandlesCategoricalColumns) {
  const Dataset source = MixedLatticeDataset(200, 13);
  auto quantized = QuantizedDataset::FromDataset(source);
  ASSERT_TRUE(quantized.ok());
  auto pooled = MaterializeDataset(&*quantized);
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

TEST(ExactPdfStorageTest, MaterializesIdenticalTuplesUnderBudget) {
  const Dataset source = LatticeDataset(100, 2, 2, 8, 3);
  ExactPdfStorage storage(&source, 32);
  EXPECT_EQ(storage.num_chunks(), 4);
  auto copy = MaterializeDataset(&storage);
  ASSERT_TRUE(copy.ok());
  ASSERT_EQ(copy->num_tuples(), 100);
  // Copies share the source's pdf instances outright.
  EXPECT_EQ(copy->tuple(0).values[0].pdf_instance(),
            source.tuple(0).values[0].pdf_instance());

  StorageBudget tight;
  tight.max_materialized_bytes = 1024;  // far below 100 tuples of pdfs
  auto burst = MaterializeDataset(&storage, tight);
  ASSERT_FALSE(burst.ok());
  EXPECT_NE(burst.status().message().find("memory budget"),
            std::string::npos);
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
  auto quantized = QuantizedDataset::FromDataset(train, options);
  ASSERT_TRUE(quantized.ok());
  auto pooled = MaterializeDataset(&*quantized);
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

TEST_F(DatasetFileTest, RewindSupportsASecondPass) {
  auto reader = DatasetReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  auto first = MaterializeDataset(&*reader);
  ASSERT_TRUE(first.ok());
  // The stream is exhausted; a fresh pass needs Rewind.
  Dataset scratch(reader->schema());
  EXPECT_FALSE(reader->AppendChunk(0, &scratch).ok());
  ASSERT_TRUE(reader->Rewind().ok());
  auto second = MaterializeDataset(&*reader);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->num_tuples(), first->num_tuples());
  // Decode caches survive the rewind: both passes share instances.
  EXPECT_EQ(second->tuple(0).values[0].pdf_instance(),
            first->tuple(0).values[0].pdf_instance());
}

TEST_F(DatasetFileTest, RewindAfterFailedSeekReplaysIdenticalData) {
  // Regression: a failed out-of-range AppendChunk mid-stream must not
  // poison the reader — Rewind resets both the stream position and the
  // line counter, so a full second pass decodes the same tuples.
  auto reader = DatasetReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  Dataset partial(reader->schema());
  ASSERT_TRUE(reader->AppendChunk(0, &partial).ok());
  EXPECT_FALSE(reader->AppendChunk(5, &partial).ok());  // only 4 chunks

  ASSERT_TRUE(reader->Rewind().ok());
  auto replay = MaterializeDataset(&*reader);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  ASSERT_EQ(replay->num_tuples(), source_.num_tuples());
  for (int i = 0; i < replay->num_tuples(); ++i) {
    EXPECT_EQ(replay->tuple(i).label, source_.tuple(i).label);
  }
}

TEST_F(DatasetFileTest, RewindResetsErrorLineNumbers) {
  // Regression: the reader's diagnostic line counter must rewind with the
  // stream. Corrupt one chunk row; the parse error after a Rewind has to
  // name the same absolute line as the first pass (the counter used to
  // keep accumulating across rewinds).
  MutateFile([](std::vector<std::string>* lines) {
    for (auto& l : *lines) {
      if (l.rfind("c ", 0) == 0) {
        l = "c bogus";
        break;
      }
    }
  });
  auto reader = DatasetReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  Dataset out(reader->schema());
  const Status first = reader->AppendChunk(0, &out);
  ASSERT_FALSE(first.ok());

  ASSERT_TRUE(reader->Rewind().ok());
  Dataset again(reader->schema());
  const Status second = reader->AppendChunk(0, &again);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(first.message(), second.message());
  EXPECT_NE(first.message().find("line "), std::string::npos);
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
