// Cross-version byte oracle for the "udt-dataset v1" spill: FNV-1a
// digests of the container bytes ConvertDatasetToFile writes for fixed
// seeded data sets. The storage suites check that a file round-trips
// through the reader; this one pins the bytes themselves, so a rewrite of
// quantization (grid choice, nearest-bin snapping, fixed-point rounding,
// dictionary id order) or of the text emitter that changes any byte fails
// here.
//
// The digests were recorded before the spill's quantize, emit and parse
// layers were rewritten to run without per-token strings, stream
// formatting or full remainder sorts; the rewrite must keep them.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "datagen/synthetic.h"
#include "datagen/uci_like.h"
#include "pdf/pdf_builder.h"
#include "storage/dataset_file.h"
#include "storage/quantized_dataset.h"
#include "table/uncertainty_injector.h"

namespace udt {
namespace {

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (unsigned char ch : bytes) {
    hash ^= ch;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::string Hex(uint64_t digest) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIX64, digest);
  return buffer;
}

// The adaptive loop's retrain split: Segment-shaped (19 attributes, 7
// classes), 768 tuples, Gaussian error pdfs over 10% of each domain with
// the paper's s = 20 samples. Dense enough that every attribute snaps to
// a uniform 64-bin grid.
Dataset SegmentSplit() {
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
  return std::move(data).value();
}

// A numerical column on a coarse lattice (few distinct sample points, so
// its grid stays exact) beside a categorical column.
Dataset MixedLattice(int tuples, uint64_t seed) {
  Rng rng(seed);
  auto schema = Schema::Create(
      {
          {"x", AttributeKind::kNumerical, 0},
          {"channel", AttributeKind::kCategorical, 4},
      },
      {"a", "b", "c"});
  UDT_CHECK(schema.ok());
  Dataset ds(std::move(*schema));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 3;
    const double center =
        std::round(rng.Gaussian(t.label * 1.0, 0.8) * 2.0) / 2.0;
    auto px = MakeGaussianErrorPdf(center, 1.0, 8);
    UDT_CHECK(px.ok());
    t.values.push_back(UncertainValue::Numerical(std::move(*px)));
    std::vector<double> probs(4, 0.1 + 0.05 * (i % 3));
    probs[static_cast<size_t>((i + t.label) % 4)] = 0.55;
    auto cat = CategoricalPdf::Create(std::move(probs));
    UDT_CHECK(cat.ok());
    t.values.push_back(UncertainValue::Categorical(std::move(*cat)));
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

std::string SpillBytes(const Dataset& data, const QuantizationOptions& options,
                       const char* name) {
  const std::string path = testing::TempDir() + "/" + name;
  auto stats = ConvertDatasetToFile(data, path, options);
  UDT_CHECK(stats.ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  UDT_CHECK(bytes.size() == stats->file_bytes);
  std::remove(path.c_str());
  return bytes;
}

void ExpectDigest(const std::string& bytes, uint64_t want) {
  EXPECT_EQ(Hex(Fnv1a(bytes)), Hex(want)) << bytes.size() << " bytes";
}

TEST(SpillDigestTest, SegmentRetrainSplit) {
  const Dataset split = SegmentSplit();
  const QuantizationOptions options;  // the retrain spill's defaults
  const std::string bytes = SpillBytes(split, options, "spill_segment.udtds");
  ExpectDigest(bytes, 0x13C0A92EA7CAA888ULL);
}

TEST(SpillDigestTest, CategoricalColumnBesideExactGrid) {
  const Dataset data = MixedLattice(300, 41);
  QuantizationOptions options;
  options.chunk_tuples = 64;  // four full chunks and a partial one
  auto quantized = QuantizedDataset::FromDataset(data, options);
  ASSERT_TRUE(quantized.ok());
  // Fewer grid points than bins: the grid is the column's own points.
  ASSERT_LT(quantized->grid(0).num_points(), options.bins);
  const std::string bytes = SpillBytes(data, options, "spill_mixed.udtds");
  ExpectDigest(bytes, 0x544734F0AB62ADC2ULL);
}

}  // namespace
}  // namespace udt
