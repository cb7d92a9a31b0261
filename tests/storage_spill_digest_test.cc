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
// formatting or full remainder sorts; the rewrite must keep them. The
// layers run column-parallel on a task pool, and every pool width must
// write the same bytes and materialise the same pdfs.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/task_pool.h"
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

// A pool `width` threads wide, the caller included; null at width 1,
// where every layer runs inline.
std::unique_ptr<TaskPool> PoolOfWidth(int width) {
  return width > 1 ? std::make_unique<TaskPool>(width - 1) : nullptr;
}

// The widths every spill layer must agree across: 1, 2 and one thread per
// hardware thread (at least 2, so the pool path always runs).
std::vector<int> Widths() {
  std::vector<int> widths = {1, 2,
                             std::max(2, TaskPool::EffectiveConcurrency(0))};
  widths.erase(std::unique(widths.begin(), widths.end()), widths.end());
  return widths;
}

std::string SpillBytes(const Dataset& data, const QuantizationOptions& options,
                       const char* name, TaskPool* pool = nullptr) {
  const std::string path = testing::TempDir() + "/" + name;
  auto stats = ConvertDatasetToFile(data, path, options, pool);
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
  for (int width : Widths()) {
    SCOPED_TRACE(testing::Message() << "width " << width);
    const std::unique_ptr<TaskPool> pool = PoolOfWidth(width);
    ExpectDigest(SpillBytes(split, options, "spill_segment.udtds", pool.get()),
                 0x13C0A92EA7CAA888ULL);
  }
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
  for (int width : Widths()) {
    SCOPED_TRACE(testing::Message() << "width " << width);
    const std::unique_ptr<TaskPool> pool = PoolOfWidth(width);
    ExpectDigest(SpillBytes(data, options, "spill_mixed.udtds", pool.get()),
                 0x544734F0AB62ADC2ULL);
  }
}

// Writes, opens and materialises `data` with every layer at `width`.
Dataset RoundTrip(const Dataset& data, const QuantizationOptions& options,
                  int width) {
  const std::unique_ptr<TaskPool> pool = PoolOfWidth(width);
  const std::string path = testing::TempDir() + "/spill_width.udtds";
  UDT_CHECK(ConvertDatasetToFile(data, path, options, pool.get()).ok());
  auto reader = DatasetReader::Open(path, pool.get());
  UDT_CHECK(reader.ok());
  auto decoded = MaterializeDataset(&*reader, {}, pool.get());
  UDT_CHECK(decoded.ok());
  std::remove(path.c_str());
  return std::move(decoded).value();
}

bool SameBits(const double* a, const double* b, int n) {
  return std::memcmp(a, b, sizeof(double) * static_cast<size_t>(n)) == 0;
}

// Every pdf of `a` and `b` bit for bit (points, masses, cumulative
// masses; categorical probabilities), and the same slice-sharing pattern:
// values share a slice in `a` exactly where they share one in `b`.
void ExpectSamePdfs(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_tuples(), b.num_tuples());
  std::unordered_map<const double*, const double*> slice_of_a;
  std::unordered_map<const double*, const double*> slice_of_b;
  for (int i = 0; i < a.num_tuples(); ++i) {
    ASSERT_EQ(a.tuple(i).label, b.tuple(i).label) << "tuple " << i;
    for (int j = 0; j < a.num_attributes(); ++j) {
      const UncertainValue& va = a.tuple(i).values[static_cast<size_t>(j)];
      const UncertainValue& vb = b.tuple(i).values[static_cast<size_t>(j)];
      ASSERT_EQ(va.is_numerical(), vb.is_numerical());
      if (!va.is_numerical()) {
        const int k = va.categorical().num_categories();
        ASSERT_EQ(k, vb.categorical().num_categories());
        for (int c = 0; c < k; ++c) {
          const double pa = va.categorical().probability(c);
          const double pb = vb.categorical().probability(c);
          ASSERT_TRUE(SameBits(&pa, &pb, 1)) << "tuple " << i;
        }
        continue;
      }
      const SampledPdf& pa = va.pdf();
      const SampledPdf& pb = vb.pdf();
      const int n = pa.num_points();
      ASSERT_EQ(n, pb.num_points()) << "tuple " << i << " attribute " << j;
      // The points, masses and cumulative masses lie back to back.
      ASSERT_TRUE(SameBits(pa.points_data(), pb.points_data(), 3 * n))
          << "tuple " << i << " attribute " << j;
      const auto a_to_b = slice_of_a.emplace(pa.slice(), pb.slice()).first;
      const auto b_to_a = slice_of_b.emplace(pb.slice(), pa.slice()).first;
      ASSERT_TRUE(a_to_b->second == pb.slice() && b_to_a->second == pa.slice())
          << "tuple " << i << " attribute " << j << " shares differently";
    }
  }
  const DatasetMemoryBreakdown ma = a.MemoryBreakdown();
  const DatasetMemoryBreakdown mb = b.MemoryBreakdown();
  EXPECT_EQ(ma.unique_pdfs, mb.unique_pdfs);
  EXPECT_EQ(ma.total_bytes, mb.total_bytes);
}

TEST(SpillDigestTest, MaterializedPdfsDoNotDependOnWidth) {
  const int wide = std::max(2, TaskPool::EffectiveConcurrency(0));
  {
    SCOPED_TRACE("Segment split");
    const Dataset split = SegmentSplit();
    ExpectSamePdfs(RoundTrip(split, {}, 1), RoundTrip(split, {}, wide));
  }
  {
    SCOPED_TRACE("mixed lattice");
    QuantizationOptions options;
    options.chunk_tuples = 64;
    const Dataset data = MixedLattice(300, 41);
    ExpectSamePdfs(RoundTrip(data, options, 1),
                   RoundTrip(data, options, wide));
  }
}

}  // namespace
}  // namespace udt
