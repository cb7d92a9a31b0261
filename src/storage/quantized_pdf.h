// Quantized pdf representation: the compact half of the storage tier.
//
// A SampledPdf stores three double arrays per value; across a large
// uncertain table most of those arrays repeat (an injector that derives
// the error pdf deterministically from the observed value emits the same
// distribution for every tuple sharing that value) and their sample points
// cluster on a per-attribute domain. The quantized form exploits both:
//
//   * one AttributeGrid per attribute — the sample-point axis, stored
//     once. When the attribute's distinct sample points fit in the bin
//     budget the grid IS those points (lossless); otherwise it is a
//     uniform grid over the observed range and masses snap to the nearest
//     bin.
//   * per-value masses as dense uint16 fixed-point weights over the grid
//     (largest-remainder rounding, summing to exactly kQuantizedOne), and
//   * a PdfDictionary per attribute interning the distinct mass vectors,
//     so a tuple costs one uint32 dictionary id per attribute.
//
// Decoding a dictionary entry yields an ordinary SampledPdf (positive-mass
// bins only, renormalised), so the split search, the batch kernels and the
// serving stack run on quantized data unchanged. DecodedPdfCache decodes
// each entry once; every tuple referencing that entry holds a copy of its
// handle and so shares its sample slice, which is what keeps the
// materialised working set far below the exact footprint.

#ifndef UDT_STORAGE_QUANTIZED_PDF_H_
#define UDT_STORAGE_QUANTIZED_PDF_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "pdf/pdf.h"
#include "table/dataset.h"

namespace udt {

// Fixed-point scale: quantized masses are sixteenths-of-65535, i.e. an
// entry's weights sum to exactly this value and decode as w / 65535.0.
inline constexpr uint32_t kQuantizedOne = 65535;

// Knobs of one quantization run.
struct QuantizationOptions {
  // Grid resolution per numerical attribute: attributes with at most this
  // many distinct sample points keep them exactly; denser attributes snap
  // to a uniform grid of `bins` points over their observed range.
  static constexpr int kMaxBins = 4096;
  int bins = 64;

  // Tuples per chunk of the columnar container (the unit the out-of-core
  // reader streams and decodes).
  static constexpr int kMaxChunkTuples = 1 << 20;
  int chunk_tuples = 1024;

  // Container caps the "udt-dataset v1" reader enforces before it
  // allocates anything (storage/dataset_file.h); the writer refuses a
  // source over them, so it never writes a file the reader rejects.
  static constexpr int64_t kMaxTuples = 1ll << 26;
  static constexpr int64_t kMaxDictEntries = 1ll << 22;  // per attribute

  Status Validate() const;
};

// The shared sample-point axis of one numerical attribute: a non-empty,
// strictly ascending, finite point set. Immutable after construction.
class AttributeGrid {
 public:
  AttributeGrid() = default;

  // Validates and adopts an explicit point set (the lossless grid and the
  // file reader's path). Fails on empty/oversized sets, non-finite points
  // (NaN included) or non-ascending order.
  static StatusOr<AttributeGrid> FromSortedPoints(std::vector<double> points);

  // `bins` evenly spaced points over [lo, hi] inclusive; collapses to the
  // single point {lo} when the range is empty. Adjacent duplicates from a
  // degenerate range are merged, so the result is always strictly
  // ascending.
  static AttributeGrid Uniform(double lo, double hi, int bins);

  int num_points() const { return static_cast<int>(points_.size()); }
  double point(int i) const { return points_[static_cast<size_t>(i)]; }
  const std::vector<double>& points() const { return points_; }

  // Index of the grid point closest to `x` (ties -> lower index). Requires
  // a non-empty grid.
  int NearestIndex(double x) const;

  // NearestIndex(x) given `above`, the index of the first grid point not
  // below x (std::lower_bound's answer, num_points() if none) — the form
  // a forward walk over ascending samples has at hand.
  int NearestIndexFrom(int above, double x) const;

  size_t MemoryUsageBytes() const {
    return sizeof(AttributeGrid) + sizeof(double) * points_.capacity();
  }

 private:
  explicit AttributeGrid(std::vector<double> points)
      : points_(std::move(points)) {}

  std::vector<double> points_;  // strictly ascending, finite
};

// Buffers of the quantize path, reused from one value to the next so a
// column quantizes without allocating per value.
struct QuantizeScratch {
  std::vector<std::pair<int, double>> positive;    // (index, weight > 0)
  std::vector<std::pair<double, int>> remainders;  // (remainder, index)
  std::vector<uint16_t> fixed;                     // the quantized row
};

// Rounds non-negative weights (positive total) to uint16 fixed point
// summing to exactly kQuantizedOne: floor the scaled weights, then hand
// the leftover units to the largest fractional remainders (ties -> lowest
// index), one each in that order, wrapping round while units remain, so
// the result is deterministic. Zero weights cost one comparison each;
// only the positive remainders are ranked, and only as far as the
// leftover reaches. The full order of every remainder is built just when
// the leftover outnumbers them (a total that overflows to infinity).
// Writes count entries to scratch->fixed and returns them.
const uint16_t* FixedPointMasses(const double* weights, int count,
                                 QuantizeScratch* scratch);
std::vector<uint16_t> FixedPointMasses(const double* weights, int count);

// Snaps `pdf`'s mass onto `grid` (each sample point to its nearest bin,
// found by one forward walk over the grid since the points ascend) and
// fixes the result to uint16 point: grid.num_points() entries, written to
// scratch->fixed and returned. Only the bins the pdf reaches are visited
// before the row is written out.
const uint16_t* QuantizeToGrid(const SampledPdf& pdf, const AttributeGrid& grid,
                               QuantizeScratch* scratch);
std::vector<uint16_t> QuantizeToGrid(const SampledPdf& pdf,
                                     const AttributeGrid& grid);

// Inverse of QuantizeToGrid up to rounding: positive-mass bins become the
// sample points of an ordinary SampledPdf (renormalised by Create). Fails
// if no bin carries mass. `masses` holds grid.num_points() entries.
StatusOr<SampledPdf> DecodeNumerical(const AttributeGrid& grid,
                                     const uint16_t* masses);

// Categorical counterpart: `masses` holds `num_categories` fixed-point
// probabilities. Fails when no category carries mass (CategoricalPdf
// renormalises the rest).
StatusOr<CategoricalPdf> DecodeCategorical(const uint16_t* masses,
                                           int num_categories);

// Interning pool of distinct quantized mass vectors for one attribute.
// Entries are dense `width`-long uint16 rows stored back to back; an id is
// the row index, stable for the pool's lifetime. The same type serves
// numerical columns (width = grid points) and categorical columns (width =
// categories).
class PdfDictionary {
 public:
  PdfDictionary() = default;
  explicit PdfDictionary(int width) : width_(width) {}

  int width() const { return width_; }
  uint32_t num_entries() const {
    return width_ == 0 ? 0
                       : static_cast<uint32_t>(pool_.size() /
                                               static_cast<size_t>(width_));
  }

  // Returns the id of `masses` (width() entries), appending it if no equal
  // entry exists yet — the write path's dedup. Ids follow first
  // appearance, so the hash never shows in the ids.
  uint32_t Intern(const uint16_t* masses);

  // Appends `masses` verbatim without consulting the index — the read
  // path, which must reproduce the file's id space exactly (a hostile
  // duplicate entry is harmless, just wasteful).
  uint32_t Append(const uint16_t* masses);

  // Pointer to the id-th row (width() entries). Requires a valid id.
  const uint16_t* entry(uint32_t id) const {
    return pool_.data() + static_cast<size_t>(id) * static_cast<size_t>(width_);
  }

  size_t MemoryUsageBytes() const;

 private:
  // Rebuilds the index over every row, at least twice as many slots as
  // rows (rows Append added are indexed here too).
  void Reindex();

  int width_ = 0;
  std::vector<uint16_t> pool_;  // num_entries() x width_ rows
  // Intern's index, built on the first Intern (the read path has none):
  // open-addressing slots holding id + 1 (0 = empty), a power of two in
  // size and at most half full, with linear probing; hashes_[id] is row
  // id's hash, checked before the rows are compared.
  std::vector<uint32_t> slots_;
  std::vector<uint64_t> hashes_;
};

// Decode-once pool over one attribute's dictionary: Get materialises entry
// `id` on first use and hands every caller a copy of the same handle, so a
// data set assembled through one cache shares pdf slices exactly as often
// as the dictionary deduplicated them. Not thread-safe: one thread at a
// time decodes through a cache (materialisation runs each column's cache
// on one task).
class DecodedPdfCache {
 public:
  StatusOr<SampledPdf> Get(const AttributeGrid& grid,
                           const PdfDictionary& dict, uint32_t id);

 private:
  std::vector<std::optional<SampledPdf>> decoded_;
};

// One attribute's resident quantized state. The writer's QuantizedDataset
// builds one per attribute; the file-backed DatasetReader loads one per
// attribute and turns a dictionary id back into a value through Decode.
struct QuantizedColumn {
  AttributeKind kind = AttributeKind::kNumerical;
  AttributeGrid grid;     // numerical only
  PdfDictionary dict;     // width: grid points (num) or categories (cat)
  DecodedPdfCache cache;  // numerical only

  // Decodes dictionary entry `id` and appends the value to `out`.
  // Numerical entries go through the cache, so every value decoded from
  // one id shares one pdf slice. Fails on an id outside the dictionary
  // or an entry without mass.
  Status Decode(uint32_t id, std::vector<UncertainValue>* out);

  // Grid + dictionary. Excludes the cache: decoded pdfs are accounted on
  // the data set they end up in.
  size_t MemoryUsageBytes() const {
    return grid.MemoryUsageBytes() + dict.MemoryUsageBytes();
  }
};

}  // namespace udt

#endif  // UDT_STORAGE_QUANTIZED_PDF_H_
