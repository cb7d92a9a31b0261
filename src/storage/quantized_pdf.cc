#include "storage/quantized_pdf.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace udt {
namespace {

// FNV-1a over a dictionary row's bytes.
uint64_t HashRow(const uint16_t* masses, int width) {
  uint64_t h = 1469598103934665603ull;
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(masses);
  const size_t n = static_cast<size_t>(width) * sizeof(uint16_t);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Status QuantizationOptions::Validate() const {
  if (bins < 2 || bins > kMaxBins) {
    return Status::InvalidArgument(
        StrFormat("quantization bins must be in [2, %d], got %d", kMaxBins,
                  bins));
  }
  if (chunk_tuples < 1 || chunk_tuples > kMaxChunkTuples) {
    return Status::InvalidArgument(
        StrFormat("chunk_tuples must be in [1, %d], got %d", kMaxChunkTuples,
                  chunk_tuples));
  }
  return Status::OK();
}

StatusOr<AttributeGrid> AttributeGrid::FromSortedPoints(
    std::vector<double> points) {
  if (points.empty()) {
    return Status::InvalidArgument("attribute grid must be non-empty");
  }
  if (points.size() > static_cast<size_t>(QuantizationOptions::kMaxBins)) {
    return Status::InvalidArgument(
        StrFormat("attribute grid holds %zu points, cap is %d", points.size(),
                  QuantizationOptions::kMaxBins));
  }
  for (size_t i = 0; i < points.size(); ++i) {
    if (!std::isfinite(points[i])) {
      return Status::InvalidArgument("attribute grid point is not finite");
    }
    if (i > 0 && !(points[i - 1] < points[i])) {
      return Status::InvalidArgument(
          "attribute grid points must be strictly ascending");
    }
  }
  return AttributeGrid(std::move(points));
}

AttributeGrid AttributeGrid::Uniform(double lo, double hi, int bins) {
  UDT_CHECK(bins >= 1);
  UDT_CHECK(std::isfinite(lo) && std::isfinite(hi));
  std::vector<double> points;
  if (!(hi > lo) || bins == 1) {
    points.push_back(lo);
    return AttributeGrid(std::move(points));
  }
  points.reserve(static_cast<size_t>(bins));
  for (int i = 0; i < bins; ++i) {
    // Endpoint-exact interpolation: the first point is lo, the last hi.
    const double t = static_cast<double>(i) / static_cast<double>(bins - 1);
    points.push_back(lo + (hi - lo) * t);
  }
  points.back() = hi;
  // A tiny range can round adjacent points together; the grid must stay
  // strictly ascending.
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return AttributeGrid(std::move(points));
}

int AttributeGrid::NearestIndex(double x) const {
  UDT_CHECK(!points_.empty());
  const auto it = std::lower_bound(points_.begin(), points_.end(), x);
  if (it == points_.end()) return num_points() - 1;
  if (it == points_.begin()) return 0;
  const int hi = static_cast<int>(it - points_.begin());
  const int lo = hi - 1;
  return (x - points_[static_cast<size_t>(lo)] <=
          points_[static_cast<size_t>(hi)] - x)
             ? lo
             : hi;
}

std::vector<uint16_t> FixedPointMasses(const double* weights, int count) {
  UDT_CHECK(count >= 1);
  double total = 0.0;
  for (int i = 0; i < count; ++i) {
    UDT_CHECK(weights[i] >= 0.0);
    total += weights[i];
  }
  UDT_CHECK(total > 0.0);

  std::vector<uint16_t> fixed(static_cast<size_t>(count), 0);
  // (fractional remainder, index) per weight, for the leftover hand-out.
  std::vector<std::pair<double, int>> remainders;
  remainders.reserve(static_cast<size_t>(count));
  int64_t assigned = 0;
  for (int i = 0; i < count; ++i) {
    const double exact =
        weights[i] / total * static_cast<double>(kQuantizedOne);
    const double floored = std::floor(exact);
    const uint32_t units =
        static_cast<uint32_t>(std::min(floored,
                                       static_cast<double>(kQuantizedOne)));
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
  // Floating-point slack can (rarely) over-assign; shave the largest bins.
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

std::vector<uint16_t> QuantizeToGrid(const SampledPdf& pdf,
                                     const AttributeGrid& grid) {
  std::vector<double> weights(static_cast<size_t>(grid.num_points()), 0.0);
  for (int i = 0; i < pdf.num_points(); ++i) {
    weights[static_cast<size_t>(grid.NearestIndex(pdf.point(i)))] +=
        pdf.mass(i);
  }
  return FixedPointMasses(weights.data(), grid.num_points());
}

StatusOr<SampledPdf> DecodeNumerical(const AttributeGrid& grid,
                                     const uint16_t* masses) {
  std::vector<double> points;
  std::vector<double> decoded;
  for (int i = 0; i < grid.num_points(); ++i) {
    if (masses[i] == 0) continue;
    points.push_back(grid.point(i));
    decoded.push_back(static_cast<double>(masses[i]) /
                      static_cast<double>(kQuantizedOne));
  }
  if (points.empty()) {
    return Status::InvalidArgument("quantized pdf carries no mass");
  }
  return SampledPdf::Create(std::move(points), std::move(decoded));
}

StatusOr<CategoricalPdf> DecodeCategorical(const uint16_t* masses,
                                           int num_categories) {
  std::vector<double> probabilities;
  probabilities.reserve(static_cast<size_t>(num_categories));
  bool any = false;
  for (int c = 0; c < num_categories; ++c) {
    probabilities.push_back(static_cast<double>(masses[c]) /
                            static_cast<double>(kQuantizedOne));
    any = any || masses[c] != 0;
  }
  if (!any) {
    return Status::InvalidArgument(
        "quantized categorical pdf carries no mass");
  }
  return CategoricalPdf::Create(std::move(probabilities));
}

uint32_t PdfDictionary::Intern(const uint16_t* masses) {
  UDT_CHECK(width_ > 0);
  const uint64_t hash = HashRow(masses, width_);
  std::vector<uint32_t>& bucket = buckets_[hash];
  const size_t row_bytes = static_cast<size_t>(width_) * sizeof(uint16_t);
  for (uint32_t id : bucket) {
    if (std::memcmp(entry(id), masses, row_bytes) == 0) return id;
  }
  const uint32_t id = Append(masses);
  bucket.push_back(id);
  return id;
}

uint32_t PdfDictionary::Append(const uint16_t* masses) {
  UDT_CHECK(width_ > 0);
  const uint32_t id = num_entries();
  pool_.insert(pool_.end(), masses, masses + width_);
  return id;
}

size_t PdfDictionary::MemoryUsageBytes() const {
  size_t bytes = sizeof(PdfDictionary) + sizeof(uint16_t) * pool_.capacity();
  // The hash index: buckets plus their id vectors (rough but honest — the
  // write path carries it, the read path's stays empty).
  bytes += buckets_.size() *
           (sizeof(uint64_t) + sizeof(std::vector<uint32_t>) +
            sizeof(void*) * 2);
  for (const auto& [hash, ids] : buckets_) {
    (void)hash;
    bytes += sizeof(uint32_t) * ids.capacity();
  }
  return bytes;
}

StatusOr<SampledPdf> DecodedPdfCache::Get(
    const AttributeGrid& grid, const PdfDictionary& dict, uint32_t id) {
  if (id >= dict.num_entries()) {
    return Status::InvalidArgument(
        StrFormat("dictionary id %u out of range (dictionary holds %u)", id,
                  dict.num_entries()));
  }
  if (decoded_.size() < dict.num_entries()) {
    decoded_.resize(dict.num_entries());
  }
  std::optional<SampledPdf>& slot = decoded_[id];
  if (!slot.has_value()) {
    UDT_ASSIGN_OR_RETURN(slot, DecodeNumerical(grid, dict.entry(id)));
  }
  return *slot;
}

Status QuantizedColumn::Decode(uint32_t id,
                               std::vector<UncertainValue>* out) {
  if (kind == AttributeKind::kNumerical) {
    UDT_ASSIGN_OR_RETURN(SampledPdf pdf, cache.Get(grid, dict, id));
    out->push_back(UncertainValue::Numerical(std::move(pdf)));
    return Status::OK();
  }
  if (id >= dict.num_entries()) {
    return Status::InvalidArgument(
        StrFormat("dictionary id %u out of range (dictionary holds %u)", id,
                  dict.num_entries()));
  }
  UDT_ASSIGN_OR_RETURN(CategoricalPdf pdf,
                       DecodeCategorical(dict.entry(id), dict.width()));
  out->push_back(UncertainValue::Categorical(std::move(pdf)));
  return Status::OK();
}

}  // namespace udt
