#include "storage/quantized_pdf.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace udt {
namespace {

// Hash of a dictionary row, four masses (one 64-bit word) per step.
uint64_t HashRow(const uint16_t* masses, int width) {
  constexpr uint64_t kMul = 0xFF51AFD7ED558CCDull;
  uint64_t h = 0x9E3779B97F4A7C15ull ^ static_cast<uint64_t>(width);
  int i = 0;
  for (; i + 4 <= width; i += 4) {
    uint64_t word;
    std::memcpy(&word, masses + i, sizeof(word));
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  }
  for (; i < width; ++i) {
    h = (h ^ masses[i]) * kMul;
    h ^= h >> 32;
  }
  h ^= h >> 29;
  h *= 0xC4CEB9FE1A85EC53ull;
  return h ^ (h >> 32);
}

// The order the leftover units are handed out in: larger remainder first,
// ties to the lower index.
bool HandOutFirst(const std::pair<double, int>& a,
                  const std::pair<double, int>& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second < b.second;
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
  return NearestIndexFrom(static_cast<int>(it - points_.begin()), x);
}

int AttributeGrid::NearestIndexFrom(int above, double x) const {
  if (above == num_points()) return num_points() - 1;
  if (above == 0) return 0;
  const int lo = above - 1;
  return (x - points_[static_cast<size_t>(lo)] <=
          points_[static_cast<size_t>(above)] - x)
             ? lo
             : above;
}

namespace {

// FixedPointMasses over a count-wide row whose positive weights are
// scratch->positive, in ascending index order. A zero weight takes 0
// units with remainder 0 and adds nothing to the total, so skipping the
// zeros changes no bit of the result.
const uint16_t* FixedPointOfPositive(int count, QuantizeScratch* scratch) {
  const std::vector<std::pair<int, double>>& positive = scratch->positive;
  double total = 0.0;
  for (const auto& [index, weight] : positive) total += weight;
  UDT_CHECK(total > 0.0);

  std::vector<uint16_t>& fixed = scratch->fixed;
  fixed.assign(static_cast<size_t>(count), 0);
  // (fractional remainder, index) of every weight whose remainder is
  // positive: only those can come first in the hand-out order.
  std::vector<std::pair<double, int>>& remainders = scratch->remainders;
  remainders.clear();
  int64_t assigned = 0;
  for (const auto& [index, weight] : positive) {
    const double exact = weight / total * static_cast<double>(kQuantizedOne);
    const double floored = std::floor(exact);
    const uint32_t units =
        static_cast<uint32_t>(std::min(floored,
                                       static_cast<double>(kQuantizedOne)));
    fixed[static_cast<size_t>(index)] = static_cast<uint16_t>(units);
    assigned += units;
    const double remainder = exact - floored;
    if (remainder > 0.0) remainders.emplace_back(remainder, index);
  }

  // Never negative: each floor is at most its exact share, and the
  // shares sum to the scale up to a relative error below count x 2^-52
  // (the total is a sum of the same finite non-negative weights), far
  // under one unit, so the floors sum to at most kQuantizedOne.
  int64_t leftover = static_cast<int64_t>(kQuantizedOne) - assigned;
  UDT_DCHECK(leftover >= 0);
  if (leftover > 0 && leftover <= static_cast<int64_t>(remainders.size())) {
    // Each unit goes to one of the `leftover` first remainders of the
    // order, all positive: rank just those.
    const auto last = remainders.begin() + leftover;
    if (last != remainders.end()) {
      std::nth_element(remainders.begin(), last, remainders.end(),
                       HandOutFirst);
    }
    for (auto it = remainders.begin(); it != last; ++it) {
      ++fixed[static_cast<size_t>(it->second)];
    }
  } else if (leftover > 0) {
    // More units than positive remainders: the hand-out wraps onto the
    // zero remainders too, which follow the positive ones in index order.
    std::sort(remainders.begin(), remainders.end(), HandOutFirst);
    std::vector<bool> ranked(static_cast<size_t>(count), false);
    for (const auto& [remainder, index] : remainders) {
      ranked[static_cast<size_t>(index)] = true;
    }
    for (int i = 0; i < count; ++i) {
      if (!ranked[static_cast<size_t>(i)]) remainders.emplace_back(0.0, i);
    }
    for (size_t k = 0; leftover > 0; k = (k + 1) % remainders.size()) {
      ++fixed[static_cast<size_t>(remainders[k].second)];
      --leftover;
    }
  }
  return fixed.data();
}

}  // namespace

const uint16_t* FixedPointMasses(const double* weights, int count,
                                 QuantizeScratch* scratch) {
  UDT_CHECK(count >= 1);
  scratch->positive.clear();
  for (int i = 0; i < count; ++i) {
    UDT_CHECK(weights[i] >= 0.0);
    if (weights[i] != 0.0) scratch->positive.emplace_back(i, weights[i]);
  }
  return FixedPointOfPositive(count, scratch);
}

std::vector<uint16_t> FixedPointMasses(const double* weights, int count) {
  QuantizeScratch scratch;
  FixedPointMasses(weights, count, &scratch);
  return std::move(scratch.fixed);
}

const uint16_t* QuantizeToGrid(const SampledPdf& pdf, const AttributeGrid& grid,
                               QuantizeScratch* scratch) {
  const int bins = grid.num_points();
  const double* axis = grid.points().data();
  std::vector<std::pair<int, double>>& positive = scratch->positive;
  positive.clear();
  // The points ascend, so the first grid point not below each one only
  // moves forward, and so does the nearest bin: a bin's masses arrive
  // together, summed in point order.
  int above = 0;
  for (int i = 0; i < pdf.num_points(); ++i) {
    const double x = pdf.point(i);
    while (above < bins && axis[above] < x) ++above;
    const int bin = grid.NearestIndexFrom(above, x);
    if (!positive.empty() && positive.back().first == bin) {
      positive.back().second += pdf.mass(i);
    } else {
      positive.emplace_back(bin, pdf.mass(i));
    }
  }
  return FixedPointOfPositive(bins, scratch);
}

std::vector<uint16_t> QuantizeToGrid(const SampledPdf& pdf,
                                     const AttributeGrid& grid) {
  QuantizeScratch scratch;
  QuantizeToGrid(pdf, grid, &scratch);
  return std::move(scratch.fixed);
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
  if (hashes_.size() != num_entries() ||
      2 * (hashes_.size() + 1) > slots_.size()) {
    Reindex();
  }
  const uint64_t hash = HashRow(masses, width_);
  const size_t row_bytes = static_cast<size_t>(width_) * sizeof(uint16_t);
  const size_t mask = slots_.size() - 1;
  for (size_t s = static_cast<size_t>(hash) & mask;; s = (s + 1) & mask) {
    if (slots_[s] == 0) {
      const uint32_t id = Append(masses);
      hashes_.push_back(hash);
      slots_[s] = id + 1;
      return id;
    }
    const uint32_t id = slots_[s] - 1;
    if (hashes_[id] == hash && std::memcmp(entry(id), masses, row_bytes) == 0) {
      return id;
    }
  }
}

void PdfDictionary::Reindex() {
  const uint32_t entries = num_entries();
  for (uint32_t id = static_cast<uint32_t>(hashes_.size()); id < entries;
       ++id) {
    hashes_.push_back(HashRow(entry(id), width_));
  }
  size_t size = std::max<size_t>(16, slots_.size());
  while (size < 2 * (static_cast<size_t>(entries) + 1)) size *= 2;
  slots_.assign(size, 0);
  const size_t mask = size - 1;
  for (uint32_t id = 0; id < entries; ++id) {
    size_t s = static_cast<size_t>(hashes_[id]) & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = id + 1;
  }
}

uint32_t PdfDictionary::Append(const uint16_t* masses) {
  UDT_CHECK(width_ > 0);
  const uint32_t id = num_entries();
  pool_.insert(pool_.end(), masses, masses + width_);
  return id;
}

size_t PdfDictionary::MemoryUsageBytes() const {
  // The index is the write path's; the read path's stays empty.
  return sizeof(PdfDictionary) + sizeof(uint16_t) * pool_.capacity() +
         sizeof(uint32_t) * slots_.capacity() +
         sizeof(uint64_t) * hashes_.capacity();
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
