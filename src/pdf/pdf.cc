#include "pdf/pdf.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/math.h"
#include "common/string_util.h"

namespace udt {

namespace {

// Normalises the raw pdf staged in `slice` (n points after the header, n
// masses after them) into the slice layout [m, mean | points | masses |
// cumulative], in place, and returns m, its number of distinct points.
// The one normalisation behind SampledPdf::Create and PdfBlockWriter.
StatusOr<int> NormalizeSlice(double* slice, int n) {
  double* points = slice + SampledPdf::kHeader;
  double* masses = points + n;
  // Input that is already canonical — strictly ascending points, every
  // mass positive — needs no sort, merge or drop. Every grid factory, the
  // calibrator and the storage decode hand over such input, so it is
  // normalised in place; anything else goes through the sort below.
  bool canonical = true;
  for (int i = 0; i < n; ++i) {
    if (!std::isfinite(points[i]) || !std::isfinite(masses[i])) {
      return Status::InvalidArgument("pdf sample points must be finite");
    }
    if (masses[i] < 0.0) {
      return Status::InvalidArgument("pdf masses must be non-negative");
    }
    if (!(masses[i] > 0.0) || (i > 0 && !(points[i - 1] < points[i]))) {
      canonical = false;
    }
  }

  int m = n;
  if (!canonical) {
    // Sort jointly by point, then merge duplicates and drop zero masses.
    std::vector<size_t> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return points[a] < points[b]; });

    std::vector<double> sorted_points;
    std::vector<double> sorted_masses;
    sorted_points.reserve(static_cast<size_t>(n));
    sorted_masses.reserve(static_cast<size_t>(n));
    for (size_t idx : order) {
      double x = points[idx];
      double mass = masses[idx];
      if (mass <= 0.0) continue;
      if (!sorted_points.empty() && sorted_points.back() == x) {
        sorted_masses.back() += mass;
      } else {
        sorted_points.push_back(x);
        sorted_masses.push_back(mass);
      }
    }
    if (sorted_points.empty()) {
      return Status::InvalidArgument("pdf carries no positive mass");
    }
    m = static_cast<int>(sorted_points.size());
    masses = points + m;
    std::copy(sorted_points.begin(), sorted_points.end(), points);
    std::copy(sorted_masses.begin(), sorted_masses.end(), masses);
  }

  double total = std::accumulate(masses, masses + m, 0.0);
  UDT_DCHECK(total > 0.0);

  double* cumulative = masses + m;
  KahanSum running;
  KahanSum mean_sum;
  for (int i = 0; i < m; ++i) {
    masses[i] /= total;
    running.Add(masses[i]);
    cumulative[i] = running.value();
    mean_sum.Add(points[i] * masses[i]);
  }
  // Force exact normalisation at the top so F(support_max) == 1.
  cumulative[m - 1] = 1.0;
  slice[0] = m;
  slice[1] = mean_sum.value();
  return m;
}

}  // namespace

StatusOr<SampledPdf> SampledPdf::Create(std::vector<double> points,
                                        std::vector<double> masses) {
  if (points.size() != masses.size()) {
    return Status::InvalidArgument("points/masses size mismatch");
  }
  if (points.empty()) {
    return Status::InvalidArgument("pdf requires at least one sample point");
  }
  const int n = static_cast<int>(points.size());
  PdfBlockWriter block;
  const PdfBlockWriter::RawPdf raw = block.Stage(n);
  std::copy(points.begin(), points.end(), raw.points);
  std::copy(masses.begin(), masses.end(), raw.masses);
  UDT_RETURN_NOT_OK(block.Commit());
  block.Seal();
  return block.pdf(0);
}

SampledPdf SampledPdf::PointMass(double x) {
  PdfBlockWriter block;
  block.AppendPointMass(x);
  block.Seal();
  return block.pdf(0);
}

double SampledPdf::Variance() const {
  const double* points = points_data();
  const double mean = Mean();
  KahanSum sum;
  for (int i = 0; i < num_points(); ++i) {
    double d = points[i] - mean;
    sum.Add(d * d * mass(i));
  }
  return sum.value();
}

double SampledPdf::CdfAtOrBelow(double z) const {
  // Index of the last point <= z.
  const int last = FirstPointAbove(z) - 1;
  return last < 0 ? 0.0 : cumulative_data()[last];
}

double SampledPdf::MassInHalfOpen(double lo, double hi) const {
  if (hi <= lo) return 0.0;
  return CdfAtOrBelow(hi) - CdfAtOrBelow(lo);
}

int SampledPdf::FirstPointAbove(double z) const {
  const double* points = points_data();
  return static_cast<int>(std::upper_bound(points, points + num_points(), z) -
                          points);
}

std::string SampledPdf::ToString() const {
  std::string out = "{";
  for (int i = 0; i < num_points(); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("%g:%g", point(i), mass(i));
  }
  out += "}";
  return out;
}

void PdfBlockWriter::Open(size_t capacity) {
  block_.reset();
  capacity_ = 0;
  used_ = 0;
  staged_ = 0;
  offsets_.clear();
  Resize(capacity);
}

void PdfBlockWriter::Resize(size_t capacity) {
  std::shared_ptr<double[]> block;
  if (capacity > 0) {
    block = std::make_shared_for_overwrite<double[]>(capacity);
    std::copy(block_.get(), block_.get() + used_, block.get());
  }
  block_ = std::move(block);
  capacity_ = capacity;
}

double* PdfBlockWriter::Reserve(size_t size) {
  UDT_DCHECK(staged_ == 0);
  if (used_ + size > capacity_) {
    Resize(std::max(used_ + size, 2 * capacity_));
  }
  return block_.get() + used_;
}

PdfBlockWriter::RawPdf PdfBlockWriter::Stage(int n) {
  UDT_CHECK(n >= 1);
  double* slice = Reserve(SampledPdf::SliceSize(n));
  staged_ = n;
  return RawPdf{slice + SampledPdf::kHeader,
                slice + SampledPdf::kHeader + n};
}

Status PdfBlockWriter::Commit() {
  UDT_CHECK(staged_ >= 1);
  const int n = staged_;
  staged_ = 0;
  UDT_ASSIGN_OR_RETURN(const int m, NormalizeSlice(block_.get() + used_, n));
  offsets_.push_back(used_);
  used_ += SampledPdf::SliceSize(m);
  return Status::OK();
}

void PdfBlockWriter::AppendPointMass(double x) {
  UDT_CHECK(std::isfinite(x));
  double* slice = Reserve(SampledPdf::SliceSize(1));
  // [n = 1, mean = x | point x | mass 1 | cumulative 1]
  slice[0] = 1.0;
  slice[1] = x;
  slice[2] = x;
  slice[3] = 1.0;
  slice[4] = 1.0;
  offsets_.push_back(used_);
  used_ += SampledPdf::SliceSize(1);
}

void PdfBlockWriter::Append(const SampledPdf& pdf) {
  const size_t size = SampledPdf::SliceSize(pdf.num_points());
  double* slice = Reserve(size);
  std::copy(pdf.slice(), pdf.slice() + size, slice);
  offsets_.push_back(used_);
  used_ += size;
}

void PdfBlockWriter::Seal() {
  UDT_CHECK(staged_ == 0);
  if (used_ != capacity_) Resize(used_);
}

}  // namespace udt
