// SampledPdf: the paper's representation of an uncertain attribute value.
//
// Section 3.2: "a pdf would be implemented numerically by storing a set of s
// sample points x in [a,b] with the associated value f(x), effectively
// approximating f by a discrete distribution with s possible values."
//
// SampledPdf is exactly that discrete distribution: sorted sample points
// with strictly positive masses summing to one, plus a prefix-sum array so
// that P(X <= z) — the integral the tree algorithms evaluate at every
// candidate split — costs O(log s) ("by storing the pdf in the form of a
// cumulative distribution, the integration can be done by simply
// subtracting two cumulative probabilities", Section 4.2).

#ifndef UDT_PDF_PDF_H_
#define UDT_PDF_PDF_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"

namespace udt {

// Immutable discrete probability distribution over a bounded support.
//
// A SampledPdf is a handle to one slice of doubles laid out as
// [n, mean | points[n] | masses[n] | cumulative[n]], inside a heap block
// that several pdfs may share (PdfBlockWriter below: an injected tuple
// keeps all its pdfs in one block). Copying a pdf shares its slice; the
// block lives until its last handle goes.
class SampledPdf {
 public:
  // Builds a pdf from parallel arrays of sample points and non-negative
  // masses. Points need not be sorted or unique: they are sorted, duplicates
  // are merged and zero-mass points dropped. Masses are renormalised to sum
  // to one. Input that is already strictly ascending with positive masses
  // (every grid factory's) skips the sort and is normalised in place, with
  // bit-identical results. Fails if the arrays mismatch, are empty, contain
  // non-finite values, or carry no positive mass. The pdf gets a block of
  // its own.
  static StatusOr<SampledPdf> Create(std::vector<double> points,
                                     std::vector<double> masses);

  // A distribution concentrated at a single value (a certain attribute).
  static SampledPdf PointMass(double x);

  // Doubles ahead of a slice's points: n and the mean.
  static constexpr size_t kHeader = 2;

  // Doubles in the slice of a pdf with n sample points.
  static constexpr size_t SliceSize(int n) {
    return kHeader + 3 * static_cast<size_t>(n);
  }

  // Number of distinct sample points (the paper's s, after deduplication).
  int num_points() const { return static_cast<int>(slice_[0]); }

  // i-th sample point, ascending order. Requires 0 <= i < num_points().
  double point(int i) const { return points_data()[i]; }

  // Mass at the i-th sample point; strictly positive.
  double mass(int i) const { return points_data()[num_points() + i]; }

  // Smallest / largest sample point: the support [a_ij, b_ij] of the paper.
  double support_min() const { return points_data()[0]; }
  double support_max() const { return points_data()[num_points() - 1]; }

  // True if the whole mass sits on one point.
  bool is_point() const { return num_points() == 1; }

  // Expected value (the representative value used by the AVG approach).
  double Mean() const { return slice_[1]; }

  // Variance of the discrete distribution.
  double Variance() const;

  // P(X <= z), in O(log s).
  double CdfAtOrBelow(double z) const;

  // Raw array views for the branchless batch kernels (pdf/pdf_kernels.h):
  // num_points() ascending unique sample points and their prefix-sum
  // cumulative masses (cumulative_data()[num_points()-1] is exactly 1.0).
  const double* points_data() const { return slice_.get() + kHeader; }
  const double* cumulative_data() const {
    return points_data() + 2 * num_points();
  }

  // P(lo < X <= hi) = F(hi) - F(lo). Returns 0 when hi <= lo.
  double MassInHalfOpen(double lo, double hi) const;

  // Index of the first sample point strictly greater than z, or num_points()
  // if none. Used by the split scanners to enumerate candidates.
  int FirstPointAbove(double z) const;

  // Identity of the shared slice: equal for a pdf and its copies.
  const double* slice() const { return slice_.get(); }

  // Human-readable one-line summary, e.g. "{-1:0.625, 1:0.125, 10:0.25}".
  std::string ToString() const;

  // Bytes of this pdf's slice, SliceSize(num_points()) doubles. The handle
  // lives in its owner, and a block's shared header is not counted. The
  // storage tier's memory accounting (table/dataset.h MemoryBreakdown) sums
  // this per distinct slice.
  size_t MemoryUsageBytes() const {
    return sizeof(double) * SliceSize(num_points());
  }

 private:
  friend class PdfBlockWriter;

  explicit SampledPdf(std::shared_ptr<const double[]> slice)
      : slice_(std::move(slice)) {}

  std::shared_ptr<const double[]> slice_;
};

// Writes pdfs into one heap block whose pdfs then share it: a tuple's
// pdfs live side by side and cost one allocation. Stage a raw pdf and
// Commit it (Create's normalisation, in place), or append a finished one;
// Seal the block, then take handles with pdf(i). Not thread-safe: one
// thread writes a block. Open starts the next block.
class PdfBlockWriter {
 public:
  // The raw arrays of a staged pdf, n entries each.
  struct RawPdf {
    double* points;
    double* masses;
  };

  // Starts a new block with room for `capacity` doubles (the sum of
  // SampledPdf::SliceSize over the pdfs to come); it grows if that is
  // short. Drops this writer's hold on the previous block. A fresh writer
  // is open with capacity 0, so its first pdf sizes the block exactly.
  void Open(size_t capacity);

  // Stages a pdf of n >= 1 raw sample points: write both arrays, then call
  // Commit before anything else.
  RawPdf Stage(int n);

  // Normalises the staged pdf exactly as SampledPdf::Create would (same
  // validation, same operations in the same order). On failure the staged
  // pdf is dropped and the block is unchanged.
  Status Commit();

  // A point mass at finite x (SampledPdf::PointMass).
  void AppendPointMass(double x);

  // A verbatim copy of `pdf`.
  void Append(const SampledPdf& pdf);

  int num_pdfs() const { return static_cast<int>(offsets_.size()); }

  // Ends the block, trimming it to the slices written.
  void Seal();

  // The i-th pdf written. Requires Seal() and 0 <= i < num_pdfs().
  SampledPdf pdf(int i) const {
    return SampledPdf(std::shared_ptr<const double[]>(
        block_, block_.get() + offsets_[static_cast<size_t>(i)]));
  }

 private:
  // Makes room for `size` more doubles.
  double* Reserve(size_t size);
  void Resize(size_t capacity);

  std::shared_ptr<double[]> block_;
  size_t capacity_ = 0;
  size_t used_ = 0;
  int staged_ = 0;  // points of the staged pdf, 0 when none
  std::vector<size_t> offsets_;
};

}  // namespace udt

#endif  // UDT_PDF_PDF_H_
