// The paper's data-preparation pipeline (Sections 4.3 and 4.4):
//
//  * InjectUncertainty — "for each tuple ti and attribute Aj, the point
//    value vij is used as the mean of a pdf fij defined over an interval of
//    width w * |Aj|", with either a uniform distribution or a Gaussian whose
//    standard deviation is a quarter of the interval width, discretised
//    into s sample points.
//  * PerturbPointData — the controlled-noise experiment: each value is
//    shifted by Gaussian noise with sigma = (u * |Aj|) / 4 before
//    uncertainty is injected, so the injected pdf may or may not match the
//    true error.

#ifndef UDT_TABLE_UNCERTAINTY_INJECTOR_H_
#define UDT_TABLE_UNCERTAINTY_INJECTOR_H_

#include <cstdint>
#include <functional>

#include "common/random.h"
#include "common/statusor.h"
#include "table/dataset.h"
#include "table/point_dataset.h"

namespace udt {

// The two error models evaluated in the paper.
enum class ErrorModel {
  kGaussian,  // random measurement noise
  kUniform,   // quantisation noise
};

const char* ErrorModelToString(ErrorModel model);

// Controls pdf synthesis.
struct UncertaintyOptions {
  // w: pdf-domain width as a fraction of the attribute's observed range.
  double width_fraction = 0.10;
  // s: number of sample points per pdf.
  int samples_per_pdf = 100;
  ErrorModel error_model = ErrorModel::kGaussian;
};

// Turns a point data set into an uncertain one: every value v becomes a pdf
// with mean v, support width = width_fraction * |Aj|. A value whose width is
// zero (width_fraction == 0, or a constant attribute) or too small to move
// the support's ends off v in floating point becomes a point mass;
// width_fraction == 0 thus makes UDT degenerate to AVG by construction.
// Fails on a missing ('?') value, naming its row and attribute: missing
// values need InjectUncertaintyWithMissing (table/missing.h).
//
// Each tuple's pdfs are written into one block that they share (pdf/pdf.h
// PdfBlockWriter), so a tuple copied out of the result keeps only its own
// samples alive. Tables of at least kMinSamplePointsForParallelInject
// sample points build their tuples on `num_threads` threads
// (TaskPool::EffectiveConcurrency: 0 means one per core); the result is
// bit-identical whatever the width.
StatusOr<Dataset> InjectUncertainty(const PointDataset& points,
                                    const UncertaintyOptions& options,
                                    int num_threads = 0);

// Injection work, in sample points (tuples x attributes x samples_per_pdf),
// below which tuples are built inline on the calling thread and no pool is
// created, so tests and small tables spawn no threads. Measured on a 4-CPU
// x86 host (Release, BM_InjectUncertainty): one sample point costs ~28 ns
// on one thread (the exp and the normalisation), so the cutoff is ~1.8 ms
// of work, against ~0.16 ms to start, run and join a 3-worker pool.
inline constexpr int64_t kMinSamplePointsForParallelInject = int64_t{1} << 16;

// Writes Section 4.3's error-model pdf for a recorded value v (support
// width `width`, s sample points) as the next pdf of `block`: what
// MakeGaussianErrorPdf / MakeUniformErrorPdf return, bit for bit.
Status AppendErrorPdf(ErrorModel model, double value, double width, int s,
                      PdfBlockWriter* block);

// Writes the pdf of (tuple i, attribute j), at most samples_per_pdf
// points, as the next pdf of `block`.
using PdfFactory = std::function<Status(int i, int j, PdfBlockWriter* block)>;

// The tuple fan-out behind InjectUncertainty and
// InjectUncertaintyWithMissing: calls write_pdf(i, j, block) for every
// value, attributes in order into one block per tuple — on `num_threads`
// threads when tuples x attributes x samples_per_pdf reaches
// kMinSamplePointsForParallelInject, inline otherwise — then appends the
// tuples, labelled as in `points`, to a Dataset in tuple order. The first
// error in tuple order is returned. write_pdf must be safe to call
// concurrently.
StatusOr<Dataset> BuildUncertainTuples(const PointDataset& points,
                                       int samples_per_pdf,
                                       const PdfFactory& write_pdf,
                                       int num_threads = 0);

// Section 4.4: returns a copy of `points` where each value is perturbed by
// N(0, sigma^2) with sigma = (u * |Aj|) / 4. u == 0 returns an exact copy.
PointDataset PerturbPointData(const PointDataset& points, double u, Rng* rng);

}  // namespace udt

#endif  // UDT_TABLE_UNCERTAINTY_INJECTOR_H_
