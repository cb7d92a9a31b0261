#include "table/missing.h"

#include <cmath>

#include "common/string_util.h"
#include "pdf/pdf_builder.h"
#include "pdf/pdf_ops.h"

namespace udt {

namespace {

// Mean of present values of attribute j; nullopt if none.
std::optional<double> PresentMean(const PointDataset& points, int j,
                                  int restrict_label) {
  double sum = 0.0;
  int count = 0;
  for (int i = 0; i < points.num_tuples(); ++i) {
    if (restrict_label >= 0 && points.label(i) != restrict_label) continue;
    if (points.is_missing(i, j)) continue;
    sum += points.value(i, j);
    ++count;
  }
  if (count == 0) return std::nullopt;
  return sum / count;
}

}  // namespace

StatusOr<PointDataset> ImputeMissingValues(const PointDataset& points,
                                           ImputeStrategy strategy) {
  // Precompute global and per-class means.
  std::vector<std::optional<double>> global_mean(
      static_cast<size_t>(points.num_attributes()));
  for (int j = 0; j < points.num_attributes(); ++j) {
    global_mean[static_cast<size_t>(j)] = PresentMean(points, j, -1);
    if (!global_mean[static_cast<size_t>(j)].has_value()) {
      return Status::InvalidArgument(StrFormat(
          "attribute %d has no present value to impute from", j));
    }
  }
  std::vector<std::vector<std::optional<double>>> class_mean;
  if (strategy == ImputeStrategy::kClassMean) {
    class_mean.resize(static_cast<size_t>(points.num_classes()));
    for (int c = 0; c < points.num_classes(); ++c) {
      class_mean[static_cast<size_t>(c)].resize(
          static_cast<size_t>(points.num_attributes()));
      for (int j = 0; j < points.num_attributes(); ++j) {
        class_mean[static_cast<size_t>(c)][static_cast<size_t>(j)] =
            PresentMean(points, j, c);
      }
    }
  }

  PointDataset result(points.schema());
  for (int i = 0; i < points.num_tuples(); ++i) {
    std::vector<double> row = points.row(i);
    for (int j = 0; j < points.num_attributes(); ++j) {
      if (!std::isnan(row[static_cast<size_t>(j)])) continue;
      std::optional<double> guess;
      if (strategy == ImputeStrategy::kClassMean) {
        guess = class_mean[static_cast<size_t>(points.label(i))]
                          [static_cast<size_t>(j)];
      }
      if (!guess.has_value()) guess = global_mean[static_cast<size_t>(j)];
      row[static_cast<size_t>(j)] = *guess;
    }
    UDT_RETURN_NOT_OK(result.AddRow(std::move(row), points.label(i)));
  }
  return result;
}

StatusOr<Dataset> InjectUncertaintyWithMissing(
    const PointDataset& points, const MissingPdfOptions& options) {
  if (points.num_tuples() == 0) {
    return Status::InvalidArgument("empty data set");
  }
  const UncertaintyOptions& inject = options.inject;
  if (inject.samples_per_pdf < 1) {
    return Status::InvalidArgument("samples_per_pdf must be >= 1");
  }

  // Pdf widths per attribute, over present values only.
  std::vector<double> widths(static_cast<size_t>(points.num_attributes()));
  for (int j = 0; j < points.num_attributes(); ++j) {
    auto [lo, hi] = points.AttributeRange(j);
    widths[static_cast<size_t>(j)] = inject.width_fraction * (hi - lo);
  }

  auto make_pdf = [&](double value, int j) -> StatusOr<SampledPdf> {
    double width = widths[static_cast<size_t>(j)];
    return inject.error_model == ErrorModel::kGaussian
               ? MakeGaussianErrorPdf(value, width, inject.samples_per_pdf)
               : MakeUniformErrorPdf(value, width, inject.samples_per_pdf);
  };

  // Guess distributions: mixture of present pdfs, per attribute (and
  // optionally per class), downsampled to s points.
  int num_slices = options.class_conditional ? points.num_classes() : 1;
  std::vector<std::vector<std::optional<SampledPdf>>> guesses(
      static_cast<size_t>(num_slices));
  for (int slice = 0; slice < num_slices; ++slice) {
    guesses[static_cast<size_t>(slice)].resize(
        static_cast<size_t>(points.num_attributes()));
    for (int j = 0; j < points.num_attributes(); ++j) {
      std::vector<SampledPdf> present;
      for (int i = 0; i < points.num_tuples(); ++i) {
        if (options.class_conditional && points.label(i) != slice) continue;
        if (points.is_missing(i, j)) continue;
        UDT_ASSIGN_OR_RETURN(SampledPdf pdf, make_pdf(points.value(i, j), j));
        present.push_back(std::move(pdf));
      }
      if (present.empty()) {
        if (options.class_conditional) continue;  // fall back below
        return Status::InvalidArgument(StrFormat(
            "attribute %d has no present value to build a guess pdf", j));
      }
      UDT_ASSIGN_OR_RETURN(SampledPdf mixture, MixPdfs(present));
      UDT_ASSIGN_OR_RETURN(
          SampledPdf guess,
          DownsamplePdf(mixture, inject.samples_per_pdf));
      guesses[static_cast<size_t>(slice)][static_cast<size_t>(j)] =
          std::move(guess);
    }
  }
  // Global fallback mixtures for class-conditional mode.
  std::vector<std::optional<SampledPdf>> global_guess(
      static_cast<size_t>(points.num_attributes()));
  if (options.class_conditional) {
    for (int j = 0; j < points.num_attributes(); ++j) {
      std::vector<SampledPdf> present;
      for (int i = 0; i < points.num_tuples(); ++i) {
        if (points.is_missing(i, j)) continue;
        UDT_ASSIGN_OR_RETURN(SampledPdf pdf, make_pdf(points.value(i, j), j));
        present.push_back(std::move(pdf));
      }
      if (present.empty()) {
        return Status::InvalidArgument(StrFormat(
            "attribute %d has no present value to build a guess pdf", j));
      }
      UDT_ASSIGN_OR_RETURN(SampledPdf mixture, MixPdfs(present));
      UDT_ASSIGN_OR_RETURN(
          SampledPdf guess,
          DownsamplePdf(mixture, inject.samples_per_pdf));
      global_guess[static_cast<size_t>(j)] = std::move(guess);
    }
  }

  return BuildUncertainTuples(
      points, inject.samples_per_pdf,
      [&](int i, int j, PdfBlockWriter* block) -> Status {
        if (!points.is_missing(i, j)) {
          return AppendErrorPdf(inject.error_model, points.value(i, j),
                                widths[static_cast<size_t>(j)],
                                inject.samples_per_pdf, block);
        }
        int slice = options.class_conditional ? points.label(i) : 0;
        const std::optional<SampledPdf>& guess =
            guesses[static_cast<size_t>(slice)][static_cast<size_t>(j)];
        const std::optional<SampledPdf>& fallback =
            options.class_conditional ? global_guess[static_cast<size_t>(j)]
                                      : guess;
        block->Append(guess.has_value() ? *guess : *fallback);
        return Status::OK();
      });
}

}  // namespace udt
