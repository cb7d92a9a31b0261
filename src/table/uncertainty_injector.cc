#include "table/uncertainty_injector.h"

#include <cmath>

#include "common/string_util.h"
#include "common/task_pool.h"
#include "pdf/pdf_builder.h"

namespace udt {

const char* ErrorModelToString(ErrorModel model) {
  switch (model) {
    case ErrorModel::kGaussian:
      return "Gaussian";
    case ErrorModel::kUniform:
      return "Uniform";
  }
  return "Unknown";
}

Status AppendErrorPdf(ErrorModel model, double value, double width, int s,
                      PdfBlockWriter* block) {
  return model == ErrorModel::kGaussian
             ? AppendGaussianErrorPdf(value, width, s, block)
             : AppendUniformErrorPdf(value, width, s, block);
}

StatusOr<Dataset> InjectUncertainty(const PointDataset& points,
                                    const UncertaintyOptions& options,
                                    int num_threads) {
  if (options.width_fraction < 0.0) {
    return Status::InvalidArgument("width_fraction must be >= 0");
  }
  if (options.samples_per_pdf < 1) {
    return Status::InvalidArgument("samples_per_pdf must be >= 1");
  }
  if (points.num_tuples() == 0) {
    return Status::InvalidArgument("cannot inject uncertainty into an empty "
                                   "data set");
  }
  for (int i = 0; i < points.num_tuples(); ++i) {
    for (int j = 0; j < points.num_attributes(); ++j) {
      if (points.is_missing(i, j)) {
        return Status::InvalidArgument(StrFormat(
            "row %d attribute %s is missing ('?'); use "
            "InjectUncertaintyWithMissing to fill missing values",
            i + 1, points.schema().attribute(j).name.c_str()));
      }
    }
  }

  // Pre-compute the pdf width per attribute: w * |Aj|.
  std::vector<double> widths(static_cast<size_t>(points.num_attributes()));
  for (int j = 0; j < points.num_attributes(); ++j) {
    auto [lo, hi] = points.AttributeRange(j);
    widths[static_cast<size_t>(j)] = options.width_fraction * (hi - lo);
  }

  return BuildUncertainTuples(
      points, options.samples_per_pdf,
      [&](int i, int j, PdfBlockWriter* block) {
        return AppendErrorPdf(options.error_model, points.value(i, j),
                              widths[static_cast<size_t>(j)],
                              options.samples_per_pdf, block);
      },
      num_threads);
}

StatusOr<Dataset> BuildUncertainTuples(const PointDataset& points,
                                       int samples_per_pdf,
                                       const PdfFactory& write_pdf,
                                       int num_threads) {
  const size_t n = static_cast<size_t>(points.num_tuples());
  const int k = points.num_attributes();
  const size_t block_capacity =
      static_cast<size_t>(k) * SampledPdf::SliceSize(samples_per_pdf);
  // Index-addressed slots: whichever thread builds tuple i writes only
  // tuples[i] and errors[i], and only that thread writes tuple i's block,
  // so the result cannot depend on scheduling.
  std::vector<UncertainTuple> tuples(n);
  std::vector<Status> errors(n);
  auto build = [&](int /*slot*/, size_t begin, size_t end) {
    PdfBlockWriter block;
    for (size_t i = begin; i < end; ++i) {
      block.Open(block_capacity);
      for (int j = 0; j < k; ++j) {
        Status status = write_pdf(static_cast<int>(i), j, &block);
        if (!status.ok()) {
          // The append below stops at this tuple, so the rest of the
          // chunk is never read.
          errors[i] = std::move(status);
          return;
        }
      }
      block.Seal();
      UncertainTuple& tuple = tuples[i];
      tuple.label = points.label(static_cast<int>(i));
      tuple.values.reserve(static_cast<size_t>(k));
      for (int j = 0; j < k; ++j) {
        tuple.values.push_back(UncertainValue::Numerical(block.pdf(j)));
      }
    }
  };
  const int64_t work = static_cast<int64_t>(n) * k * samples_per_pdf;
  const int width = TaskPool::EffectiveConcurrency(num_threads);
  if (width > 1 && work >= kMinSamplePointsForParallelInject) {
    TaskPool pool(width - 1);
    pool.ParallelFor(n, /*grain=*/1, build);
  } else {
    build(/*slot=*/0, 0, n);
  }

  Dataset dataset(points.schema());
  for (size_t i = 0; i < n; ++i) {
    UDT_RETURN_NOT_OK(errors[i]);
    UDT_RETURN_NOT_OK(dataset.AddTuple(std::move(tuples[i])));
  }
  return dataset;
}

PointDataset PerturbPointData(const PointDataset& points, double u, Rng* rng) {
  UDT_CHECK(u >= 0.0);
  UDT_CHECK(rng != nullptr);
  PointDataset result(points.schema());
  if (points.num_tuples() == 0) return result;

  std::vector<double> sigmas(static_cast<size_t>(points.num_attributes()));
  for (int j = 0; j < points.num_attributes(); ++j) {
    auto [lo, hi] = points.AttributeRange(j);
    sigmas[static_cast<size_t>(j)] = u * (hi - lo) / 4.0;
  }

  for (int i = 0; i < points.num_tuples(); ++i) {
    std::vector<double> row = points.row(i);
    for (int j = 0; j < points.num_attributes(); ++j) {
      double sigma = sigmas[static_cast<size_t>(j)];
      if (sigma > 0.0) {
        row[static_cast<size_t>(j)] += rng->Gaussian(0.0, sigma);
      }
    }
    Status st = result.AddRow(std::move(row), points.label(i));
    UDT_CHECK(st.ok());
  }
  return result;
}

}  // namespace udt
