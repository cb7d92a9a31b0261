#include "table/uncertainty_injector.h"

#include <cmath>

#include "common/string_util.h"
#include "common/task_pool.h"
#include "pdf/pdf_builder.h"

namespace udt {

namespace {

// Section 4.3's error model for one recorded value v.
StatusOr<SampledPdf> MakeErrorPdf(ErrorModel model, double v, double width,
                                  int s) {
  return model == ErrorModel::kGaussian ? MakeGaussianErrorPdf(v, width, s)
                                        : MakeUniformErrorPdf(v, width, s);
}

}  // namespace

const char* ErrorModelToString(ErrorModel model) {
  switch (model) {
    case ErrorModel::kGaussian:
      return "Gaussian";
    case ErrorModel::kUniform:
      return "Uniform";
  }
  return "Unknown";
}

StatusOr<Dataset> InjectUncertainty(const PointDataset& points,
                                    const UncertaintyOptions& options) {
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
      [&](int i, int j) -> StatusOr<UncertainValue> {
        const double v = points.value(i, j);
        const double width = widths[static_cast<size_t>(j)];
        const int s = options.samples_per_pdf;
        UDT_ASSIGN_OR_RETURN(SampledPdf pdf,
                             MakeErrorPdf(options.error_model, v, width, s));
        return UncertainValue::Numerical(std::move(pdf));
      });
}

StatusOr<Dataset> BuildUncertainTuples(const PointDataset& points,
                                       int samples_per_pdf,
                                       const ValueFactory& make_value) {
  const size_t n = static_cast<size_t>(points.num_tuples());
  const int k = points.num_attributes();
  // Index-addressed slots: whichever thread builds tuple i writes only
  // tuples[i] and errors[i], so the result cannot depend on scheduling.
  std::vector<UncertainTuple> tuples(n);
  std::vector<Status> errors(n);
  auto build = [&](int /*slot*/, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      UncertainTuple& tuple = tuples[i];
      tuple.label = points.label(static_cast<int>(i));
      tuple.values.reserve(static_cast<size_t>(k));
      for (int j = 0; j < k; ++j) {
        StatusOr<UncertainValue> value = make_value(static_cast<int>(i), j);
        if (!value.ok()) {
          // The append below stops at this tuple, so the rest of the
          // chunk is never read.
          errors[i] = value.status();
          return;
        }
        tuple.values.push_back(std::move(value).value());
      }
    }
  };
  const int64_t work = static_cast<int64_t>(n) * k * samples_per_pdf;
  const int width = TaskPool::EffectiveConcurrency(0);
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
