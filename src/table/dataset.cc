#include "table/dataset.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"

namespace udt {

StatusOr<CategoricalPdf> CategoricalPdf::Create(
    std::vector<double> probabilities) {
  if (probabilities.size() < 2) {
    return Status::InvalidArgument(
        "categorical pdf requires >= 2 categories");
  }
  double total = 0.0;
  for (double p : probabilities) {
    if (!std::isfinite(p) || p < 0.0) {
      return Status::InvalidArgument(
          "categorical probabilities must be finite and non-negative");
    }
    total += p;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("categorical pdf carries no mass");
  }
  for (double& p : probabilities) p /= total;
  return CategoricalPdf(std::move(probabilities));
}

CategoricalPdf CategoricalPdf::Certain(int category, int num_categories) {
  UDT_CHECK(num_categories >= 2);
  UDT_CHECK(category >= 0 && category < num_categories);
  std::vector<double> probabilities(static_cast<size_t>(num_categories), 0.0);
  probabilities[static_cast<size_t>(category)] = 1.0;
  return CategoricalPdf(std::move(probabilities));
}

int CategoricalPdf::MostLikely() const {
  int best = 0;
  for (int c = 1; c < num_categories(); ++c) {
    if (probability(c) > probability(best)) best = c;
  }
  return best;
}

Status ValidateTupleValues(const Schema& schema, const UncertainTuple& tuple) {
  if (static_cast<int>(tuple.values.size()) != schema.num_attributes()) {
    return Status::InvalidArgument(StrFormat(
        "tuple has %d values, schema expects %d",
        static_cast<int>(tuple.values.size()), schema.num_attributes()));
  }
  for (int j = 0; j < schema.num_attributes(); ++j) {
    const AttributeInfo& info = schema.attribute(j);
    const UncertainValue& value = tuple.values[static_cast<size_t>(j)];
    if (info.kind == AttributeKind::kNumerical && !value.is_numerical()) {
      return Status::InvalidArgument("categorical value in numerical column " +
                                     info.name);
    }
    if (info.kind == AttributeKind::kCategorical) {
      if (value.is_numerical()) {
        return Status::InvalidArgument(
            "numerical value in categorical column " + info.name);
      }
      if (value.categorical().num_categories() != info.num_categories) {
        return Status::InvalidArgument(
            "categorical cardinality mismatch in column " + info.name);
      }
    }
  }
  return Status::OK();
}

Status Dataset::AddTuple(UncertainTuple tuple) {
  UDT_RETURN_NOT_OK(ValidateTupleValues(schema_, tuple));
  if (tuple.label < 0 || tuple.label >= schema_.num_classes()) {
    return Status::InvalidArgument(
        StrFormat("label %d out of range [0, %d)", tuple.label,
                  schema_.num_classes()));
  }
  tuples_.push_back(std::move(tuple));
  return Status::OK();
}

std::pair<double, double> Dataset::AttributeRange(int j) const {
  UDT_CHECK(!tuples_.empty());
  UDT_CHECK(schema_.attribute(j).kind == AttributeKind::kNumerical);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const UncertainTuple& t : tuples_) {
    const SampledPdf& pdf = t.values[static_cast<size_t>(j)].pdf();
    lo = std::min(lo, pdf.support_min());
    hi = std::max(hi, pdf.support_max());
  }
  return {lo, hi};
}

std::vector<int> Dataset::ClassHistogram() const {
  std::vector<int> histogram(static_cast<size_t>(schema_.num_classes()), 0);
  for (const UncertainTuple& t : tuples_) {
    ++histogram[static_cast<size_t>(t.label)];
  }
  return histogram;
}

namespace {

// The data set's own struct and its tuple array.
size_t TupleArrayBytes(const std::vector<UncertainTuple>& tuples) {
  return sizeof(Dataset) + sizeof(UncertainTuple) * tuples.capacity();
}

// Adds `tuple`'s values to `b`: their handles to tuple_bytes, each pdf
// slice per reference to unshared_pdf_bytes and categorical vectors to
// categorical_bytes. With `seen`, a slice new to it also counts once
// under pdf_bytes and unique_pdfs.
void AccountValues(const UncertainTuple& tuple,
                   std::unordered_set<const double*>* seen,
                   DatasetMemoryBreakdown* b) {
  b->num_values += static_cast<int64_t>(tuple.values.size());
  b->tuple_bytes += sizeof(UncertainValue) * tuple.values.capacity();
  for (const UncertainValue& v : tuple.values) {
    if (v.is_numerical()) {
      const size_t bytes = v.pdf().MemoryUsageBytes();
      b->unshared_pdf_bytes += bytes;
      if (seen != nullptr && seen->insert(v.pdf_instance()).second) {
        b->pdf_bytes += bytes;
        ++b->unique_pdfs;
      }
    } else {
      b->categorical_bytes +=
          sizeof(double) *
          static_cast<size_t>(v.categorical().num_categories());
    }
  }
}

}  // namespace

size_t Dataset::MemoryUsageBytes() const {
  return MemoryBreakdown().total_bytes;
}

DatasetMemoryBreakdown Dataset::MemoryBreakdown() const {
  DatasetMemoryBreakdown b;
  b.num_tuples = static_cast<int64_t>(tuples_.size());
  b.tuple_bytes = TupleArrayBytes(tuples_);
  std::unordered_set<const double*> seen;
  for (const UncertainTuple& t : tuples_) AccountValues(t, &seen, &b);
  b.total_bytes = b.tuple_bytes + b.pdf_bytes + b.categorical_bytes;
  b.unshared_total_bytes =
      b.tuple_bytes + b.unshared_pdf_bytes + b.categorical_bytes;
  if (!tuples_.empty()) {
    const double n = static_cast<double>(tuples_.size());
    b.bytes_per_tuple = static_cast<double>(b.total_bytes) / n;
    b.unshared_bytes_per_tuple =
        static_cast<double>(b.unshared_total_bytes) / n;
  }
  return b;
}

size_t Dataset::UnsharedMemoryUsageBytes() const {
  DatasetMemoryBreakdown b;
  for (const UncertainTuple& t : tuples_) AccountValues(t, nullptr, &b);
  return TupleArrayBytes(tuples_) + b.tuple_bytes + b.unshared_pdf_bytes +
         b.categorical_bytes;
}

size_t DatasetFootprint::Update(const Dataset& data) {
  const std::vector<UncertainTuple>& tuples = data.tuples();
  UDT_DCHECK(accounted_tuples_ <= tuples.size());
  for (size_t i = accounted_tuples_; i < tuples.size(); ++i) {
    AccountValues(tuples[i], &seen_, &values_);
  }
  accounted_tuples_ = tuples.size();
  return TupleArrayBytes(tuples) + values_.tuple_bytes + values_.pdf_bytes +
         values_.categorical_bytes;
}

UncertainTuple TupleToMeans(const UncertainTuple& tuple) {
  UncertainTuple reduced;
  reduced.label = tuple.label;
  reduced.values.reserve(tuple.values.size());
  for (const UncertainValue& v : tuple.values) {
    if (v.is_numerical()) {
      reduced.values.push_back(
          UncertainValue::Numerical(SampledPdf::PointMass(v.pdf().Mean())));
    } else {
      // Categorical values collapse to their most likely category.
      reduced.values.push_back(UncertainValue::Categorical(
          CategoricalPdf::Certain(v.categorical().MostLikely(),
                                  v.categorical().num_categories())));
    }
  }
  return reduced;
}

Dataset Dataset::ToMeans() const {
  Dataset result(schema_);
  result.tuples_.reserve(tuples_.size());
  for (const UncertainTuple& t : tuples_) {
    result.tuples_.push_back(TupleToMeans(t));
  }
  return result;
}

std::vector<int> Dataset::StratifiedFolds(int k, Rng* rng) const {
  UDT_CHECK(k >= 2);
  UDT_CHECK(rng != nullptr);
  std::vector<int> fold_of(tuples_.size(), 0);
  // Group tuple indices by class, shuffle within class, deal round-robin.
  for (int c = 0; c < schema_.num_classes(); ++c) {
    std::vector<int> members;
    for (size_t i = 0; i < tuples_.size(); ++i) {
      if (tuples_[i].label == c) members.push_back(static_cast<int>(i));
    }
    rng->Shuffle(&members);
    for (size_t r = 0; r < members.size(); ++r) {
      fold_of[static_cast<size_t>(members[r])] =
          static_cast<int>(r % static_cast<size_t>(k));
    }
  }
  return fold_of;
}

std::pair<Dataset, Dataset> Dataset::SplitByFold(
    const std::vector<int>& fold_of, int test_fold) const {
  UDT_CHECK(fold_of.size() == tuples_.size());
  Dataset train(schema_);
  Dataset test(schema_);
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (fold_of[i] == test_fold) {
      test.tuples_.push_back(tuples_[i]);
    } else {
      train.tuples_.push_back(tuples_[i]);
    }
  }
  return {std::move(train), std::move(test)};
}

std::pair<Dataset, Dataset> Dataset::RandomSplit(double test_fraction,
                                                 Rng* rng) const {
  UDT_CHECK(test_fraction > 0.0 && test_fraction < 1.0);
  UDT_CHECK(rng != nullptr);
  Dataset train(schema_);
  Dataset test(schema_);
  for (int c = 0; c < schema_.num_classes(); ++c) {
    std::vector<int> members;
    for (size_t i = 0; i < tuples_.size(); ++i) {
      if (tuples_[i].label == c) members.push_back(static_cast<int>(i));
    }
    rng->Shuffle(&members);
    size_t num_test = static_cast<size_t>(
        std::llround(test_fraction * static_cast<double>(members.size())));
    for (size_t r = 0; r < members.size(); ++r) {
      const UncertainTuple& t = tuples_[static_cast<size_t>(members[r])];
      if (r < num_test) {
        test.tuples_.push_back(t);
      } else {
        train.tuples_.push_back(t);
      }
    }
  }
  return {std::move(train), std::move(test)};
}

}  // namespace udt
