// Uncertain data sets: tuples whose feature vector is a vector of pdfs
// (Section 3.2), the container the tree algorithms train and test on.

#ifndef UDT_TABLE_DATASET_H_
#define UDT_TABLE_DATASET_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/statusor.h"
#include "pdf/pdf.h"
#include "table/attribute.h"

namespace udt {

// Discrete probability distribution over category ids 0..n-1 for an
// uncertain categorical attribute (Section 7.2).
class CategoricalPdf {
 public:
  // Builds from per-category probabilities (renormalised; must have >= 2
  // entries and positive total mass).
  static StatusOr<CategoricalPdf> Create(std::vector<double> probabilities);

  // All mass on one category.
  static CategoricalPdf Certain(int category, int num_categories);

  int num_categories() const {
    return static_cast<int>(probabilities_.size());
  }
  double probability(int category) const {
    return probabilities_[static_cast<size_t>(category)];
  }
  // Category with the highest probability (ties -> lowest id).
  int MostLikely() const;

 private:
  explicit CategoricalPdf(std::vector<double> probabilities)
      : probabilities_(std::move(probabilities)) {}

  std::vector<double> probabilities_;
};

// One attribute value of an uncertain tuple: either a numerical pdf or a
// categorical distribution.
//
// A numerical value holds its SampledPdf handle inline: copying a value
// (fold splits, bootstrap views, retrain windows) shares the pdf's sample
// slice instead of duplicating it. An injected tuple's pdfs share one block
// (pdf/pdf.h PdfBlockWriter), and values decoded from the same dictionary
// entry of a quantized container (storage/quantized_dataset.h) share one
// slice outright. Dataset::MemoryUsageBytes counts each distinct slice once.
class UncertainValue {
 public:
  static UncertainValue Numerical(SampledPdf pdf) {
    return UncertainValue(std::move(pdf));
  }
  static UncertainValue Categorical(CategoricalPdf pdf) {
    return UncertainValue(std::move(pdf));
  }

  bool is_numerical() const {
    return std::holds_alternative<SampledPdf>(value_);
  }

  // Requires is_numerical().
  const SampledPdf& pdf() const { return std::get<SampledPdf>(value_); }

  // Identity of the pdf's sample slice (memory accounting and sharing
  // introspection). Requires is_numerical().
  const double* pdf_instance() const { return pdf().slice(); }

  // Requires !is_numerical().
  const CategoricalPdf& categorical() const {
    return std::get<CategoricalPdf>(value_);
  }

 private:
  explicit UncertainValue(SampledPdf pdf) : value_(std::move(pdf)) {}
  explicit UncertainValue(CategoricalPdf pdf) : value_(std::move(pdf)) {}

  std::variant<SampledPdf, CategoricalPdf> value_;
};

// A value is a pdf handle or a probability vector, never more: tuples are
// vectors of values, and the data sets hold hundreds of thousands of them.
static_assert(sizeof(UncertainValue) <= 32);

// A training/testing tuple: k uncertain values plus a class label id.
struct UncertainTuple {
  std::vector<UncertainValue> values;
  int label = 0;
};

// Checks `tuple`'s values against `schema`: the value count, each value's
// kind (numerical pdf vs categorical distribution) and each categorical
// distribution's width. The label is not checked — serving tuples may be
// unlabelled. Every traversal assumes these invariants, so the serving
// entry points run this before classifying; Dataset::AddTuple runs it
// too.
Status ValidateTupleValues(const Schema& schema, const UncertainTuple& tuple);

// Reduces every value of `tuple` to a certain one: numerical pdfs become a
// point mass at their mean, categorical distributions collapse to their
// most likely category (the Averaging view of a tuple, Section 4.1).
UncertainTuple TupleToMeans(const UncertainTuple& tuple);

// In-memory footprint of a Dataset, split by where the bytes live. A
// numerical value's pdf handle sits inside its UncertainValue (tuple
// bytes); its samples are a slice of SampledPdf::SliceSize(n) doubles
// in a shared block. Each distinct slice is counted once under
// `pdf_bytes`; what sharing saves is visible as the gap to
// `unshared_pdf_bytes` (the footprint the same data would have if every
// value owned a private slice — the figure the storage-tier memory budget
// is compared against). Blocks' allocator and refcount headers are not
// counted.
struct DatasetMemoryBreakdown {
  int64_t num_tuples = 0;
  int64_t num_values = 0;          // tuple values across all tuples
  int64_t unique_pdfs = 0;         // distinct pdf sample slices
  size_t tuple_bytes = 0;          // tuple structs + values (pdf handles)
  size_t pdf_bytes = 0;            // distinct pdf slices, counted once
  size_t unshared_pdf_bytes = 0;   // pdf slices counted per reference
  size_t categorical_bytes = 0;    // categorical probability vectors
  // tuple_bytes + pdf_bytes + categorical_bytes (== MemoryUsageBytes()).
  size_t total_bytes = 0;
  // tuple_bytes + unshared_pdf_bytes + categorical_bytes: the footprint
  // without slice sharing.
  size_t unshared_total_bytes = 0;
  // Mean bytes per tuple under each accounting.
  double bytes_per_tuple = 0.0;
  double unshared_bytes_per_tuple = 0.0;
};

// An uncertain data set: schema plus tuples. Copyable; folds and splits
// produce independent Dataset values sharing nothing mutable.
class Dataset {
 public:
  explicit Dataset(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  int num_attributes() const { return schema_.num_attributes(); }
  int num_classes() const { return schema_.num_classes(); }
  int num_tuples() const { return static_cast<int>(tuples_.size()); }
  bool empty() const { return tuples_.empty(); }

  const UncertainTuple& tuple(int i) const {
    return tuples_[static_cast<size_t>(i)];
  }
  const std::vector<UncertainTuple>& tuples() const { return tuples_; }

  // Appends a tuple. Fails if the values (see ValidateTupleValues) or the
  // label do not match the schema.
  Status AddTuple(UncertainTuple tuple);

  // [min, max] over the supports of attribute j across all tuples (the
  // attribute's observed domain |Aj|). Requires a numerical attribute and a
  // non-empty data set.
  std::pair<double, double> AttributeRange(int j) const;

  // Number of tuples per class label.
  std::vector<int> ClassHistogram() const;

  // Heap + struct footprint of the data set, counting each shared pdf
  // slice once (see DatasetMemoryBreakdown). Excludes the schema.
  size_t MemoryUsageBytes() const;

  // The per-component breakdown behind MemoryUsageBytes, including the
  // per-tuple averages the compression bench and docs report.
  DatasetMemoryBreakdown MemoryBreakdown() const;

  // MemoryBreakdown().unshared_total_bytes alone: the same per-value sum,
  // without the distinct-slice set only the pooled figure needs.
  size_t UnsharedMemoryUsageBytes() const;

  // Replaces every numerical pdf by a point mass at its mean: the data the
  // Averaging approach trains on (Section 4.1).
  Dataset ToMeans() const;

  // Assigns each tuple to one of `k` folds, stratified by class so every
  // fold sees the same label mix (used for the paper's 10-fold cross
  // validation). Returns fold id per tuple. Requires k >= 2.
  std::vector<int> StratifiedFolds(int k, Rng* rng) const;

  // Partitions into (train, test): tuples with fold_of[i] == test_fold go to
  // test, the rest to train.
  std::pair<Dataset, Dataset> SplitByFold(const std::vector<int>& fold_of,
                                          int test_fold) const;

  // Random split: roughly `test_fraction` of tuples (stratified by class)
  // form the test set.
  std::pair<Dataset, Dataset> RandomSplit(double test_fraction,
                                          Rng* rng) const;

 private:
  Schema schema_;
  std::vector<UncertainTuple> tuples_;
};

// Running pooled footprint of one Dataset that only grows by AddTuple.
// Update accounts the tuples added since its previous call and returns
// the footprint, which equals data.MemoryUsageBytes() exactly: a caller
// that checks the footprint after every appended chunk walks each value
// once instead of recounting the whole data set per chunk.
class DatasetFootprint {
 public:
  size_t Update(const Dataset& data);

 private:
  size_t accounted_tuples_ = 0;
  // The accounted tuples' values (tuple_bytes holds their value handles
  // only; the tuple array is re-measured by every Update).
  DatasetMemoryBreakdown values_;
  std::unordered_set<const double*> seen_;
};

}  // namespace udt

#endif  // UDT_TABLE_DATASET_H_
