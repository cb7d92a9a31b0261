#include "api/predict_session.h"

#include <algorithm>
#include <utility>

#include "api/forest.h"
#include "common/logging.h"
#include "common/statusor.h"
#include "common/string_util.h"

namespace udt {

namespace {

// Micro-batch grain: the minimum tuples one worker shard is worth. Small
// batches then occupy ceil(n / grain) workers instead of fanning single
// tuples across the whole pool. Scaled down by the tree count (each tuple
// carries one traversal per tree), never below one tuple.
constexpr size_t kShardGrain = 8;

// Resolves a PredictOptions::num_threads request against a batch size:
// negative is an InvalidArgument error, 0 means one per hardware thread
// (TaskPool::EffectiveConcurrency owns that resolution rule, including
// the hardware_concurrency() == 0 fallback, so the training and serving
// paths cannot drift), and the result is clamped to [1, batch_size]. The
// clamp compares in size_t space: narrowing batch_size to int first would
// overflow for batches beyond INT_MAX tuples.
StatusOr<int> ResolveThreads(int num_threads, size_t batch_size) {
  if (num_threads < 0) {
    return Status::InvalidArgument(
        StrFormat("PredictOptions::num_threads must be >= 0, got %d "
                  "(0 = one per hardware thread)",
                  num_threads));
  }
  if (num_threads == 0) {
    num_threads = TaskPool::EffectiveConcurrency(0);
  }
  if (batch_size < static_cast<size_t>(num_threads)) {
    num_threads = static_cast<int>(batch_size);
  }
  return std::max(num_threads, 1);
}

// Argmax of one row (ties -> lowest class id), as udt::ArgMax.
int RowArgMax(const double* row, size_t k) {
  size_t best = 0;
  for (size_t c = 1; c < k; ++c) {
    if (row[c] > row[best]) best = c;
  }
  return static_cast<int>(best);
}

}  // namespace

PredictSession::PredictSession(CompiledForest forest)
    : forest_(std::move(forest)) {}

PredictSession::WorkerScratch* PredictSession::ScratchFor(size_t index) {
  while (scratch_.size() <= index) {
    scratch_.push_back(std::make_unique<WorkerScratch>());
  }
  return scratch_[index].get();
}

TaskPool* PredictSession::EnsureExecutor(int num_threads) {
  if (num_threads <= 1) return nullptr;
  const int needed_workers = num_threads - 1;
  if (pool_ == nullptr || pool_->num_workers() < needed_workers) {
    pool_.reset();  // join the smaller pool before spawning the new one
    pool_ = std::make_unique<TaskPool>(needed_workers);
  }
  // Scratch must exist before workers can touch it: slot creation mutates
  // session state that is not safe to grow concurrently.
  for (int s = 0; s < pool_->num_slots(); ++s) {
    ScratchFor(static_cast<size_t>(s));
  }
  return pool_.get();
}

void PredictSession::ClassifyBlock(WorkerScratch* scratch,
                                   const UncertainTuple* const* tuples,
                                   double* rows, size_t count) {
  const size_t k = static_cast<size_t>(num_classes());
  const bool averaging = forest_.kind() == ModelKind::kAveraging;
  const ForestVote vote = forest_.vote();
  std::fill(rows, rows + count * k, 0.0);
  scratch->tree_rows.resize(count * k);
  std::vector<double*>& tree_rows = scratch->tree_row_ptrs;
  tree_rows.resize(count);
  for (size_t i = 0; i < count; ++i) {
    tree_rows[i] = scratch->tree_rows.data() + i * k;
  }
  // Tree-outer: one kernel pass per tree over the whole block, votes
  // folded in per tuple before the next tree. Any single tuple sees zero
  // → per-tree accumulation in tree order → one final division, exactly
  // ForestModel::ClassifyDistribution's float sequence.
  for (const FlatTree& tree : forest_.trees()) {
    if (averaging) {
      for (size_t i = 0; i < count; ++i) {
        ClassifyFlatMeans(tree, *tuples[i], &scratch->traversal,
                          tree_rows[i]);
      }
    } else {
      ClassifyFlatBatch(tree, tuples, tree_rows.data(), count,
                        &scratch->traversal);
    }
    for (size_t i = 0; i < count; ++i) {
      AccumulateForestVote(vote, tree_rows[i], static_cast<int>(k),
                           rows + i * k);
    }
  }
  const double trees = static_cast<double>(forest_.num_trees());
  for (size_t j = 0; j < count * k; ++j) rows[j] /= trees;
}

template <typename TupleAt>
Status PredictSession::ClassifyBatch(size_t n, TupleAt tuple_at,
                                     const PredictOptions& options,
                                     FlatBatchResult* out) {
  UDT_CHECK(out != nullptr);
  UDT_RETURN_NOT_OK(options.Validate());
  UDT_ASSIGN_OR_RETURN(int num_threads, ResolveThreads(options.num_threads, n));
  for (size_t i = 0; i < n; ++i) {
    Status valid = ValidateTupleValues(forest_.schema(), tuple_at(i));
    if (!valid.ok()) {
      return Status::InvalidArgument(
          StrFormat("batch tuple %zu: %s", i, valid.message().c_str()));
    }
  }

  const size_t k = static_cast<size_t>(num_classes());
  out->num_classes = num_classes();
  out->distributions.resize(n * k);
  out->labels.resize(n);
  double* rows = out->distributions.data();
  int* labels = out->labels.data();
  if (n == 0) return Status::OK();
  auto classify_range = [&](int worker, size_t begin, size_t end) {
    WorkerScratch* scratch = ScratchFor(static_cast<size_t>(worker));
    scratch->tuple_ptrs.resize(end - begin);
    for (size_t i = begin; i < end; ++i) {
      scratch->tuple_ptrs[i - begin] = &tuple_at(i);
    }
    ClassifyBlock(scratch, scratch->tuple_ptrs.data(), rows + begin * k,
                  end - begin);
    for (size_t i = begin; i < end; ++i) {
      labels[i] = RowArgMax(rows + i * k, k);
    }
  };

  TaskPool* pool = EnsureExecutor(num_threads);
  if (pool == nullptr) {
    classify_range(0, 0, n);
  } else {
    const size_t grain = std::max<size_t>(
        1, kShardGrain / static_cast<size_t>(forest_.num_trees()));
    pool->ParallelFor(n, grain, num_threads, classify_range);
  }
  return Status::OK();
}

void PredictSession::ClassifyInto(const UncertainTuple& tuple, double* out) {
  UDT_CHECK(tuple.values.size() ==
            static_cast<size_t>(forest_.schema().num_attributes()));
  const UncertainTuple* tuples[] = {&tuple};
  ClassifyBlock(ScratchFor(0), tuples, out, 1);
}

Status PredictSession::PredictBatchInto(
    std::span<const UncertainTuple> tuples, const PredictOptions& options,
    FlatBatchResult* out) {
  return ClassifyBatch(
      tuples.size(),
      [&tuples](size_t i) -> const UncertainTuple& { return tuples[i]; },
      options, out);
}

Status PredictSession::PredictBatchInto(
    std::span<const UncertainTuple* const> tuples,
    const PredictOptions& options, FlatBatchResult* out) {
  for (const UncertainTuple* tuple : tuples) UDT_CHECK(tuple != nullptr);
  return ClassifyBatch(
      tuples.size(),
      [&tuples](size_t i) -> const UncertainTuple& { return *tuples[i]; },
      options, out);
}

}  // namespace udt
