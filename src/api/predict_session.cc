#include "api/predict_session.h"

#include <algorithm>
#include <utility>

#include "api/forest.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"

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
    : forest_(std::move(forest)) {
  stream_.num_classes = num_classes();
}

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
                                   double* const* rows, size_t count) {
  const size_t k = static_cast<size_t>(num_classes());
  const bool averaging = forest_.kind() == ModelKind::kAveraging;
  const ForestVote vote = forest_.vote();
  for (size_t i = 0; i < count; ++i) std::fill(rows[i], rows[i] + k, 0.0);
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
      AccumulateForestVote(vote, tree_rows[i], static_cast<int>(k), rows[i]);
    }
  }
  const double trees = static_cast<double>(forest_.num_trees());
  for (size_t i = 0; i < count; ++i) {
    for (size_t c = 0; c < k; ++c) rows[i][c] /= trees;
  }
}

template <typename TupleAt, typename RowAt>
StatusOr<int> PredictSession::ClassifyBatch(size_t n, TupleAt tuple_at,
                                            RowAt row_at,
                                            const PredictOptions& options,
                                            int* labels, double* seconds) {
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
  auto classify_range = [&](int worker, size_t begin, size_t end) {
    WorkerScratch* scratch = ScratchFor(static_cast<size_t>(worker));
    // Per-tuple timing needs per-tuple kernel launches: blocks of one.
    const size_t block = seconds != nullptr ? 1 : end - begin;
    for (size_t b = begin; b < end; b += block) {
      WallTimer timer;
      scratch->tuple_ptrs.resize(block);
      scratch->row_ptrs.resize(block);
      for (size_t i = 0; i < block; ++i) {
        scratch->tuple_ptrs[i] = &tuple_at(b + i);
        scratch->row_ptrs[i] = row_at(b + i);
      }
      ClassifyBlock(scratch, scratch->tuple_ptrs.data(),
                    scratch->row_ptrs.data(), block);
      for (size_t i = 0; i < block; ++i) {
        labels[b + i] = RowArgMax(scratch->row_ptrs[i], k);
      }
      if (seconds != nullptr) seconds[b] = timer.ElapsedSeconds();
    }
  };

  TaskPool* pool = EnsureExecutor(num_threads);
  if (pool == nullptr) {
    classify_range(0, 0, n);
    return 1;
  }
  const size_t grain = std::max<size_t>(
      1, kShardGrain / static_cast<size_t>(forest_.num_trees()));
  return pool->ParallelFor(n, grain, num_threads, classify_range);
}

void PredictSession::ClassifyInto(const UncertainTuple& tuple, double* out) {
  UDT_CHECK(tuple.values.size() ==
            static_cast<size_t>(forest_.schema().num_attributes()));
  const UncertainTuple* tuples[] = {&tuple};
  double* rows[] = {out};
  ClassifyBlock(ScratchFor(0), tuples, rows, 1);
}

std::vector<double> PredictSession::ClassifyDistribution(
    const UncertainTuple& tuple) {
  std::vector<double> out(static_cast<size_t>(num_classes()));
  ClassifyInto(tuple, out.data());
  return out;
}

int PredictSession::Predict(const UncertainTuple& tuple) {
  // Reuse the streaming row buffer so repeated Predict calls stay
  // allocation-free once warm.
  const size_t k = static_cast<size_t>(num_classes());
  const size_t offset = stream_.distributions.size();
  stream_.distributions.resize(offset + k);
  ClassifyInto(tuple, stream_.distributions.data() + offset);
  const int best = RowArgMax(stream_.distributions.data() + offset, k);
  stream_.distributions.resize(offset);
  return best;
}

Status PredictSession::PredictBatchInto(
    std::span<const UncertainTuple> tuples, const PredictOptions& options,
    FlatBatchResult* out) {
  return PredictBatchIntoImpl(
      tuples.size(),
      [&tuples](size_t i) -> const UncertainTuple& { return tuples[i]; },
      options, out);
}

Status PredictSession::PredictBatchInto(
    std::span<const UncertainTuple* const> tuples,
    const PredictOptions& options, FlatBatchResult* out) {
  for (const UncertainTuple* tuple : tuples) UDT_CHECK(tuple != nullptr);
  return PredictBatchIntoImpl(
      tuples.size(),
      [&tuples](size_t i) -> const UncertainTuple& { return *tuples[i]; },
      options, out);
}

template <typename TupleAt>
Status PredictSession::PredictBatchIntoImpl(size_t n, TupleAt tuple_at,
                                            const PredictOptions& options,
                                            FlatBatchResult* out) {
  UDT_CHECK(out != nullptr);
  const size_t k = static_cast<size_t>(num_classes());
  out->num_classes = num_classes();
  out->distributions.resize(n * k);
  out->labels.resize(n);
  double* rows = out->distributions.data();
  return ClassifyBatch(
             n, tuple_at, [rows, k](size_t i) { return rows + i * k; },
             options, out->labels.data(), nullptr)
      .status();
}

StatusOr<BatchResult> PredictSession::PredictBatch(
    std::span<const UncertainTuple> tuples, const PredictOptions& options) {
  WallTimer batch_timer;
  const size_t n = tuples.size();
  const size_t k = static_cast<size_t>(num_classes());
  BatchResult result;
  result.distributions.resize(n);
  result.labels.resize(n);
  if (options.collect_timings) result.tuple_seconds.resize(n);
  UDT_ASSIGN_OR_RETURN(
      result.num_threads_used,
      ClassifyBatch(
          n, [&tuples](size_t i) -> const UncertainTuple& { return tuples[i]; },
          [&result, k](size_t i) {
            std::vector<double>& row = result.distributions[i];
            row.resize(k);
            return row.data();
          },
          options, result.labels.data(),
          options.collect_timings ? result.tuple_seconds.data() : nullptr));
  result.total_seconds = batch_timer.ElapsedSeconds();
  return result;
}

StatusOr<BatchResult> PredictSession::PredictBatch(
    const Dataset& data, const PredictOptions& options) {
  return PredictBatch(std::span<const UncertainTuple>(data.tuples().data(),
                                                      data.tuples().size()),
                      options);
}

void PredictSession::Push(const UncertainTuple& tuple) {
  const size_t k = static_cast<size_t>(num_classes());
  const size_t offset = stream_.distributions.size();
  stream_.distributions.resize(offset + k);
  double* row = stream_.distributions.data() + offset;
  ClassifyInto(tuple, row);
  stream_.labels.push_back(RowArgMax(row, k));
}

void PredictSession::Drain(FlatBatchResult* out) {
  UDT_CHECK(out != nullptr);
  out->num_classes = num_classes();
  // Swap, don't copy: the caller's old buffers become the next stream
  // storage, keeping the steady state allocation-free in both directions.
  std::swap(out->distributions, stream_.distributions);
  std::swap(out->labels, stream_.labels);
  stream_.Clear();
}

}  // namespace udt
