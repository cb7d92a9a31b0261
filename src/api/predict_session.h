// udt::PredictSession — the per-worker serving handle of the prediction
// API, for trees and forests alike. A session borrows an immutable
// CompiledForest (shared, never copied; a compiled tree is a one-tree
// forest) and owns every piece of mutable state a prediction needs:
// per-worker traversal scratch, a per-tree output row block the vote
// aggregation consumes in place, and the streaming output buffers.
// All of it is reused call to call, so steady-state prediction performs
// zero heap allocations per tuple.
//
// The intended deployment shape:
//
//   Model model = *Model::Load(path);           // source of truth
//   CompiledForest compiled = model.Compile();  // immutable, share freely
//   // ... one PredictSession per worker thread:
//   PredictSession session(compiled);
//   auto result = session.PredictBatch(tuples);
//
// (ForestModel::Compile() feeds the same session.) Every entry point runs
// one kernel per model kind — ClassifyFlatBatch for UDT, the means walk
// ClassifyFlatMeans for AVG — tree-outer over the forest, then folds the
// votes per tuple in tree order and divides once: bitwise-identical to
// ForestModel::ClassifyDistribution, and for a one-tree forest to
// Model::ClassifyDistribution.
//
// A session is cheap to construct and NOT thread-safe: give each request
// worker its own. (PredictBatch with num_threads > 1 shards over a
// session-owned persistent worker pool, each worker with its own scratch
// slot — that is safe; two concurrent calls into one session are not.)
//
// Execution model: the first batch with num_threads > 1 creates the
// session's TaskPool (num_threads - 1 workers; the calling thread is the
// remaining worker) and every later batch reuses it — steady-state
// serving spawns zero threads per call. A later batch asking for more
// threads than the pool seats replaces it with a larger one (join idle
// workers, spawn the new set), so traffic with a stable thread count
// builds the pool exactly once. Work is handed out in chunks of at least
// max(1, 8 / num_trees) tuples, so small batches occupy proportionally
// fewer workers.

#ifndef UDT_API_PREDICT_SESSION_H_
#define UDT_API_PREDICT_SESSION_H_

#include <memory>
#include <span>
#include <vector>

#include "api/compiled_forest.h"
#include "api/model.h"
#include "common/statusor.h"
#include "common/task_pool.h"
#include "tree/flat_tree.h"

namespace udt {

// Flat batch output: one row-major buffer instead of one vector per tuple.
// Reused across PredictBatchInto calls, so a warm serving loop allocates
// nothing at all.
struct FlatBatchResult {
  // Tuple i's distribution occupies [i * num_classes, (i+1) * num_classes).
  std::vector<double> distributions;
  // Argmax labels, index-aligned with the input batch.
  std::vector<int> labels;
  int num_classes = 0;

  size_t size() const { return labels.size(); }
  std::span<const double> distribution(size_t i) const {
    return std::span<const double>(
        distributions.data() + i * static_cast<size_t>(num_classes),
        static_cast<size_t>(num_classes));
  }
  // Reuse contract: resets everything, including num_classes, so a
  // recycled buffer carries no trace of the previous batch (a serving
  // queue may drain models with different class counts through one
  // buffer). Capacity is retained; a warm buffer stays allocation-free.
  // PredictBatchInto overwrites all three fields anyway, so calling
  // Clear() between drains is belt-and-braces, not a requirement.
  void Clear() {
    distributions.clear();
    labels.clear();
    num_classes = 0;
  }
};

class PredictSession {
 public:
  // Ownership contract: a CompiledForest is a shared handle (one
  // shared_ptr wide), and the session stores its own copy — so the
  // session co-owns the compiled artifact for its whole lifetime. A
  // model registry may retire/drop its reference while this session is
  // mid-batch without dangling anything; the flat trees are freed when
  // the last session (or registry entry) lets go.
  explicit PredictSession(CompiledForest forest);

  const CompiledForest& forest() const { return forest_; }
  int num_classes() const { return forest_.num_classes(); }

  // ------------------------------------------------------- single tuple

  // Classifies one tuple into caller storage (num_classes doubles): the
  // batch kernels at n = 1. The zero-allocation primitive. Trusts the
  // caller's tuple beyond its value count (checked); the batch entry
  // points validate every tuple against the schema instead.
  void ClassifyInto(const UncertainTuple& tuple, double* out);

  // Convenience allocating forms, result-compatible with the Model /
  // ForestModel ones.
  std::vector<double> ClassifyDistribution(const UncertainTuple& tuple);
  int Predict(const UncertainTuple& tuple);

  // -------------------------------------------------------------- batch

  // Classifies a batch, sharded over options.num_threads workers (0 = one
  // per hardware thread, 1 = inline; negative is an InvalidArgument
  // error, and so is a tuple that does not match the schema). Shards
  // write straight into their final slots, so the result is
  // bitwise-identical to the inline loop for every thread count — and to
  // the pointer-tree classification of the model this session was
  // compiled from.
  StatusOr<BatchResult> PredictBatch(std::span<const UncertainTuple> tuples,
                                     const PredictOptions& options = {});
  StatusOr<BatchResult> PredictBatch(const Dataset& data,
                                     const PredictOptions& options = {});

  // Same computation, flat output, no per-tuple allocation: `out` buffers
  // are reused between calls once warm.
  Status PredictBatchInto(std::span<const UncertainTuple> tuples,
                          const PredictOptions& options,
                          FlatBatchResult* out);

  // Gather form for admission queues: the tuples of one micro-batch
  // arrive from different clients and are not contiguous, so the batch
  // is a span of pointers (each non-null, alive until the call returns).
  // Identical sharding, scratch and output contract to the contiguous
  // overload — results are byte-identical to classifying each tuple
  // alone.
  Status PredictBatchInto(std::span<const UncertainTuple* const> tuples,
                          const PredictOptions& options,
                          FlatBatchResult* out);

  // ---------------------------------------------------------- streaming

  // Classifies `tuple` immediately (inline, on the calling thread) and
  // appends the result to the session's streaming buffer. Amortised
  // allocation-free once the buffer is warm.
  void Push(const UncertainTuple& tuple);

  // Number of results accumulated since the last Drain.
  size_t pending() const { return stream_.labels.size(); }

  // Moves the accumulated results into `out` (its previous buffers are
  // recycled as the session's next streaming storage) and resets the
  // stream.
  void Drain(FlatBatchResult* out);

  // ------------------------------------------------------ introspection

  // Persistent executor workers this session has created: 0 until the
  // first batch with num_threads > 1, then stable across calls (it only
  // grows when a batch requests more threads than the pool seats). Tests
  // and ops dashboards use this to verify the zero-spawn steady state.
  int executor_workers() const { return pool_ ? pool_->num_workers() : 0; }

 private:
  // Per-worker mutable state: traversal scratch shared by all trees, the
  // block's per-tree rows the vote aggregation consumes, and the gather
  // buffers that assemble the kernels' pointer-array arguments.
  struct WorkerScratch {
    FlatTraversalScratch traversal;
    std::vector<double> tree_rows;
    std::vector<double*> tree_row_ptrs;
    std::vector<const UncertainTuple*> tuple_ptrs;
    std::vector<double*> row_ptrs;
  };

  // Shared body of both PredictBatchInto overloads; `tuple_at(i)` yields
  // a const UncertainTuple& for batch position i. Defined in the .cc —
  // both instantiations live there.
  template <typename TupleAt>
  Status PredictBatchIntoImpl(size_t n, TupleAt tuple_at,
                              const PredictOptions& options,
                              FlatBatchResult* out);

  // Scratch slot for worker `index`, created on first use, reused after.
  WorkerScratch* ScratchFor(size_t index);

  // The session pool sized for `num_threads` (nullptr for inline
  // execution), with every scratch slot the pool's workers could touch
  // pre-created.
  TaskPool* EnsureExecutor(int num_threads);

  // Shared body of every batch entry point: validates the options and
  // every tuple, then classifies tuple_at(i) into row_at(i) (num_classes
  // doubles) and its argmax into labels[i], sharded over the session
  // pool. With `seconds` non-null each tuple runs as its own kernel
  // launch and seconds[i] receives its wall time. Returns the scheduled
  // width (see TaskPool::ParallelFor).
  template <typename TupleAt, typename RowAt>
  StatusOr<int> ClassifyBatch(size_t n, TupleAt tuple_at, RowAt row_at,
                              const PredictOptions& options, int* labels,
                              double* seconds);

  // Classifies tuples[0..count) into rows[0..count): every tree's kernel
  // over the whole block, votes folded per tuple in tree order, one final
  // division.
  void ClassifyBlock(WorkerScratch* scratch,
                     const UncertainTuple* const* tuples,
                     double* const* rows, size_t count);

  CompiledForest forest_;
  std::vector<std::unique_ptr<WorkerScratch>> scratch_;
  FlatBatchResult stream_;
  // Lazily created at the first multi-threaded batch, then reused for
  // every later call (see "Execution model" above).
  std::unique_ptr<TaskPool> pool_;
};

}  // namespace udt

#endif  // UDT_API_PREDICT_SESSION_H_
