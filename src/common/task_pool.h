// A small work-stealing task pool for the deterministic parallel engines
// (tree construction in core/, attribute scans in split/). Tasks are plain
// callables grouped under a TaskGroup; a task may submit further tasks and
// wait on them, and any thread blocked in Wait() helps execute pending
// tasks, so nested fork/join never deadlocks.
//
// Scheduling: one deque per worker plus a shared inject queue for external
// submissions. A worker pops its own deque LIFO (hot caches, bounded queue
// growth on deep recursions) and steals FIFO from the front of other
// deques (the oldest entry is the largest pending subtree). Scheduling
// order is deliberately unobservable to the algorithms built on top: every
// engine in this codebase writes task results into disjoint slots and
// reduces them in a fixed order, which is what makes parallel tree builds
// bitwise-identical to serial ones.
//
// Locking tradeoff: a single pool mutex guards all deques, so the deques
// buy ordering (LIFO-own / FIFO-steal), not lock-freedom. That is the
// right trade while tasks are coarse — a subtree or a whole attribute
// scan, microseconds to milliseconds each, against ~100ns per lock
// round-trip. If profiles ever show the lock hot (many threads x tiny
// tasks), shard the mutex per deque before reaching for lock-free deques.

#ifndef UDT_COMMON_TASK_POOL_H_
#define UDT_COMMON_TASK_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace udt {

class TaskPool;

// Tracks completion of a set of tasks. A group may only be waited on by
// one thread at a time and must outlive its tasks.
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

 private:
  friend class TaskPool;
  // Guarded by the owning pool's mu_. Not expressible as a static
  // UDT_GUARDED_BY: the group learns its pool only at Submit time, and a
  // capability annotation must name a lockable object visible at the
  // field's declaration. Every access lives in TaskPool methods that hold
  // (or UDT_REQUIRES) mu_, which is where the analysis picks it up.
  int pending_ = 0;
};

class TaskPool {
 public:
  // Spawns `num_workers` worker threads (0 is valid: all tasks then run on
  // the threads that call Wait()).
  explicit TaskPool(int num_workers);

  // Joins the workers. Every submitted task must have been waited for.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Maps the TreeConfig::num_threads convention to a worker-thread count:
  // <= 0 selects one per hardware thread, otherwise `requested` itself.
  static int EffectiveConcurrency(int requested);

  // Enqueues `task` under `group`. Safe to call from worker tasks (the
  // task lands on the submitting worker's own deque) and from external
  // threads (the shared inject queue).
  void Submit(TaskGroup* group, std::function<void()> task);

  // Returns once every task of `group` has finished. The calling thread
  // executes pending tasks (of any group) while it waits.
  void Wait(TaskGroup* group);

  // ------------------------------------------------------- parallel for
  //
  // The long-lived data-parallel primitive the serving sessions and the
  // training engines share. One call runs fn(slot, begin, end) over
  // contiguous chunks of [0, n) of at least `grain` indices each (the
  // last chunk may be shorter), using the calling thread plus up to
  // `parallelism - 1` pool workers, and returns when every index has run.
  //
  // Slots are stable per-thread scratch indices: pool workers own slots
  // 1..num_workers(), and the thread driving the loop runs under slot 0
  // when it is not a pool worker. Two chunks never run concurrently under
  // the same slot as long as at most one non-worker thread drives loops
  // on this pool at a time (the serving sessions guarantee that by being
  // single-caller); fn may therefore keep per-slot mutable scratch.
  //
  // Chunk-to-thread assignment is first-come first-served and deliberately
  // unobservable: callers must write results into disjoint, index-addressed
  // slots (the same contract every engine on this pool already follows),
  // which makes the output byte-identical for every worker count, grain
  // and parallelism.
  //
  // Chunks are over-decomposed relative to the width (several per
  // runner, never below `grain`), and runners claim them dynamically, so
  // heterogeneous per-index costs load-balance instead of serialising
  // behind an unlucky even split.
  //
  // The call allocates no per-index state: the loop descriptor lives on
  // the caller's stack and the helper tasks capture one pointer each, so
  // a warm steady state (same pool, batch after batch) creates no threads
  // and performs no per-tuple allocations.
  //
  // Returns the scheduled width: the maximum number of threads (caller
  // included) that may execute chunks. 1 when the loop ran inline; the
  // dynamic schedule may engage fewer threads, never more.
  template <typename Fn>
  int ParallelFor(size_t n, size_t grain, Fn&& fn) {
    return ParallelFor(n, grain, num_workers() + 1, std::forward<Fn>(fn));
  }

  // As above, but uses at most `parallelism` threads (caller included),
  // so one pool can serve requests of different widths.
  template <typename Fn>
  int ParallelFor(size_t n, size_t grain, int parallelism, Fn&& fn) {
    return ParallelForImpl(
        n, grain, parallelism,
        [](void* ctx, int slot, size_t begin, size_t end) {
          (*static_cast<std::remove_reference_t<Fn>*>(ctx))(slot, begin, end);
        },
        &fn);
  }

  // Highest slot value ParallelFor can pass, plus one (callers size their
  // per-slot scratch arrays with this).
  int num_slots() const { return num_workers() + 1; }

 private:
  struct Item {
    TaskGroup* group = nullptr;
    std::function<void()> task;
  };

  // Pops one task, preferring queue `self` back-first, then — only when
  // `may_steal` — the inject queue and the front of the other workers'
  // deques. Returns false when nothing poppable is available.
  bool PopTask(int self, Item* item, bool may_steal) UDT_REQUIRES(mu_);

  // Runs `item` (mu_ must not be held) and retires it from its group.
  void RunItem(Item item);

  void WorkerLoop(int worker_index);

  // Type-erased body of ParallelFor: chunks [0, n), submits helper tasks
  // that drain a shared atomic chunk counter, runs chunks on the calling
  // thread, and waits for the helpers. Returns the scheduled width.
  int ParallelForImpl(size_t n, size_t grain, int parallelism,
                      void (*invoke)(void*, int, size_t, size_t), void* ctx);

  Mutex mu_;
  CondVar cv_;  // signalled on submit and on completion
  // queues_[0 .. num_workers-1] are the worker deques; queues_.back() is
  // the inject queue (external submissions).
  std::vector<std::deque<Item>> queues_ UDT_GUARDED_BY(mu_);
  bool shutdown_ UDT_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

// Runs fn(slot, i) for every i < n: in ascending order on the calling
// thread under slot 0 when `pool` is null, else as one-index chunks of
// pool->ParallelFor under the slot of the thread that claims them (inline
// when n <= 1). The calls must write disjoint, index-addressed state; the
// fixed-order reductions after such a loop keep its result
// schedule-independent. `slot` lets the calls reuse per-slot scratch
// sized by NumSlots(pool).
template <typename Fn>
void ForEachSlotIndex(TaskPool* pool, size_t n, Fn&& fn) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  pool->ParallelFor(n, /*grain=*/1,
                    [&fn](int slot, size_t begin, size_t end) {
                      for (size_t i = begin; i < end; ++i) fn(slot, i);
                    });
}

// ForEachSlotIndex for calls that keep no per-slot scratch: fn(i).
template <typename Fn>
void ForEachIndex(TaskPool* pool, size_t n, Fn&& fn) {
  ForEachSlotIndex(pool, n, [&fn](int /*slot*/, size_t i) { fn(i); });
}

// Slots ForEachSlotIndex can pass for `pool`.
inline int NumSlots(const TaskPool* pool) {
  return pool == nullptr ? 1 : pool->num_slots();
}

}  // namespace udt

#endif  // UDT_COMMON_TASK_POOL_H_
