// Tests for the work-stealing TaskPool underneath the parallel
// construction engine: completion semantics, nested fork/join from inside
// tasks, external (non-worker) submissions, the zero-worker degenerate
// pool where the waiting thread does all the work, and the ParallelFor
// primitive the serving sessions and attribute scans share (exact
// coverage, slot discipline, grain clamping, parallelism limits, nesting
// inside pool tasks).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/task_pool.h"

namespace udt {
namespace {

TEST(TaskPoolTest, RunsEverySubmittedTask) {
  TaskPool pool(3);
  std::atomic<int> count{0};
  TaskGroup group;
  for (int i = 0; i < 200; ++i) {
    pool.Submit(&group, [&count] { ++count; });
  }
  pool.Wait(&group);
  EXPECT_EQ(count.load(), 200);
}

TEST(TaskPoolTest, ZeroWorkersDrainOnWait) {
  // With no worker threads every task runs on the thread inside Wait.
  TaskPool pool(0);
  std::atomic<int> count{0};
  TaskGroup group;
  for (int i = 0; i < 50; ++i) {
    pool.Submit(&group, [&count] { ++count; });
  }
  pool.Wait(&group);
  EXPECT_EQ(count.load(), 50);
}

TEST(TaskPoolTest, TasksMaySpawnAndWaitForSubtasks) {
  // The builder's shape: node tasks fork attribute subtasks and join them
  // before finishing. Two nesting levels, all on a small pool.
  TaskPool pool(2);
  std::atomic<int> leaves{0};
  TaskGroup outer;
  for (int i = 0; i < 8; ++i) {
    pool.Submit(&outer, [&pool, &leaves] {
      TaskGroup inner;
      for (int j = 0; j < 8; ++j) {
        pool.Submit(&inner, [&pool, &leaves] {
          TaskGroup innermost;
          for (int k = 0; k < 4; ++k) {
            pool.Submit(&innermost, [&leaves] { ++leaves; });
          }
          pool.Wait(&innermost);
        });
      }
      pool.Wait(&inner);
    });
  }
  pool.Wait(&outer);
  EXPECT_EQ(leaves.load(), 8 * 8 * 4);
}

TEST(TaskPoolTest, WaitOnEmptyGroupReturnsImmediately) {
  TaskPool pool(2);
  TaskGroup group;
  pool.Wait(&group);  // nothing submitted
  SUCCEED();
}

TEST(TaskPoolTest, GroupsCompleteIndependently) {
  TaskPool pool(2);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  TaskGroup group_a;
  TaskGroup group_b;
  for (int i = 0; i < 32; ++i) {
    pool.Submit(&group_a, [&a] { ++a; });
    pool.Submit(&group_b, [&b] { ++b; });
  }
  pool.Wait(&group_a);
  EXPECT_EQ(a.load(), 32);
  pool.Wait(&group_b);
  EXPECT_EQ(b.load(), 32);
}

TEST(TaskPoolTest, EffectiveConcurrencyConvention) {
  EXPECT_EQ(TaskPool::EffectiveConcurrency(1), 1);
  EXPECT_EQ(TaskPool::EffectiveConcurrency(7), 7);
  EXPECT_GE(TaskPool::EffectiveConcurrency(0), 1);  // hardware threads
}

TEST(TaskPoolTest, ReusableAcrossGroups) {
  TaskPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    TaskGroup group;
    for (int i = 0; i < 20; ++i) {
      pool.Submit(&group, [&count] { ++count; });
    }
    pool.Wait(&group);
    ASSERT_EQ(count.load(), 20) << "round " << round;
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  TaskPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), /*grain=*/1,
                   [&hits](int slot, size_t begin, size_t end) {
                     EXPECT_GE(slot, 0);
                     EXPECT_LT(slot, 4);  // num_slots() == workers + 1
                     for (size_t i = begin; i < end; ++i) ++hits[i];
                   });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  TaskPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 1, [&calls](int, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, ZeroWorkerPoolRunsInlineUnderSlotZero) {
  TaskPool pool(0);
  std::vector<std::pair<size_t, size_t>> ranges;
  pool.ParallelFor(100, 8, [&ranges](int slot, size_t begin, size_t end) {
    EXPECT_EQ(slot, 0);
    ranges.emplace_back(begin, end);
  });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (std::pair<size_t, size_t>{0, 100}));
}

TEST(ParallelForTest, GrainClampsFanOut) {
  // 100 indices at grain 64 make exactly two chunks, no matter how many
  // workers the pool has — tiny loops must not wake the whole pool.
  TaskPool pool(7);
  Mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  pool.ParallelFor(100, 64, [&](int /*slot*/, size_t begin, size_t end) {
    MutexLock lock(&mu);
    chunks.emplace_back(begin, end);
  });
  ASSERT_EQ(chunks.size(), 2u);
  // A single-chunk loop runs inline without touching the queues at all.
  chunks.clear();
  pool.ParallelFor(60, 64, [&](int slot, size_t begin, size_t end) {
    EXPECT_EQ(slot, 0);
    MutexLock lock(&mu);
    chunks.emplace_back(begin, end);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<size_t, size_t>{0, 60}));
}

TEST(ParallelForTest, ParallelismLimitBoundsWidthNotChunks) {
  // The session path: a wide pool serving a narrow request. parallelism=2
  // caps the runners at two (one helper + the caller) even though the
  // pool seats eight — but the range is over-decomposed into several
  // dynamically-claimed chunks per runner, so heterogeneous chunk costs
  // still load-balance between the two.
  TaskPool pool(7);
  Mutex mu;
  std::set<int> slots;
  std::vector<std::pair<size_t, size_t>> chunks;
  const int width =
      pool.ParallelFor(1000, 1, /*parallelism=*/2,
                       [&](int slot, size_t begin, size_t end) {
                         MutexLock lock(&mu);
                         slots.insert(slot);
                         chunks.emplace_back(begin, end);
                       });
  EXPECT_EQ(width, 2);
  EXPECT_GT(chunks.size(), 2u);  // over-decomposed for load balance
  EXPECT_LE(slots.size(), 2u);   // but never wider than requested
  size_t covered = 0;
  for (const auto& [begin, end] : chunks) covered += end - begin;
  EXPECT_EQ(covered, 1000u);
}

TEST(ParallelForTest, SlotsAreDisjointScratchIndices) {
  // Two chunks must never run concurrently under one slot: per-slot
  // counters incremented non-atomically stay exact iff the contract
  // holds (TSan runs of this suite double-check the absence of races).
  TaskPool pool(3);
  constexpr size_t kIndices = 50000;
  std::vector<size_t> per_slot(pool.num_slots(), 0);
  pool.ParallelFor(kIndices, 1, [&per_slot](int slot, size_t begin,
                                            size_t end) {
    per_slot[static_cast<size_t>(slot)] += end - begin;
  });
  size_t total = 0;
  for (size_t c : per_slot) total += c;
  EXPECT_EQ(total, kIndices);
}

TEST(ParallelForTest, ReusableBackToBack) {
  // The serving steady state: one pool, many loops, workers reused every
  // time. Nothing to assert beyond exact coverage each round — the point
  // is that round N gets the same pool round 0 did.
  TaskPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> covered{0};
    pool.ParallelFor(64, 8, [&covered](int, size_t begin, size_t end) {
      covered += end - begin;
    });
    ASSERT_EQ(covered.load(), 64u) << "round " << round;
  }
}

TEST(ParallelForTest, NestsInsidePoolTasks) {
  // The training shape: node-level tasks on the pool each fan an
  // attribute loop out over the same pool (ForEachAttribute). Loops from
  // different tasks interleave on the shared workers; every loop must
  // still cover its own range exactly.
  TaskPool pool(3);
  constexpr int kTasks = 16;
  constexpr size_t kRange = 100;
  std::vector<std::vector<std::atomic<int>>> hits(kTasks);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kRange);
  }
  TaskGroup group;
  for (int t = 0; t < kTasks; ++t) {
    pool.Submit(&group, [&pool, &hits, t] {
      pool.ParallelFor(kRange, 4, [&hits, t](int, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) ++hits[t][i];
      });
    });
  }
  pool.Wait(&group);
  for (int t = 0; t < kTasks; ++t) {
    for (size_t i = 0; i < kRange; ++i) {
      ASSERT_EQ(hits[t][i].load(), 1) << "task " << t << " index " << i;
    }
  }
}

// The forest's shape on a caller-owned pool: an external thread submits
// one task per tree, and each task forks subtree tasks into groups of its
// own and waits on them from inside a worker — nested group waits three
// levels deep, with an attribute loop over the same pool at every node.
// At every width (0-3 workers plus the waiting caller) each task runs
// exactly once and every wait returns.
TEST(TaskPoolTest, NestedGroupWaitsRunEveryTaskOnceAtEveryWidth) {
  constexpr int kTrees = 8;
  constexpr int kDepth = 3;
  constexpr int kNodesPerTree = (1 << (kDepth + 1)) - 1;  // heap ids 1..15
  constexpr size_t kRange = 24;
  for (int width = 1; width <= 4; ++width) {
    TaskPool pool(width - 1);
    std::vector<std::atomic<int>> runs(kTrees * (kNodesPerTree + 1));
    std::vector<std::atomic<int>> loop_hits(runs.size() * kRange);
    // Runs node `node` (heap numbering) of tree `tree`, then its subtree.
    std::function<void(int, int, int)> grow = [&](int tree, int node,
                                                  int depth) {
      const size_t id = static_cast<size_t>(tree * (kNodesPerTree + 1) + node);
      ++runs[id];
      pool.ParallelFor(kRange, 4, [&](int, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) ++loop_hits[id * kRange + i];
      });
      if (depth == kDepth) return;
      TaskGroup children;
      for (int c = 0; c < 2; ++c) {
        pool.Submit(&children, [&grow, tree, node, depth, c] {
          grow(tree, 2 * node + c, depth + 1);
        });
      }
      pool.Wait(&children);
    };
    TaskGroup trees;
    for (int t = 0; t < kTrees; ++t) {
      pool.Submit(&trees, [&grow, t] { grow(t, 1, 0); });
    }
    pool.Wait(&trees);
    for (int t = 0; t < kTrees; ++t) {
      for (int node = 1; node <= kNodesPerTree; ++node) {
        const size_t id =
            static_cast<size_t>(t * (kNodesPerTree + 1) + node);
        ASSERT_EQ(runs[id].load(), 1)
            << "width " << width << " tree " << t << " node " << node;
        for (size_t i = 0; i < kRange; ++i) {
          ASSERT_EQ(loop_hits[id * kRange + i].load(), 1)
              << "width " << width << " tree " << t << " node " << node;
        }
      }
    }
  }
}

// ------------------------------------------------- annotated mutex layer
//
// The udt::Mutex / MutexLock / CondVar wrappers (common/mutex.h) carry the
// thread-safety annotations every locking site in the repo builds on;
// these cases exercise the wrapper paths the pool itself never takes
// (manual TryLock, deadline waits), so the layer is tested behaviour, not
// annotation-only glue.

TEST(MutexWrapperTest, TryLockFailsWhileHeldAndSucceedsAfterRelease) {
  Mutex mu;
  mu.Lock();
  // Contended try-lock must fail from another thread (same-thread re-try
  // on a std::mutex would be UB, so probe from a helper).
  bool acquired_while_held = true;
  std::thread prober([&] {
    acquired_while_held = mu.TryLock();
    if (acquired_while_held) mu.Unlock();
  });
  prober.join();
  EXPECT_FALSE(acquired_while_held);
  mu.Unlock();

  // Uncontended try-lock acquires, and the capability really is held:
  // a second prober must now fail until Unlock.
  ASSERT_TRUE(mu.TryLock());
  bool acquired_during_trylock = true;
  std::thread second([&] {
    acquired_during_trylock = mu.TryLock();
    if (acquired_during_trylock) mu.Unlock();
  });
  second.join();
  EXPECT_FALSE(acquired_during_trylock);
  mu.Unlock();
}

TEST(MutexWrapperTest, CondVarWaitForTimesOutWithoutANotify) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  // No notifier exists: the deadline path must fire and report timeout.
  EXPECT_FALSE(cv.WaitFor(lock, std::chrono::microseconds(1000)));
  EXPECT_FALSE(cv.WaitUntil(lock, std::chrono::steady_clock::now() +
                                      std::chrono::microseconds(1000)));
}

TEST(MutexWrapperTest, CondVarWakesAPredicateLoopAcrossThreads) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread notifier([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(&mu);
    // The repo's canonical wait idiom: explicit predicate loop with the
    // deadline form, so a lost wakeup cannot hang the suite.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!ready) {
      ASSERT_TRUE(cv.WaitUntil(lock, deadline)) << "notify never arrived";
    }
    EXPECT_TRUE(ready);
  }
  notifier.join();
}

}  // namespace
}  // namespace udt
