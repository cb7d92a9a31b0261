// Open-loop load generation: Poisson arrivals on a fixed schedule, one
// generator thread (the caller) that submits each request when it is due,
// and one collector thread that waits on the futures in order. A slow
// system therefore builds a queue instead of slowing the arrivals, and
// every latency is timed from when its request was due, so a stall also
// charges the requests that arrived behind it.

#ifndef UDT_PERFBENCH_OPEN_LOOP_H_
#define UDT_PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <future>
#include <vector>

#include "serve/batching_queue.h"
#include "support.h"

namespace perfbench {

struct OpenLoopSpec {
  double rate_per_s = 1000.0;
  double seconds = 1.0;
  uint64_t seed = 1;
};

// Per-request stamps (NowNs), index-aligned with the submission order.
struct OpenLoopRun {
  std::vector<int64_t> due;
  std::vector<int64_t> submit_begin;
  std::vector<int64_t> submit_end;
  std::vector<int64_t> done;   // when the collector's get() returned
  std::vector<uint8_t> ok;     // status OK and the oracle agreed
  int64_t failed = 0;          // non-OK status (shed or error)
  int64_t wrong = 0;           // OK status but the oracle disagreed
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  size_t size() const { return due.size(); }
  // Due-to-done latency in microseconds; a request that failed counts as
  // infinitely late, so it misses every latency limit.
  std::vector<double> LatencyUs() const;
  // Splits the schedule into `windows` equal stretches of due time, takes
  // the q-quantile latency of each stretch, and returns the median of
  // those. One host stall spoils one stretch, not the figure.
  double WindowedQuantileUs(double q, int windows) const;
  // The q-quantile latency of the last of `windows` stretches.
  double LastWindowQuantileUs(double q, int windows) const;
  // How late the generator submitted each request, microseconds.
  std::vector<double> LatenessUs() const;
  double ElapsedSeconds() const;

 private:
  std::vector<std::vector<double>> WindowLatencies(int windows) const;
};

// Submits request i (called on the generator thread, in order).
using SubmitFn = std::function<std::future<udt::serve::ServeResult>(size_t)>;
// Checks response i against the oracle (called on the collector thread, in
// order); returns false on a mismatch.
using CheckFn = std::function<bool(size_t, const udt::serve::ServeResult&)>;

OpenLoopRun RunOpenLoop(const OpenLoopSpec& spec, const SubmitFn& submit,
                        const CheckFn& check);

// gen.late_us_p99 / gen.late_us_max of one run.
void AddGeneratorLayers(const OpenLoopRun& run, Result* result);

}  // namespace perfbench

#endif  // UDT_PERFBENCH_OPEN_LOOP_H_
