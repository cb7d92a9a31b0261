// The benchmark's workloads and the span/metric helpers they share.
//
//   train_csv       closed loop of identical CSV -> published-model jobs
//   serve_low       open-loop single-tuple requests at 2k req/s
//   serve_high      open-loop requests at 25k req/s, then saturation
//   adaptive_churn  AdaptiveServer under a 20k req/s stream while labeled
//                   feedback drives scheduled, spilled retrains
//
// Each fills Result::end_to_end with the same seven metrics (their meaning
// per workload is in README.md) and, when traced, Result::per_layer with
// whatever layers its path runs through.

#ifndef UDT_PERFBENCH_WORKLOADS_H_
#define UDT_PERFBENCH_WORKLOADS_H_

#include <cstddef>

#include "open_loop.h"
#include "pipeline.h"
#include "support.h"

namespace perfbench {

void RunTrainCsv(const RunOptions& options, Result* result, SpanLog* log);
void RunServe(const RunOptions& options, bool high, Result* result,
              SpanLog* log);
void RunAdaptiveChurn(const RunOptions& options, Result* result,
                      SpanLog* log);

// Records one job as a root span with a child per stage; the tree builder's
// own build time becomes a child of the train stage, so the train span's self
// time is the API's preparation around the build.
void AddJobSpans(SpanLog* log, const JobTrace& job, int64_t request);

// The table/api/core/split metrics, from the job spans in `log` and the
// counters of the last job.
void AddTrainLayers(const SpanLog& log, const JobTrace& last,
                    size_t model_bytes, Result* result);

}  // namespace perfbench

#endif  // UDT_PERFBENCH_WORKLOADS_H_
