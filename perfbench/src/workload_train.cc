// train_csv: the paper's own workload. A closed loop of identical jobs,
// each CSV text -> published compiled UDT-ES tree at nproc training
// threads. table, pdf, split, core and the task pool do the work; the
// serve queue and the traversal kernels do none.

#include <algorithm>
#include <cstdio>

#include "eval/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kModelName = "segment";
constexpr int kSetupRepetitions = 5;
// p90 needs at least ten jobs beyond it.
constexpr int kMinJobs = 100;
// A run never measures longer than this, whatever the job count.
constexpr double kMaxMeasureSeconds = 120.0;

}  // namespace

void AddJobSpans(SpanLog* log, const JobTrace& job, int64_t request) {
  const int64_t root = log->Add("job", job.start, job.published, -1, request);
  log->Add("table.csv_parse", job.start, job.parsed, root, request);
  log->Add("table.inject", job.parsed, job.injected, root, request);
  const int64_t train =
      log->Add("api.train", job.injected, job.trained, root, request);
  const int64_t build_ns =
      static_cast<int64_t>(job.stats.build_seconds * 1e9);
  log->Add("core.build", job.trained - build_ns, job.trained, train, request);
  log->Add("api.compile", job.trained, job.compiled, root, request);
  log->Add("api.serialize", job.compiled, job.serialized, root, request);
  log->Add("serve.publish", job.serialized, job.published, root, request);
}

void AddTrainLayers(const SpanLog& log, const JobTrace& last,
                    size_t model_bytes, Result* result) {
  result->Layer("table.csv_parse_s", Median(log.SelfSeconds("table.csv_parse")),
                "s");
  result->Layer("table.inject_s", Median(log.SelfSeconds("table.inject")), "s");
  result->Layer("api.train_s", Median(log.DurationSeconds("api.train")), "s");
  result->Layer("api.train_prep_s", Median(log.SelfSeconds("api.train")), "s");
  result->Layer("api.compile_s", Median(log.SelfSeconds("api.compile")), "s");
  result->Layer("api.serialize_s", Median(log.SelfSeconds("api.serialize")),
                "s");
  result->Layer("api.model_bytes", static_cast<double>(model_bytes), "bytes");
  result->Layer("core.build_s", Median(log.SelfSeconds("core.build")), "s");
  result->Layer("core.nodes", last.stats.nodes, "count");

  const udt::SplitCounters& c = last.stats.counters;
  result->Layer("split.entropy_calcs",
                static_cast<double>(c.TotalEntropyCalculations()), "count");
  result->Layer("split.bound_evals", static_cast<double>(c.bound_evaluations),
                "count");
  const double attempts =
      static_cast<double>(c.candidates_pruned + c.dispersion_evaluations);
  result->Layer("split.pruned_ratio",
                attempts > 0 ? c.candidates_pruned / attempts : 0.0,
                "fraction");
  const int64_t intervals_pruned =
      c.intervals_pruned_empty + c.intervals_pruned_homogeneous +
      c.intervals_pruned_linear + c.intervals_pruned_by_bound;
  result->Layer("split.intervals_pruned_ratio",
                c.intervals_total > 0
                    ? static_cast<double>(intervals_pruned) /
                          static_cast<double>(c.intervals_total)
                    : 0.0,
                "fraction");
}

void RunTrainCsv(const RunOptions& options, Result* result, SpanLog* log) {
  const int threads = options.threads;
  std::optional<Table> table;
  std::optional<udt::serve::ModelRegistry> registry;
  JobOutput reference;
  JobTrace trace;
  int64_t job_id = 0;

  // Set-up: generate the table and run the first job end to end.
  const double setup_s = MedianSetupSeconds(kSetupRepetitions, [&](int) {
    reference = JobOutput();
    registry.reset();
    table.reset();
    table.emplace(MakeSegmentTable(options.seed, options.scale));
    registry.emplace();
    reference =
        RunPaperJob(table->train_csv, threads, &*registry, kModelName, &trace);
    if (options.trace) AddJobSpans(log, trace, job_id++);
  });
  std::printf("train_csv: %zu CSV bytes, model %zu bytes, %d nodes\n",
              table->train_csv.size(), reference.serialized.size(),
              trace.stats.nodes);

  // Oracle, before timing: the model bytes repeat at nproc threads and
  // match a one-thread build.
  uint64_t live = reference.version;
  auto retire_previous = [&](uint64_t version) {
    if (!registry->Retire(kModelName, live).ok()) {
      result->Fail("registry lost a published version");
    }
    live = version;
  };
  for (int oracle_threads : {threads, 1}) {
    JobTrace oracle_trace;
    JobOutput again = RunPaperJob(table->train_csv, oracle_threads, &*registry,
                                  kModelName, &oracle_trace);
    retire_previous(again.version);
    ++result->attempted;
    if (again.serialized != reference.serialized) {
      ++result->failed;
      result->Fail("model bytes at " + std::to_string(oracle_threads) +
                   " thread(s) differ from the nproc-thread reference");
    }
  }
  const double accuracy =
      udt::EvaluateAccuracy(*reference.model, *table->holdout);
  if (!(accuracy > 1.0 / table->holdout->num_classes())) {
    result->Fail("held-out accuracy at or below chance");
  }

  // Timed closed loop.
  const int min_jobs =
      std::max(5, static_cast<int>(kMinJobs * std::min(1.0, options.scale)));
  std::vector<double> job_s;
  std::vector<double> job_rss_mb;
  const int64_t loop_start = NowNs();
  for (;;) {
    const double elapsed = NsToS(NowNs() - loop_start);
    if ((elapsed >= options.seconds && static_cast<int>(job_s.size()) >= min_jobs) ||
        elapsed >= kMaxMeasureSeconds) {
      break;
    }
    const bool rss_reset = ResetPeakRss();
    JobOutput job =
        RunPaperJob(table->train_csv, threads, &*registry, kModelName, &trace);
    job_s.push_back(NsToS(trace.published - trace.start));
    if (rss_reset) job_rss_mb.push_back(PeakRssMb());
    retire_previous(job.version);
    ++result->attempted;
    if (job.serialized != reference.serialized) {
      ++result->failed;
      result->Fail("a timed job's model bytes differ from the reference");
    }
    if (options.trace) AddJobSpans(log, trace, job_id++);
    // Between jobs, so that each job's peak RSS starts from the same
    // baseline rather than whatever the per-thread heaps of earlier jobs
    // happened to keep.
    TrimHeap();
  }
  const double loop_s = NsToS(NowNs() - loop_start);

  result->E2e("setup_s", setup_s, "s");
  result->E2e("latency_p50_ms", Median(job_s) * 1e3, "ms");
  result->E2e("latency_tail_ms",
              Quantile(job_s, TailQuantileLevel(job_s.size())) * 1e3, "ms");
  result->E2e("throughput_per_s", static_cast<double>(job_s.size()) / loop_s,
              "1/s");
  result->E2e("train_publish_s_p50", Median(job_s), "s");
  result->E2e("model_accuracy", accuracy, "fraction");
  // The median job's peak: the whole run's peak is the largest of ~100 job
  // peaks, which swing by ±10% with how the training threads' heaps happen
  // to interleave.
  if (!job_rss_mb.empty()) {
    result->E2e("peak_rss_mb", Median(job_rss_mb), "MiB");
  }
  std::printf("train_csv: %zu jobs in %.2f s, p50 %.1f ms, job peak RSS "
              "%.1f MiB\n",
              job_s.size(), loop_s, Median(job_s) * 1e3, Median(job_rss_mb));

  if (options.trace) {
    AddTrainLayers(*log, trace, reference.serialized.size(), result);
  }
}

}  // namespace perfbench
