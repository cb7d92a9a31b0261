// perfbench: the repo's end-to-end benchmark binary. perfbench/run.py
// builds it and is the entry point; this binary runs one workload and
// prints, as its last stdout line, one JSON record with every end-to-end
// metric, the per-layer metrics when traced, the oracle verdict and the
// build provenance.
//
//   perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//             [--scale F] [--work-dir DIR] [--trace-out FILE]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {
namespace {

constexpr size_t kMaxSpansWritten = 1'000'000;

// Every per-layer metric a traced run prints, with its unit, in output
// order; run.py adds trace.overhead_ms / trace.overhead_pct. Layers a
// workload does not run through read 0.
struct LayerName {
  const char* name;
  const char* unit;
};
const LayerName kPerLayerMetrics[] = {
    {"table.csv_parse_s", "s"},
    {"table.inject_s", "s"},
    {"api.train_s", "s"},
    {"api.train_prep_s", "s"},
    {"api.compile_s", "s"},
    {"api.serialize_s", "s"},
    {"api.model_bytes", "bytes"},
    {"core.build_s", "s"},
    {"core.nodes", "count"},
    {"split.entropy_calcs", "count"},
    {"split.bound_evals", "count"},
    {"split.pruned_ratio", "fraction"},
    {"split.intervals_pruned_ratio", "fraction"},
    {"serve.admit_us_p50", "us"},
    {"serve.admit_us_p99", "us"},
    {"serve.shed", "count"},
    {"serve.queue_wait_us_p50", "us"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.drains", "count"},
    {"serve.resolve_us_p50", "us"},
    {"serve.batch_us_per_req", "us"},
    {"serve.wake_us_p50", "us"},
    {"serve.wake_us_p99", "us"},
    {"serve.max_rps", "1/s"},
    {"serve.request_p99_us", "us"},
    {"stream.submit_reading_us_p50", "us"},
    {"stream.submit_reading_us_p99", "us"},
    {"stream.feedback_us_p50", "us"},
    {"stream.feedback_us_p99", "us"},
    {"stream.generations", "count"},
    {"stream.rollbacks", "count"},
    {"adaptive.p99_us.in_retrain", "us"},
    {"adaptive.p99_us.no_retrain", "us"},
    {"storage.spill_file_bytes", "bytes"},
    {"gen.late_us_p99", "us"},
    {"gen.late_us_max", "us"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train_csv|serve_low|serve_high|adaptive_churn --seed N "
               "--seconds S [--trace 0|1] [--scale F] [--work-dir DIR] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  options.threads = HardwareThreads();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scale") {
      options.scale = std::strtod(value, &end);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (!(options.seconds > 0.0) || !(options.scale > 0.0)) {
    Usage("--seconds and --scale must be positive");
  }
  return options;
}

// JSON string escaping for the few free-text fields (errors, flags).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

// Puts the per-layer metrics in the canonical order, with 0 for layers this
// workload does not run through.
std::vector<Metric> CanonicalLayers(const std::vector<Metric>& measured) {
  std::vector<Metric> out;
  for (const LayerName& layer : kPerLayerMetrics) {
    Metric m{layer.name, 0.0, layer.unit};
    for (const Metric& got : measured) {
      if (got.name == m.name) m.value = got.value;
    }
    out.push_back(m);
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunOptions options = ParseArgs(argc, argv);
  std::printf("perfbench: workload %s seed %llu seconds %.3g trace %d "
              "scale %.3g threads %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.scale, options.threads);

  Result result;
  SpanLog log;
  const IdlePoll idle_poll;
  if (options.workload == "train_csv") {
    RunTrainCsv(options, &result, &log);
  } else if (options.workload == "serve_low") {
    RunServe(options, /*high=*/false, &result, &log);
  } else if (options.workload == "serve_high") {
    RunServe(options, /*high=*/true, &result, &log);
  } else if (options.workload == "adaptive_churn") {
    RunAdaptiveChurn(options, &result, &log);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }
  // train_csv reports its median job's peak; the others the whole run's.
  if (std::none_of(result.end_to_end.begin(), result.end_to_end.end(),
                   [](const Metric& m) { return m.name == "peak_rss_mb"; })) {
    result.E2e("peak_rss_mb", PeakRssMb(), "MiB");
  }

  if (options.trace && !options.trace_out.empty()) {
    if (!log.WriteJsonl(options.trace_out, kMaxSpansWritten)) {
      result.Fail("could not write the span log to " + options.trace_out);
    } else {
      std::printf("perfbench: %zu spans -> %s\n", log.spans().size(),
                  options.trace_out.c_str());
    }
  }

  std::string errors = "[";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    errors += (i > 0 ? ", " : "") + Quote(result.errors[i]);
  }
  errors += "]";
  const std::string provenance =
      "{\"nproc\": " + std::to_string(HardwareThreads()) +
      ", \"threads\": " + std::to_string(options.threads) +
      ", \"idle_poll_cpus\": " + std::to_string(idle_poll.cpus()) +
      ", \"compiler\": " + Quote(PERFBENCH_COMPILER) +
      ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
      ", \"cxx_flags\": " + Quote(PERFBENCH_CXX_FLAGS) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + Number(options.seconds) +
      ", \"scale\": " + Number(options.scale) + "}";
  std::printf(
      "{\"workload\": %s, \"correct\": %s, \"attempted\": %lld, \"failed\": "
      "%lld, \"end_to_end\": %s, \"per_layer\": %s, \"provenance\": %s, "
      "\"errors\": %s}\n",
      Quote(options.workload).c_str(), result.correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed),
      Metrics(result.end_to_end).c_str(),
      options.trace ? Metrics(CanonicalLayers(result.per_layer)).c_str()
                    : "{}",
      provenance.c_str(), errors.c_str());
  return 0;
}
