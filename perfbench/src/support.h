// Shared plumbing of the end-to-end benchmark: the clock, order
// statistics, the in-memory span log of the traced mode, and the result
// record every workload fills in.

#ifndef UDT_PERFBENCH_SUPPORT_H_
#define UDT_PERFBENCH_SUPPORT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds; every stamp in the benchmark comes from here.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToUs(int64_t ns) { return static_cast<double>(ns) * 1e-3; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Nearest-rank quantile (q in [0, 1]) of `values`; 0 for an empty input.
// Sorts a copy.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

// The highest of p99/p90/p50 that leaves at least ten samples beyond it,
// so a tail is never read off fewer than ten observations.
double TailQuantileLevel(size_t samples);

// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();
// Lowers the peak to the current resident set size, so that the next
// PeakRssMb() reads the peak since this call. Returns false when the
// kernel does not allow it (then the peak keeps counting from the start).
bool ResetPeakRss();

// Hardware threads available to the process.
int HardwareThreads();

// Keeps every CPU the process may run on out of its idle state while it
// lives, as booting with idle=poll would: one thread per CPU, pinned to it,
// spinning at SCHED_IDLE. The kernel preempts such a thread as soon as any
// other thread of the machine wakes there, and against a runnable normal
// thread it gets a share of about 0.3%, so it takes next to no CPU time
// from the program under test. What it removes is the wake-up of a halted
// virtual CPU, which on a virtualised host costs from tens of microseconds
// to milliseconds depending on the host's load, and which would otherwise
// dominate every latency tail of a mostly idle server. Spinners that cannot
// get SCHED_IDLE exit at once rather than compete at normal priority.
class IdlePoll {
 public:
  IdlePoll();
  ~IdlePoll();
  IdlePoll(const IdlePoll&) = delete;
  IdlePoll& operator=(const IdlePoll&) = delete;

  // CPUs held awake (0 when the scheduler refused SCHED_IDLE).
  int cpus() const { return active_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> active_{0};
  std::vector<std::thread> threads_;
};

// One traced interval. Spans of one request share `request`; `parent` is
// the index of the enclosing span in the same log, or -1 for a root.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;
  int64_t request;
};

// Spans kept in memory for the whole run and written out at exit. The
// workloads stamp raw timestamps on their hot threads and build spans from
// them afterwards on the main thread, so the log needs no lock.
class SpanLog {
 public:
  // Appends a span and returns its index (the id children refer to).
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, int64_t request);

  const std::vector<Span>& spans() const { return spans_; }

  // Duration minus the part covered by direct children, per span index.
  std::vector<int64_t> SelfTimesNs() const;

  // Self times (seconds) of every span called `name`.
  std::vector<double> SelfSeconds(const char* name) const;
  // Full durations (seconds) of every span called `name`.
  std::vector<double> DurationSeconds(const char* name) const;

  // Writes at most `max_spans` spans as JSON lines; returns false on an
  // I/O error. Stamps are relative to the first span's start.
  bool WriteJsonl(const std::string& path, size_t max_spans) const;

 private:
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run produced. `correct` turns false on the first
// oracle mismatch and stays false.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> errors;

  void Fail(const std::string& why);
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Shrinks data sizes, job counts and rates for the self-test's smoke
  // runs; 1.0 is the benchmark proper.
  double scale = 1.0;
  // Where the traced mode writes its span log ("" = nowhere).
  std::string trace_out;
  // Scratch directory for files the program under test writes.
  std::string work_dir = ".";
  // Training threads: nproc.
  int threads = 1;
};

// Returns freed heap memory to the system, so that memory the benchmark's
// own repetitions left behind does not raise the peak RSS it reports.
void TrimHeap();

// Median of `samples` set-up repetitions of `fn`, in seconds. `fn` must
// release the previous repetition's state before building its own.
template <typename Fn>
double MedianSetupSeconds(int samples, Fn fn) {
  std::vector<double> seconds;
  for (int i = 0; i < samples; ++i) {
    const int64_t start = NowNs();
    fn(i);
    seconds.push_back(NsToS(NowNs() - start));
    TrimHeap();
  }
  return Median(std::move(seconds));
}

}  // namespace perfbench

#endif  // UDT_PERFBENCH_SUPPORT_H_
