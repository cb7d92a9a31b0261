#include "support.h"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <latch>
#include <string_view>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double TailQuantileLevel(size_t samples) {
  if (samples >= 1000) return 0.99;
  if (samples >= 100) return 0.90;
  return 0.50;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the peak RSS (Linux 4.0 and later)
  clear_refs.flush();
  return clear_refs.good();
}

void TrimHeap() { malloc_trim(0); }

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

IdlePoll::IdlePoll() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::latch started(CPU_COUNT(&allowed));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    threads_.emplace_back([this, cpu, &started] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      const sched_param param{};
      const bool idle =
          pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0 &&
          pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) == 0;
      if (idle) active_.fetch_add(1);
      started.count_down();
      if (!idle) return;
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
  started.wait();
}

IdlePoll::~IdlePoll() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

int64_t SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     int64_t parent, int64_t request) {
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<int64_t> SpanLog::SelfTimesNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

std::vector<double> SpanLog::SelfSeconds(const char* name) const {
  const std::vector<int64_t> self = SelfTimesNs();
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) == name) out.push_back(NsToS(self[i]));
  }
  return out;
}

std::vector<double> SpanLog::DurationSeconds(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::string_view(span.name) == name) {
      out.push_back(NsToS(span.end_ns - span.start_ns));
    }
  }
  return out;
}

bool SpanLog::WriteJsonl(const std::string& path, size_t max_spans) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  const size_t n = std::min(max_spans, spans_.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  if (n < spans_.size()) {
    std::fprintf(out, "{\"truncated\":%zu}\n", spans_.size() - n);
  }
  return std::fclose(out) == 0;
}

void Result::Fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
  std::fprintf(stderr, "perfbench: ORACLE FAILURE: %s\n", why.c_str());
}

}  // namespace perfbench
