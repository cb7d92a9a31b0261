#include "open_loop.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "common/random.h"
#include "support.h"

namespace perfbench {
namespace {

// Futures in flight between generator and collector. A backlog this deep
// means the system has fallen far behind; the generator then waits, and
// the wait shows up as generator lateness and request latency.
constexpr size_t kRingSize = 1 << 16;

// Sleep through long gaps, spin through the last stretch. The generator
// thread runs with a 1 us timer slack (see RunOpenLoop), so a sleep
// overshoots by a few microseconds, not the default 50.
void WaitUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 30'000;
  const int64_t now = NowNs();
  if (due_ns - now > 2 * kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

}  // namespace

std::vector<double> OpenLoopRun::LatencyUs() const {
  std::vector<double> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) {
    out.push_back(ok[i] ? NsToUs(done[i] - due[i])
                        : std::numeric_limits<double>::infinity());
  }
  return out;
}

std::vector<std::vector<double>> OpenLoopRun::WindowLatencies(
    int windows) const {
  std::vector<std::vector<double>> out(static_cast<size_t>(windows));
  const std::vector<double> latency = LatencyUs();
  const double span = static_cast<double>(due.back() - due.front()) + 1.0;
  for (size_t i = 0; i < size(); ++i) {
    const size_t w = static_cast<size_t>(
        static_cast<double>(due[i] - due.front()) / span * windows);
    out[std::min(w, out.size() - 1)].push_back(latency[i]);
  }
  return out;
}

double OpenLoopRun::WindowedQuantileUs(double q, int windows) const {
  // Fewer stretches when the run is too short for each to keep ten
  // samples beyond q (a smoke run ends up with one).
  const double min_samples = 10.0 / std::max(1.0 - q, 1e-9);
  windows = std::clamp(
      static_cast<int>(static_cast<double>(size()) / min_samples), 1, windows);
  std::vector<double> per_window;
  for (std::vector<double>& w : WindowLatencies(windows)) {
    if (!w.empty()) per_window.push_back(Quantile(std::move(w), q));
  }
  return Median(std::move(per_window));
}

double OpenLoopRun::LastWindowQuantileUs(double q, int windows) const {
  return Quantile(std::move(WindowLatencies(windows).back()), q);
}

std::vector<double> OpenLoopRun::LatenessUs() const {
  std::vector<double> out(size());
  for (size_t i = 0; i < size(); ++i) {
    out[i] = NsToUs(std::max<int64_t>(0, submit_begin[i] - due[i]));
  }
  return out;
}

double OpenLoopRun::ElapsedSeconds() const { return NsToS(end_ns - start_ns); }

void AddGeneratorLayers(const OpenLoopRun& run, Result* result) {
  const std::vector<double> late = run.LatenessUs();
  result->Layer("gen.late_us_p99", Quantile(late, 0.99), "us");
  result->Layer("gen.late_us_max", Quantile(late, 1.0), "us");
}

OpenLoopRun RunOpenLoop(const OpenLoopSpec& spec, const SubmitFn& submit,
                        const CheckFn& check) {
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(std::llround(spec.rate_per_s * spec.seconds)));
  OpenLoopRun run;
  run.due.resize(n);
  run.submit_begin.resize(n);
  run.submit_end.resize(n);
  run.done.resize(n);
  run.ok.resize(n);

  // The arrival schedule is fixed before the first request: exponential
  // gaps at the phase's rate, drawn from the phase's seed.
  udt::Rng rng(spec.seed);
  double t_ns = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t_ns += -std::log(1.0 - rng.Uniform01()) / spec.rate_per_s * 1e9;
    run.due[i] = static_cast<int64_t>(t_ns);
  }
  // Anchor the schedule only once it is computed, so the first requests
  // are not already late.
  run.start_ns = NowNs() + 1'000'000;
  for (int64_t& due : run.due) due += run.start_ns;

  std::vector<std::future<udt::serve::ServeResult>> ring(kRingSize);
  std::atomic<int> published{0};
  std::atomic<int> collected{0};
  int64_t failed = 0;
  int64_t wrong = 0;

  std::thread collector([&] {
    for (size_t j = 0; j < n; ++j) {
      int p = published.load(std::memory_order_acquire);
      while (static_cast<size_t>(p) <= j) {
        published.wait(p, std::memory_order_acquire);
        p = published.load(std::memory_order_acquire);
      }
      // Taking the future out of its slot frees its shared state here, on
      // the collector, as soon as the response is read.
      std::future<udt::serve::ServeResult> future =
          std::move(ring[j % kRingSize]);
      udt::serve::ServeResult result = future.get();
      run.done[j] = NowNs();
      bool good = result.status.ok();
      if (!good) {
        ++failed;
      } else if (!check(j, result)) {
        ++wrong;
        good = false;
      }
      run.ok[j] = good ? 1 : 0;
      collected.store(static_cast<int>(j + 1), std::memory_order_release);
    }
  });

  // A generator that spun through every gap would hold a core that the
  // system under test competes for; precise short sleeps keep it honest.
  const int old_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0);
  for (size_t i = 0; i < n; ++i) {
    WaitUntil(run.due[i]);
    while (i - static_cast<size_t>(collected.load(std::memory_order_acquire)) >=
           kRingSize) {
      std::this_thread::yield();
    }
    run.submit_begin[i] = NowNs();
    ring[i % kRingSize] = submit(i);
    run.submit_end[i] = NowNs();
    published.store(static_cast<int>(i + 1), std::memory_order_release);
    published.notify_one();
  }
  collector.join();
  prctl(PR_SET_TIMERSLACK, old_slack > 0 ? old_slack : 50'000, 0, 0, 0);
  run.end_ns = *std::max_element(run.done.begin(), run.done.end());
  run.start_ns = run.due.front();
  run.failed = failed;
  run.wrong = wrong;
  return run;
}

}  // namespace perfbench
