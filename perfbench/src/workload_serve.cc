// serve_low / serve_high: open-loop Poisson single-tuple requests through
// BatchingQueue::Submit against a registry-published compiled UDT-ES tree,
// under the queue's shipped defaults. The kernel costs well under a
// microsecond per tuple, so the queue's admission, coalescing window,
// drain, completion and wake-up set the latency; training does nothing
// once set-up is over.
//
//   serve_low   2k req/s: every request waits out the coalescing window.
//   serve_high  25k req/s: ~8 requests coalesce per drain; then the
//               saturation throughput, with the admission queue kept
//               full. A traced run also climbs a rate ladder to the highest
//               rate whose p99 stays within 1 ms with no failures and no
//               growing backlog.
//
// The fixed rates sit far below capacity because the host's CPU speed
// swings widely: at 100k-200k req/s, slow stretches of the host already
// fill the 4096-deep admission queue and shed requests.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>

#include "serve/batching_queue.h"
#include "serve/servable.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kModelName = "segment";
constexpr int kSetupRepetitions = 9;
constexpr double kLowRate = 2'000.0;
constexpr double kHighRate = 25'000.0;
constexpr double kLatencyLimitUs = 1'000.0;
constexpr int kLadderSearches = 5;
// Requests kept outstanding by the saturation phase: deep enough that every
// drain takes a full batch, shallow enough never to reach max_queue.
constexpr size_t kSaturationInFlight = 2048;
// Latency figures are medians over this many stretches of the phase.
constexpr int kWindows = 20;

// Stamps the queue's internals from the two hooks it offers: the snapshot
// provider (called once per drain, right after the drain picks its batch)
// and the response tap (called per response just before its completion).
// Only the drainer thread writes; the main thread reads after the traced
// phase's last future resolved, which orders every write before the read.
class QueueProbe {
 public:
  QueueProbe(const udt::serve::ModelRegistry* registry, size_t capacity)
      : registry_(registry),
        pick_(capacity),
        resolved_(capacity),
        tap_(capacity),
        tap_drain_(capacity) {}

  udt::serve::BatchingQueue::SnapshotProvider Provider() {
    return [this] {
      const int64_t pick = NowNs();
      udt::serve::ModelHandle handle = registry_->Resolve(kModelName);
      if (armed_.load(std::memory_order_relaxed) && drains_ < pick_.size()) {
        pick_[drains_] = pick;
        resolved_[drains_] = NowNs();
        ++drains_;
      }
      return handle;
    };
  }

  std::function<void(const udt::serve::ServeResult&)> Tap() {
    return [this](const udt::serve::ServeResult&) {
      if (armed_.load(std::memory_order_relaxed) && taps_ < tap_.size() &&
          drains_ > 0) {
        tap_[taps_] = NowNs();
        tap_drain_[taps_] = drains_ - 1;
        ++taps_;
      }
    };
  }

  // Call only while the queue is idle.
  void Arm() { armed_.store(true); }
  void Disarm() { armed_.store(false); }

  size_t drains() const { return drains_; }
  size_t taps() const { return taps_; }
  int64_t pick(size_t d) const { return pick_[d]; }
  int64_t resolved(size_t d) const { return resolved_[d]; }
  int64_t tap(size_t k) const { return tap_[k]; }
  size_t tap_drain(size_t k) const { return tap_drain_[k]; }

 private:
  const udt::serve::ModelRegistry* registry_;
  std::atomic<bool> armed_{false};
  size_t drains_ = 0;
  size_t taps_ = 0;
  std::vector<int64_t> pick_;
  std::vector<int64_t> resolved_;
  std::vector<int64_t> tap_;
  std::vector<size_t> tap_drain_;
};

// The published model and the queue in front of it.
struct Deployment {
  std::optional<Table> table;
  std::unique_ptr<udt::serve::ModelRegistry> registry;
  std::unique_ptr<QueueProbe> probe;
  std::unique_ptr<udt::serve::BatchingQueue> queue;
  uint64_t version = 0;
  size_t model_bytes = 0;
  // The oracle: the direct ServeSession answer for every pool tuple.
  udt::FlatBatchResult expected;
};

bool SameAnswer(const udt::FlatBatchResult& expected, size_t i,
                const udt::serve::ServeResult& got, uint64_t version) {
  const size_t k = static_cast<size_t>(expected.num_classes);
  return got.label == expected.labels[i] && got.model_version == version &&
         got.distribution.size() == k &&
         std::memcmp(got.distribution.data(),
                     expected.distributions.data() + i * k,
                     k * sizeof(double)) == 0;
}

// Closed-loop pass over the pool, 64 requests in flight; returns how many
// responses disagreed with the oracle and counts correct labels.
int64_t PoolPass(Deployment* d, int64_t* correct_labels) {
  const udt::Dataset& pool = *d->table->holdout;
  const size_t n = static_cast<size_t>(pool.num_tuples());
  int64_t wrong = 0;
  std::vector<std::future<udt::serve::ServeResult>> window;
  for (size_t begin = 0; begin < n; begin += 64) {
    window.clear();
    const size_t end = std::min(n, begin + 64);
    for (size_t i = begin; i < end; ++i) {
      window.push_back(d->queue->Submit(&pool.tuple(static_cast<int>(i))));
    }
    for (size_t i = begin; i < end; ++i) {
      udt::serve::ServeResult r = window[i - begin].get();
      if (!r.status.ok() || !SameAnswer(d->expected, i, r, d->version)) {
        ++wrong;
      }
      if (r.label == pool.tuple(static_cast<int>(i)).label) ++*correct_labels;
    }
  }
  return wrong;
}

void Deploy(const RunOptions& options, size_t probe_capacity, Deployment* d,
            JobTrace* trace) {
  d->queue.reset();
  d->probe.reset();
  d->registry.reset();
  d->table.reset();
  d->table.emplace(MakeSegmentTable(options.seed, options.scale));
  d->registry = std::make_unique<udt::serve::ModelRegistry>();
  JobOutput job = RunPaperJob(d->table->train_csv, options.threads,
                              d->registry.get(), kModelName, trace);
  d->version = job.version;
  d->model_bytes = job.serialized.size();

  udt::serve::ModelHandle handle = d->registry->Resolve(kModelName);
  udt::serve::ServeSession session(handle->servable);
  d->expected.Clear();
  const std::vector<udt::UncertainTuple>& tuples = d->table->holdout->tuples();
  const udt::Status st = session.PredictBatchInto(
      std::span<const udt::UncertainTuple>(tuples.data(), tuples.size()),
      udt::PredictOptions(), &d->expected);
  UDT_CHECK(st.ok());

  // Traced and untraced runs serve through the same provider and tap; only
  // a traced run gives the probe room to record, and arms it.
  d->probe = std::make_unique<QueueProbe>(
      d->registry.get(), options.trace ? probe_capacity : 0);
  udt::serve::BatchingConfig config;  // shipped defaults
  config.response_tap = d->probe->Tap();
  d->queue =
      std::make_unique<udt::serve::BatchingQueue>(d->probe->Provider(), config);
}

// One open-loop phase against the deployment, checked against the oracle.
OpenLoopRun Phase(Deployment* d, double rate, double seconds, uint64_t seed) {
  const udt::Dataset& pool = *d->table->holdout;
  const size_t n = static_cast<size_t>(pool.num_tuples());
  return RunOpenLoop(
      {rate, seconds, seed},
      [&](size_t i) {
        return d->queue->Submit(&pool.tuple(static_cast<int>(i % n)));
      },
      [&](size_t i, const udt::serve::ServeResult& r) {
        return SameAnswer(d->expected, i % n, r, d->version);
      });
}

struct Rung {
  bool pass = false;
  double achieved_rps = 0.0;
};

// One ladder rung. It passes when nothing failed, the median over its five
// stretches of the stretch p99 is within the limit (so a lone host stall
// does not sink it), and the last stretch's median is within the limit
// too, which a growing backlog breaks first.
Rung LadderRung(Deployment* d, double rate, double seconds, uint64_t seed,
                 Result* result) {
  const OpenLoopRun run = Phase(d, rate, seconds, seed);
  result->attempted += static_cast<int64_t>(run.size());
  if (run.wrong > 0) {
    result->failed += run.wrong;
    result->Fail("a ladder response differs from the direct session");
  }
  Rung rung;
  rung.pass = run.failed == 0 && run.wrong == 0 &&
               run.WindowedQuantileUs(0.99, 5) <= kLatencyLimitUs &&
               run.LastWindowQuantileUs(0.5, 5) <= kLatencyLimitUs;
  rung.achieved_rps =
      static_cast<double>(run.size() - static_cast<size_t>(run.failed)) /
      run.ElapsedSeconds();
  return rung;
}

// A rung fails only when a second attempt fails too: one host stall must
// not end a search, while real overload fails every attempt.
bool RungPasses(Deployment* d, double rate, double seconds, uint64_t* seed,
                Result* result, double* achieved) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Rung p = LadderRung(d, rate, seconds, (*seed)++, result);
    if (p.pass) {
      *achieved = p.achieved_rps;
      return true;
    }
  }
  return false;
}

// Highest passing rate: from the fixed high rate, step up by 1.5x until a
// rung fails, then bisect geometrically between the last pass and the
// first fail (five halvings: ~1.3% resolution). Returns the achieved rate
// of the best passing rung, 0 when even the lowest rung fails.
double LadderSearch(Deployment* d, double rung_seconds, uint64_t seed,
                    double scale, Result* result) {
  double lo = kHighRate * scale;
  double best = 0.0;
  while (!RungPasses(d, lo, rung_seconds, &seed, result, &best)) {
    lo /= 2.0;
    if (lo < 1000.0 * scale) return 0.0;
  }
  double hi = lo * 1.5;
  double achieved = 0.0;
  while (hi < 1e8 && RungPasses(d, hi, rung_seconds, &seed, result, &achieved)) {
    lo = hi;
    best = achieved;
    hi *= 1.5;
  }
  for (int step = 0; step < 5; ++step) {
    const double mid = std::sqrt(lo * hi);
    if (RungPasses(d, mid, rung_seconds, &seed, result, &achieved)) {
      lo = mid;
      best = achieved;
    } else {
      hi = mid;
    }
  }
  return best;
}

// Completed requests per second with kSaturationInFlight requests always
// outstanding (one client that submits whenever it is below the mark), so
// every drain takes a full batch. Every response is checked.
double SaturationThroughput(Deployment* d, double seconds, Result* result) {
  const udt::Dataset& pool = *d->table->holdout;
  const size_t n = static_cast<size_t>(pool.num_tuples());
  std::deque<std::future<udt::serve::ServeResult>> inflight;
  size_t next = 0;
  int64_t completed = 0;
  int64_t bad = 0;
  auto take = [&] {
    const udt::serve::ServeResult r = inflight.front().get();
    const size_t i = (next - inflight.size()) % n;
    inflight.pop_front();
    if (!r.status.ok() || !SameAnswer(d->expected, i, r, d->version)) ++bad;
  };
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  int64_t last = start;
  while ((last = NowNs()) < stop) {
    while (inflight.size() < kSaturationInFlight) {
      inflight.push_back(d->queue->Submit(&pool.tuple(static_cast<int>(next++ % n))));
    }
    take();
    ++completed;
  }
  while (!inflight.empty()) take();
  result->attempted += static_cast<int64_t>(next);
  if (bad > 0) {
    result->failed += bad;
    result->Fail(std::to_string(bad) +
                 " saturation responses failed or differ from the direct "
                 "session");
  }
  return static_cast<double>(completed) / NsToS(last - start);
}

// Per-layer metrics of one traced phase, from the probe's stamps and the
// generator's; also records every request's spans (a sample of them when
// the phase is large).
void AddServeLayers(const OpenLoopRun& run, const QueueProbe& probe,
                    uint64_t shed, SpanLog* log, Result* result) {
  AddGeneratorLayers(run, result);
  result->Layer("serve.shed", static_cast<double>(shed), "count");
  result->Layer("serve.drains", static_cast<double>(probe.drains()), "count");
  result->Layer("serve.batch_size_mean",
                probe.drains() > 0 ? static_cast<double>(probe.taps()) /
                                         static_cast<double>(probe.drains())
                                   : 0.0,
                "count");
  // Request k is the k-th tapped response only when the queue kept FIFO
  // order over every request: nothing shed, nothing failed.
  if (shed != 0 || run.failed != 0 || probe.taps() != run.size()) {
    result->Fail("traced phase lost requests; queue stamps are unusable");
    return;
  }

  // Kernel time per drain: resolved -> first tapped response of the drain.
  std::vector<size_t> first_tap(probe.drains(), SIZE_MAX);
  std::vector<size_t> batch_size(probe.drains(), 0);
  for (size_t k = 0; k < probe.taps(); ++k) {
    const size_t drain = probe.tap_drain(k);
    first_tap[drain] = std::min(first_tap[drain], k);
    ++batch_size[drain];
  }
  std::vector<double> per_req_us;
  std::vector<double> resolve_us;
  for (size_t drain = 0; drain < probe.drains(); ++drain) {
    if (batch_size[drain] == 0) continue;
    per_req_us.push_back(
        NsToUs(probe.tap(first_tap[drain]) - probe.resolved(drain)) /
        static_cast<double>(batch_size[drain]));
    resolve_us.push_back(NsToUs(probe.resolved(drain) - probe.pick(drain)));
  }
  result->Layer("serve.resolve_us_p50", Median(resolve_us), "us");
  result->Layer("serve.batch_us_per_req", Mean(per_req_us), "us");

  // Spans: request root (due -> done) tiled by its stages. At most ~100k
  // requests are recorded; the stride samples the phase uniformly.
  const size_t stride = std::max<size_t>(1, run.size() / 100'000);
  for (size_t i = 0; i < run.size(); i += stride) {
    const size_t drain = probe.tap_drain(i);
    const int64_t req = static_cast<int64_t>(i);
    const int64_t kernel_end = probe.tap(first_tap[drain]);
    const int64_t root =
        log->Add("request", run.due[i], run.done[i], -1, req);
    log->Add("gen.wait", run.due[i], run.submit_begin[i], root, req);
    log->Add("serve.admit", run.submit_begin[i], run.submit_end[i], root, req);
    log->Add("serve.queue_wait", run.submit_end[i], probe.pick(drain), root,
             req);
    log->Add("serve.resolve", probe.pick(drain), probe.resolved(drain), root,
             req);
    log->Add("serve.kernel", probe.resolved(drain), kernel_end, root, req);
    log->Add("serve.complete", kernel_end, probe.tap(i), root, req);
    log->Add("serve.wake", probe.tap(i), run.done[i], root, req);
  }
  auto us = [](std::vector<double> s) {
    for (double& v : s) v *= 1e6;
    return s;
  };
  const std::vector<double> admit = us(log->SelfSeconds("serve.admit"));
  const std::vector<double> wait = us(log->SelfSeconds("serve.queue_wait"));
  const std::vector<double> wake = us(log->SelfSeconds("serve.wake"));
  result->Layer("serve.admit_us_p50", Quantile(admit, 0.5), "us");
  result->Layer("serve.admit_us_p99", Quantile(admit, 0.99), "us");
  result->Layer("serve.queue_wait_us_p50", Quantile(wait, 0.5), "us");
  result->Layer("serve.queue_wait_us_p99", Quantile(wait, 0.99), "us");
  result->Layer("serve.wake_us_p50", Quantile(wake, 0.5), "us");
  result->Layer("serve.wake_us_p99", Quantile(wake, 0.99), "us");
}

}  // namespace

void RunServe(const RunOptions& options, bool high, Result* result,
              SpanLog* log) {
  const double scale = std::min(1.0, options.scale);
  const double rate = (high ? kHighRate : kLowRate) * scale;
  const double phase_seconds = high ? options.seconds * 0.5 : options.seconds;
  const size_t probe_capacity =
      static_cast<size_t>(rate * phase_seconds * 1.1) + 4096;

  Deployment d;
  JobTrace trace;
  std::vector<double> train_s;
  int64_t job_id = 0;
  const double setup_s = MedianSetupSeconds(kSetupRepetitions, [&](int) {
    Deploy(options, probe_capacity, &d, &trace);
    train_s.push_back(NsToS(trace.published - trace.start));
    if (options.trace) AddJobSpans(log, trace, job_id++);
    int64_t correct = 0;
    PoolPass(&d, &correct);  // warm-up: first drains, session bind
  });

  // Oracle, before timing: queue responses are byte-identical to a direct
  // ServeSession over the same published artifact.
  int64_t correct_labels = 0;
  const int64_t mismatches = PoolPass(&d, &correct_labels);
  const int64_t pool_n = d.table->holdout->num_tuples();
  result->attempted += pool_n;
  if (mismatches > 0) {
    result->failed += mismatches;
    result->Fail(std::to_string(mismatches) +
                 " queue responses differ from the direct session");
  }
  const double accuracy =
      static_cast<double>(correct_labels) / static_cast<double>(pool_n);

  // The fixed-rate phase.
  const uint64_t seed = options.seed * 1000;
  if (options.trace) d.probe->Arm();
  const uint64_t shed_before = d.queue->stats().rejected;
  const OpenLoopRun run = Phase(&d, rate, phase_seconds, seed);
  const uint64_t shed = d.queue->stats().rejected - shed_before;
  d.probe->Disarm();
  result->attempted += static_cast<int64_t>(run.size());
  result->failed += run.failed + run.wrong;
  if (run.wrong > 0) {
    result->Fail(std::to_string(run.wrong) +
                 " timed responses differ from the direct session");
  }
  // The end-to-end tail is p90: with the serving system mostly idle, each
  // request pays three thread wake-ups, and on a busy virtualised host the
  // p99 of those measures the hypervisor more than the queue. The p99 is
  // kept as the per-layer serve.request_p99_us.
  const double p50_us = run.WindowedQuantileUs(0.5, kWindows);
  const double p90_us = run.WindowedQuantileUs(0.9, kWindows);
  const double p99_us = run.WindowedQuantileUs(0.99, kWindows);
  const double served_rps =
      static_cast<double>(run.size() - static_cast<size_t>(run.failed)) /
      run.ElapsedSeconds();
  std::printf("%s: %zu requests at %.0f req/s, p50 %.1f us, p90 %.1f us, "
              "p99 %.1f us, failed %lld\n",
              high ? "serve_high" : "serve_low", run.size(), rate, p50_us,
              p90_us, p99_us,
              static_cast<long long>(run.failed));

  double throughput = served_rps;
  double max_rps = 0.0;
  if (high) {
    throughput = SaturationThroughput(&d, options.seconds * 0.4, result);
    std::printf("serve_high: saturation %.0f req/s\n", throughput);
  }
  if (high && options.trace) {
    // Rung length: a run's half over the searches' ~14 rungs each.
    const double rung_seconds =
        std::max(0.1, options.seconds * 0.5 / (kLadderSearches * 14));
    std::vector<double> best;
    for (int s = 0; s < kLadderSearches; ++s) {
      best.push_back(LadderSearch(&d, rung_seconds, seed + 100 * (s + 1),
                                  scale, result));
      std::printf("serve_high: ladder %d -> %.0f req/s\n", s, best.back());
    }
    max_rps = Median(best);
  }

  result->E2e("setup_s", setup_s, "s");
  result->E2e("latency_p50_ms", p50_us * 1e-3, "ms");
  result->E2e("latency_tail_ms", p90_us * 1e-3, "ms");
  result->E2e("throughput_per_s", throughput, "1/s");
  result->E2e("train_publish_s_p50", Median(train_s), "s");
  result->E2e("model_accuracy", accuracy, "fraction");

  if (options.trace) {
    AddTrainLayers(*log, trace, d.model_bytes, result);
    AddServeLayers(run, *d.probe, shed, log, result);
    result->Layer("serve.max_rps", max_rps, "1/s");
    result->Layer("serve.request_p99_us", p99_us, "us");
  }
  d.queue.reset();
}

}  // namespace perfbench
