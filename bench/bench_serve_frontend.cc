// Serving front end: direct-session vs coalesced-queue latency and QPS.
//
// Motivation (ROADMAP north star): the executor work made one session
// fast; the serving front end (src/serve/) is what sits between "millions
// of users" and that session. This harness measures the cost/benefit of
// its admission layer with a closed-loop multi-client driver: each client
// issues single-tuple requests back to back (the next leaves when the
// previous response arrives), cycling a serve pool, through
//   * direct: one private ServeSession per client — the no-front-end
//             baseline (no queuing delay, but per-client sessions and no
//             hot swap),
//   * queue:  one shared BatchingQueue bound to a ModelRegistry entry —
//             micro-batch coalescing (max_batch/max_delay_us) over a
//             single persistent session, with per-drain registry
//             snapshots (atomic hot swap for free).
// at 1 / 2 / 4 client threads, for a single UDT tree and an 8-tree
// forest. Before timing, every model re-checks the serving guarantee:
// queue results byte-identical to the direct session for every tuple.
//
// Output: one table row per configuration, and with --json=PATH one JSON
// row (bench_common JsonRows; the committed sidecar is
// BENCH_serve_frontend.json) with sustained QPS and
// p50/p95/p99 request latency in microseconds. model/mode/clients are
// emitted as strings: they are identity dimensions of the sweep, and
// tools/check_bench_schema.py keys configuration coverage on
// string-valued fields.
//
// Run: build/bench/bench_serve_frontend [--full] [--scale=F] [--s=N]
//      [--json=PATH]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/trainer.h"
#include "bench_common.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "serve/batching_queue.h"
#include "serve/model_registry.h"
#include "serve/servable.h"

namespace udt {
namespace {

// Sustained QPS (served requests over the slowest client's wall time) and
// nearest-rank latency percentiles of one closed-loop run.
struct LatencyStats {
  size_t requests = 0;  // served requests (latency samples)
  size_t failed = 0;    // non-OK responses (shed/rejected), queue mode only
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

// Opens once; client threads block on Wait until every client is spawned,
// so all clients start the clock together.
class StartGate {
 public:
  void Open() {
    {
      MutexLock lock(&mu_);
      open_ = true;
    }
    cv_.NotifyAll();
  }
  void Wait() {
    MutexLock lock(&mu_);
    while (!open_) cv_.Wait(lock);
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool open_ UDT_GUARDED_BY(mu_) = false;
};

// Nearest-rank percentile over a sorted, non-empty sample set.
double PercentileSorted(const std::vector<double>& sorted, double pct) {
  const double rank = pct / 100.0 * static_cast<double>(sorted.size());
  size_t index = static_cast<size_t>(std::ceil(rank));
  index = std::min(std::max<size_t>(index, 1), sorted.size());
  return sorted[index - 1];
}

// Spawns `clients` threads, opens the gate, joins them and merges their
// latencies. `run_client(c, latencies)` issues client c's requests and
// appends one latency (us) per served request.
template <typename RunClient>
LatencyStats DriveClients(int clients, size_t requests_per_client,
                          RunClient run_client) {
  const size_t n = static_cast<size_t>(clients);
  std::vector<std::vector<double>> latencies(n);
  std::vector<double> client_seconds(n, 0.0);
  StartGate gate;
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    latencies[c].reserve(requests_per_client);
    threads.emplace_back([&, c] {
      gate.Wait();
      WallTimer timer;
      run_client(c, &latencies[c]);
      client_seconds[c] = timer.ElapsedSeconds();
    });
  }
  gate.Open();
  for (std::thread& thread : threads) thread.join();

  std::vector<double> merged;
  for (const std::vector<double>& sample : latencies) {
    merged.insert(merged.end(), sample.begin(), sample.end());
  }
  LatencyStats stats;
  stats.requests = merged.size();
  stats.wall_seconds =
      *std::max_element(client_seconds.begin(), client_seconds.end());
  stats.qps = static_cast<double>(stats.requests) /
              std::max(stats.wall_seconds, 1e-12);
  if (merged.empty()) return stats;
  std::sort(merged.begin(), merged.end());
  stats.p50_us = PercentileSorted(merged, 50.0);
  stats.p95_us = PercentileSorted(merged, 95.0);
  stats.p99_us = PercentileSorted(merged, 99.0);
  return stats;
}

// Direct mode: every client owns a ServeSession and classifies inline.
LatencyStats RunDirectClients(const serve::Servable& servable,
                              std::span<const UncertainTuple> pool,
                              int clients, size_t requests_per_client) {
  auto run_client = [&](size_t c, std::vector<double>* out) {
    serve::ServeSession session(servable);
    std::vector<double> row(static_cast<size_t>(session.num_classes()));
    for (size_t j = 0; j < requests_per_client; ++j) {
      const UncertainTuple& tuple =
          pool[(c + j * static_cast<size_t>(clients)) % pool.size()];
      WallTimer timer;
      session.ClassifyInto(tuple, row.data());
      out->push_back(timer.ElapsedSeconds() * 1e6);
    }
  };
  return DriveClients(clients, requests_per_client, run_client);
}

// Queue mode: every client submits to one shared queue and blocks on its
// future. A shed or rejected response returns in microseconds and would
// drag every percentile down, so it counts in `failed` instead of the
// latency samples.
LatencyStats RunQueueClients(serve::BatchingQueue* queue,
                             std::span<const UncertainTuple> pool,
                             int clients, size_t requests_per_client) {
  Mutex failure_mu;
  size_t failed = 0;
  auto run_client = [&](size_t c, std::vector<double>* out) {
    size_t my_failures = 0;
    for (size_t j = 0; j < requests_per_client; ++j) {
      const UncertainTuple& tuple =
          pool[(c + j * static_cast<size_t>(clients)) % pool.size()];
      WallTimer timer;
      serve::ServeResult result = queue->Submit(&tuple).get();
      if (result.status.ok()) {
        out->push_back(timer.ElapsedSeconds() * 1e6);
      } else {
        ++my_failures;
      }
    }
    MutexLock lock(&failure_mu);
    failed += my_failures;
  };
  LatencyStats stats = DriveClients(clients, requests_per_client, run_client);
  stats.failed = failed;
  return stats;
}

// The serving guarantee for the front end: every queue response is
// byte-identical to the direct session's answer for that tuple.
void CheckQueueMatchesDirect(const serve::Servable& servable,
                             const Dataset& pool) {
  serve::ServeSession direct(servable);
  FlatBatchResult reference;
  UDT_CHECK(direct
                .PredictBatchInto(
                    std::span<const UncertainTuple>(pool.tuples().data(),
                                                    pool.tuples().size()),
                    PredictOptions{}, &reference)
                .ok());
  const size_t k = static_cast<size_t>(reference.num_classes);

  serve::ModelRegistry registry;
  UDT_CHECK(registry.Publish("check", servable) == 1);
  serve::BatchingConfig config;
  config.max_batch = 16;
  config.max_delay_us = 200;
  serve::BatchingQueue queue(&registry, "check", config);
  std::vector<std::future<serve::ServeResult>> futures;
  for (const UncertainTuple& tuple : pool.tuples()) {
    futures.push_back(queue.Submit(&tuple));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    serve::ServeResult result = futures[i].get();
    UDT_CHECK(result.status.ok());
    UDT_CHECK(result.label == reference.labels[i]);
    UDT_CHECK(std::memcmp(result.distribution.data(),
                          reference.distribution(i).data(),
                          k * sizeof(double)) == 0);
  }
}

void RunModel(const char* model_name, const serve::Servable& servable,
              const Dataset& pool, size_t requests_per_client,
              bench::JsonRows* sink) {
  CheckQueueMatchesDirect(servable, pool);

  std::span<const UncertainTuple> tuples(pool.tuples().data(),
                                         pool.tuples().size());
  for (int clients : {1, 2, 4}) {
    LatencyStats direct =
        RunDirectClients(servable, tuples, clients, requests_per_client);

    // Two coalescing policies: eager (max_delay 0 — drain whatever is
    // pending the moment the drainer is free; batches emerge from
    // backlog) and a 100us window (bounded wait to fill batches — the
    // window price is visible directly in p50; a lone client's gaps sit
    // just above the window, so some of its drains skip it).
    auto run_queue = [&](int64_t max_delay_us) {
      serve::ModelRegistry registry;
      UDT_CHECK(registry.Publish("bench", servable) == 1);
      serve::BatchingConfig config;
      config.max_batch = 32;
      config.max_delay_us = max_delay_us;
      serve::BatchingQueue queue(&registry, "bench", config);
      LatencyStats stats =
          RunQueueClients(&queue, tuples, clients, requests_per_client);
      queue.Close();
      return stats;
    };
    LatencyStats eager = run_queue(0);
    LatencyStats windowed = run_queue(100);

    for (const char* mode : {"direct", "queue_eager", "queue_100us"}) {
      const LatencyStats& s =
          std::strcmp(mode, "direct") == 0
              ? direct
              : (std::strcmp(mode, "queue_eager") == 0 ? eager : windowed);
      std::printf("%-6s %-6s clients=%d  %9.0f req/s   p50 %7.1fus   "
                  "p95 %7.1fus   p99 %7.1fus\n",
                  model_name, mode, clients, s.qps, s.p50_us, s.p95_us,
                  s.p99_us);
      sink->AddRow()
          .Str("model", model_name)
          .Str("mode", mode)
          .Str("clients", std::to_string(clients))
          .Int("requests", static_cast<long long>(s.requests))
          .Int("failed", static_cast<long long>(s.failed))
          .Num("seconds", s.wall_seconds)
          .Num("qps", s.qps)
          .Num("p50_us", s.p50_us)
          .Num("p95_us", s.p95_us)
          .Num("p99_us", s.p99_us);
    }
  }
}

}  // namespace
}  // namespace udt

int main(int argc, char** argv) {
  udt::BenchOptions options = udt::ParseBenchOptions(argc, argv);
  udt::bench::PrintBanner(
      "Serving front end: direct sessions vs coalesced admission queue, "
      "closed-loop clients",
      "serving-path extension (not a paper figure); Section 3.2 traversal",
      options);
  udt::bench::JsonRows sink(options);

  const double scale = options.scale > 0.0 ? options.scale
                       : options.full      ? 1.0
                                           : 0.5;
  const int s = udt::bench::SamplesFor(options, 16);
  const int train_n = static_cast<int>(400 * scale);
  const size_t requests = options.full ? 20000 : 5000;

  std::printf("train %d tuples, serve pool 256 tuples, s=%d per pdf, "
              "%zu requests/client\n\n",
              train_n, s, requests);

  udt::Dataset train = udt::bench::NumericDataset(train_n, 4, 3, s, 42);
  udt::Dataset pool = udt::bench::NumericDataset(256, 4, 3, s, 1042);

  {
    udt::TreeConfig config;
    config.algorithm = udt::SplitAlgorithm::kUdtEs;
    auto model = udt::Trainer(config).TrainUdt(train);
    UDT_CHECK(model.ok());
    udt::RunModel("tree", udt::serve::Servable(model->Compile()), pool,
                  requests, &sink);
  }
  std::printf("\n");
  {
    udt::ForestConfig config;
    config.tree.algorithm = udt::SplitAlgorithm::kUdtEs;
    config.num_trees = 8;
    config.seed = 7;
    auto forest = udt::ForestTrainer(config).TrainUdt(train);
    UDT_CHECK(forest.ok());
    udt::RunModel("forest", udt::serve::Servable(forest->Compile()), pool,
                  requests, &sink);
  }

  sink.Flush();
  return 0;
}
