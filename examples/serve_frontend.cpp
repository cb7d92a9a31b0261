// Serving front end walkthrough: run a model "in production" with the
// src/serve/ subsystem — publish a v1 tree into a ModelRegistry, stream
// live traffic through a micro-batching BatchingQueue, hot swap to a
// retrained v2 without dropping a request, then retire v1 and drain.
//
// The sequence mirrors a real deployment:
//   1. train v1, Publish("prod") — the queue starts serving it;
//   2. clients Submit single tuples; the drainer coalesces them into
//      micro-batches over one persistent session;
//   3. train v2 on more data, Publish("prod") again — the very next
//      micro-batch serves v2; the batch in flight finishes wholly on v1;
//   4. Retire v1 — in-flight snapshots keep it alive until they finish;
//   5. Close() the queue: admitted requests drain, later ones are
//      rejected with kUnavailable.
//
// Run: build/examples/serve_frontend

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "api/trainer.h"
#include "common/random.h"
#include "pdf/pdf_builder.h"
#include "serve/batching_queue.h"
#include "serve/model_registry.h"
#include "serve/servable.h"

namespace {

// Gaussian-noised readings over 4 channels, three classes — the
// uncertain-data regime the paper's distribution-based trees target.
udt::Dataset MakeReadings(int tuples, int s, uint64_t seed) {
  udt::Rng rng(seed);
  udt::Dataset ds(udt::Schema::Numerical(4, {"calm", "active", "alarm"}));
  for (int i = 0; i < tuples; ++i) {
    udt::UncertainTuple t;
    t.label = i % 3;
    for (int j = 0; j < 4; ++j) {
      double center = rng.Gaussian(t.label * 1.2 + 0.1 * j, 1.0);
      auto pdf = udt::MakeGaussianErrorPdf(center, rng.Uniform(0.6, 1.4), s);
      UDT_CHECK(pdf.ok());
      t.values.push_back(udt::UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

udt::serve::Servable TrainServable(int tuples, uint64_t seed) {
  udt::TreeConfig config;
  config.algorithm = udt::SplitAlgorithm::kUdtEs;
  auto model = udt::Trainer(config).TrainUdt(MakeReadings(tuples, 10, seed));
  UDT_CHECK(model.ok());
  return udt::serve::Servable(model->Compile());
}

// One wave of traffic: submit every pool tuple, wait for every response,
// report which versions served it.
void SendTraffic(udt::serve::BatchingQueue* queue, const udt::Dataset& pool,
                 const char* phase) {
  std::vector<std::future<udt::serve::ServeResult>> futures;
  for (const udt::UncertainTuple& tuple : pool.tuples()) {
    futures.push_back(queue->Submit(&tuple));
  }
  uint64_t min_version = ~0ull, max_version = 0;
  int ok = 0;
  for (auto& future : futures) {
    udt::serve::ServeResult result = future.get();
    if (!result.status.ok()) continue;
    ++ok;
    min_version = std::min(min_version, result.model_version);
    max_version = std::max(max_version, result.model_version);
  }
  udt::serve::BatchingQueue::Stats stats = queue->stats();
  std::printf(
      "%-18s %3d/%3zu ok, served by prod v%llu..v%llu   "
      "(%llu drains so far, largest %llu)\n",
      phase, ok, futures.size(), (unsigned long long)min_version,
      (unsigned long long)max_version, (unsigned long long)stats.drains,
      (unsigned long long)stats.max_drain);
}

}  // namespace

int main() {
  udt::Dataset pool = MakeReadings(96, 10, 1042);

  // 1. Publish v1 and bind a queue to the entry's latest live version.
  udt::serve::ModelRegistry registry;
  uint64_t v1 = registry.Publish("prod", TrainServable(150, 7));
  std::printf("published prod v%llu (150 training tuples)\n",
              (unsigned long long)v1);

  udt::serve::BatchingConfig config;
  config.max_batch = 16;      // drain when 16 requests are pending...
  config.max_delay_us = 200;  // ...or the oldest has waited 200us; when
                              // arrivals average 200us or more apart, no
                              // company is due and drains serve at once
  udt::serve::BatchingQueue queue(&registry, "prod", config);

  // 2. Live traffic against v1.
  SendTraffic(&queue, pool, "traffic on v1:");

  // 3. Hot swap: retrain on more data and publish. No pause, no queue
  //    restart — the next micro-batch snapshot resolves v2.
  uint64_t v2 = registry.Publish("prod", TrainServable(400, 8));
  std::printf("published prod v%llu (400 training tuples) — hot swap\n",
              (unsigned long long)v2);
  SendTraffic(&queue, pool, "traffic on v2:");

  // 4. Retire v1. Resolve("prod") already returns v2; any batch still
  //    holding a v1 snapshot finishes safely on its shared handle.
  UDT_CHECK(registry.Retire("prod", v1).ok());
  std::printf("retired prod v%llu; live versions now:", (unsigned long long)v1);
  for (uint64_t v : registry.Versions("prod")) {
    std::printf(" v%llu", (unsigned long long)v);
  }
  std::printf("\n");
  SendTraffic(&queue, pool, "after retire:");

  // 5. Shutdown: Close() drains everything admitted, then rejects.
  queue.Close();
  udt::serve::ServeResult late = queue.Submit(&pool.tuple(0)).get();
  std::printf("submit after Close(): %s\n", late.status.ToString().c_str());

  udt::serve::BatchingQueue::Stats stats = queue.stats();
  std::printf("totals: %llu admitted, %llu served, %llu rejected, "
              "%llu micro-batches\n",
              (unsigned long long)stats.submitted,
              (unsigned long long)stats.served,
              (unsigned long long)stats.rejected,
              (unsigned long long)stats.drains);
  return 0;
}
