// adaptive_churn: AdaptiveServer serving an 8-tree UDT-ES forest to a
// fixed-rate Poisson stream, a quarter of which arrives as raw point
// readings (SubmitReading, wrapped by the calibrator). A feedback thread
// meanwhile sends a fixed-length seeded stream of labeled Feedback, paced
// over the run; every `kWindow` labels the tuple-count schedule retrains,
// spilling the window through the "udt-dataset v1" path. The drift
// threshold is parked, and the holdout gate is opened, so the schedule
// alone fixes the retrain count.
//
// Against serve_*, this uses the serve layer differently: registry writes
// (publish and swap) happen beside the reads, forest training competes
// with serving for cores, the calibrator and storage see their only
// traffic, and the kernel (eight trees) is a far larger share of a request.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <unistd.h>

#include "common/math.h"
#include "common/random.h"
#include "serve/servable.h"
#include "stream/adaptive_server.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepetitions = 3;
constexpr double kRate = 20'000.0;
constexpr int kWindow = 1024;
constexpr int kRetrains = 12;
// Retrains after the served stream stops; they time the retrain path.
constexpr int kQuietRetrains = 5;
constexpr int kForestTrees = 8;
constexpr int kPoolTuples = 1024;
constexpr int kSource = 0;
constexpr int kResidualsPerAttribute = 16;
// Warm-up and feedback requests go out this many at a time.
constexpr size_t kInFlight = 64;

// Every request i with i % 4 == 3 is a raw reading.
bool IsReading(size_t i) { return i % 4 == 3; }

uint64_t HashDistribution(const std::vector<double>& d) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : d) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    h = udt::SplitMix64(h ^ bits);
  }
  return h;
}

struct StreamData {
  std::optional<udt::Dataset> seed;      // bootstrap training set
  std::optional<udt::Dataset> pool;      // tuples requests cycle through
  std::optional<udt::Dataset> feedback;  // the labeled feedback stream
  std::optional<udt::Dataset> holdout;   // scores the live model at the end
  std::vector<std::vector<double>> readings;  // raw rows behind the pool
  std::vector<std::vector<double>> residuals;  // [attribute][observation]
};

// One sample from the Segment mixture, made uncertain in one pass and
// sliced, so every part shares schema, class ids and pdf widths.
StreamData MakeStreamData(uint64_t seed, int window, int retrains,
                          double scale) {
  const int pool_n = 7 * std::max(10, static_cast<int>(kPoolTuples * scale / 7));
  const int holdout_n = 7 * std::max(10, static_cast<int>(770 * scale / 7));
  const int seed_n = window;
  const int feedback_n = window * retrains;
  const udt::PointDataset sample =
      SampleSegmentRows(seed_n + pool_n + feedback_n + holdout_n);
  // The seed orders each slice (requests and feedback arrive in seeded
  // order) but never moves a tuple between slices or retrain windows, so
  // every retrain trains on the same tuples whatever the seed.
  std::vector<int> slices = {seed_n, pool_n};
  for (int c = 0; c < retrains; ++c) slices.push_back(window);
  slices.push_back(holdout_n);
  udt::PointDataset points(sample.schema());
  int begin = 0;
  for (size_t k = 0; k < slices.size(); ++k) {
    udt::PointDataset slice(sample.schema());
    for (int i = begin; i < begin + slices[k]; ++i) {
      UDT_CHECK(slice.AddRow(sample.row(i), sample.label(i)).ok());
    }
    const udt::PointDataset shuffled = ShuffleWithinClasses(slice, seed + k);
    for (int i = 0; i < shuffled.num_tuples(); ++i) {
      UDT_CHECK(points.AddRow(shuffled.row(i), shuffled.label(i)).ok());
    }
    begin += slices[k];
  }
  auto all = udt::InjectUncertainty(points, PaperUncertainty());
  UDT_CHECK(all.ok());

  StreamData data;
  const udt::Schema& schema = all->schema();
  data.seed.emplace(schema);
  data.pool.emplace(schema);
  data.feedback.emplace(schema);
  data.holdout.emplace(schema);
  for (int i = 0; i < all->num_tuples(); ++i) {
    udt::Dataset* side = i < seed_n                     ? &*data.seed
                         : i < seed_n + pool_n          ? &*data.pool
                         : i < seed_n + pool_n + feedback_n ? &*data.feedback
                                                        : &*data.holdout;
    UDT_CHECK(side->AddTuple(all->tuple(i)).ok());
    if (side == &*data.pool) data.readings.push_back(points.row(i));
  }

  // Seeded sensor residuals for the calibrator: each attribute's error has
  // a stddev of 2.5% of its range (the seed moves the draws, not the scale).
  udt::Rng rng(udt::SplitMix64(seed ^ 0xca1bULL));
  for (int a = 0; a < points.num_attributes(); ++a) {
    const auto [lo, hi] = points.AttributeRange(a);
    std::vector<double> cell;
    for (int k = 0; k < kResidualsPerAttribute; ++k) {
      cell.push_back(rng.Gaussian(0.0, 0.025 * (hi - lo)));
    }
    data.residuals.push_back(std::move(cell));
  }
  return data;
}

struct Retrain {
  int64_t begin = 0;
  int64_t end = 0;
};

}  // namespace

void RunAdaptiveChurn(const RunOptions& options, Result* result,
                      SpanLog* log) {
  const double scale = std::min(1.0, options.scale);
  const int window = std::max(128, static_cast<int>(kWindow * scale));
  const int retrains = std::max(2, static_cast<int>(kRetrains * scale));
  const int quiet_retrains =
      std::max(1, static_cast<int>(kQuietRetrains * scale));
  const double rate = kRate * scale;
  const std::string spill_path =
      options.work_dir + "/adaptive-spill-" + std::to_string(getpid()) +
      ".udtd";

  udt::stream::AdaptiveServerOptions server_options;
  server_options.model_name = "adaptive";
  server_options.retrain.window_capacity = static_cast<size_t>(window);
  server_options.retrain.min_window = 64;
  server_options.retrain.schedule_every = window;
  server_options.retrain.max_regression = 1.0;
  server_options.retrain.spill_to_storage = true;
  server_options.retrain.spill_path = spill_path;
  server_options.drift.lambda = 1e9;

  udt::ForestConfig forest;
  forest.tree = PaperTreeConfig(1);
  forest.num_trees = kForestTrees;
  forest.seed = udt::SplitMix64(options.seed);
  forest.num_threads = options.threads;

  std::optional<StreamData> data;
  std::unique_ptr<udt::stream::AdaptiveServer> server;
  std::vector<udt::UncertainTuple> wrapped;  // the oracle's wrapped readings
  int64_t setup_span = 0;
  const double setup_s = MedianSetupSeconds(kSetupRepetitions, [&](int) {
    server.reset();
    data.reset();
    const int64_t start = NowNs();
    data.emplace(
        MakeStreamData(options.seed, window, retrains + quiet_retrains, scale));
    const int64_t generated = NowNs();
    auto created = udt::stream::AdaptiveServer::Create(
        *data->seed, udt::ForestTrainer(forest), server_options);
    UDT_CHECK(created.ok());
    server = std::move(created).value();
    const int64_t bootstrapped = NowNs();

    // Calibrate source 0, and mirror the calibration in a private
    // calibrator: Wrap is a pure function of the residuals fed, so the
    // mirror reproduces exactly the tuples the server will serve.
    udt::stream::UncertaintyCalibrator mirror(data->seed->schema(),
                                              server_options.calibrator);
    for (size_t a = 0; a < data->residuals.size(); ++a) {
      for (double r : data->residuals[a]) {
        const int attr = static_cast<int>(a);
        UDT_CHECK(server->ObserveResidual(kSource, attr, r, 0.0).ok());
        UDT_CHECK(mirror.ObserveResidual(kSource, attr, r, 0.0).ok());
      }
    }
    wrapped.clear();
    for (const std::vector<double>& row : data->readings) {
      auto t = mirror.Wrap(kSource, row);
      UDT_CHECK(t.ok());
      wrapped.push_back(std::move(t).value());
    }
    // Warm-up: one pass over the pool on both submission paths.
    std::vector<std::future<udt::serve::ServeResult>> warm;
    for (int i = 0; i < data->pool->num_tuples(); ++i) {
      warm.push_back(server->Submit(&data->pool->tuple(i)));
      warm.push_back(server->SubmitReading(kSource, data->readings[i]));
      if (warm.size() >= kInFlight || i + 1 == data->pool->num_tuples()) {
        for (auto& f : warm) UDT_CHECK(f.get().status.ok());
        warm.clear();
      }
    }
    if (options.trace) {
      setup_span = log->Add("setup", start, NowNs(), -1, -1);
      log->Add("datagen", start, generated, setup_span, -1);
      log->Add("stream.create", generated, bootstrapped, setup_span, -1);
    }
  });

  const udt::Dataset& pool = *data->pool;
  const size_t pool_n = static_cast<size_t>(pool.num_tuples());
  const udt::Dataset& feedback = *data->feedback;

  // Sends feedback chunk c (`window` labels); its last label triggers the
  // scheduled retrain inside Feedback, whose span is appended to `spans`.
  std::vector<int64_t> feedback_begin(static_cast<size_t>(feedback.num_tuples()));
  std::vector<int64_t> feedback_end(feedback_begin.size());
  int64_t published = 0;
  int64_t rolled_back = 0;
  int64_t feedback_errors = 0;
  auto feed_chunk = [&](int c, std::vector<Retrain>* spans) {
    std::vector<std::future<udt::serve::ServeResult>> inflight;
    for (int begin = c * window; begin < (c + 1) * window;
         begin += static_cast<int>(kInFlight)) {
      const int end =
          std::min((c + 1) * window, begin + static_cast<int>(kInFlight));
      inflight.clear();
      for (int i = begin; i < end; ++i) {
        inflight.push_back(server->Submit(&feedback.tuple(i)));
      }
      for (int i = begin; i < end; ++i) {
        const udt::serve::ServeResult r = inflight[i - begin].get();
        const udt::UncertainTuple& t = feedback.tuple(i);
        const size_t fi = static_cast<size_t>(i);
        feedback_begin[fi] = NowNs();
        auto report = server->Feedback(t, t.label, r);
        feedback_end[fi] = NowNs();
        if (!report.ok()) {
          ++feedback_errors;
          continue;
        }
        if (report->has_value()) {
          spans->push_back({feedback_begin[fi], feedback_end[fi]});
          if ((*report)->published) ++published;
          if ((*report)->rolled_back) ++rolled_back;
        }
      }
    }
  };

  // The feedback thread: `retrains` chunks, chunk c due at
  // (c + 0.5) / retrains of the served stream.
  std::vector<Retrain> retrain_spans;
  const int64_t stream_start = NowNs() + 1'000'000;
  std::thread feedback_thread([&] {
    for (int c = 0; c < retrains; ++c) {
      const int64_t due =
          stream_start + static_cast<int64_t>((c + 0.5) / retrains *
                                              options.seconds * 1e9);
      while (NowNs() < due) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      feed_chunk(c, &retrain_spans);
    }
  });

  // The served stream, recorded for the after-run oracle.
  std::vector<uint64_t> got_version;
  std::vector<int> got_label;
  std::vector<uint64_t> got_hash;
  const size_t n_requests =
      static_cast<size_t>(std::llround(rate * options.seconds));
  got_version.resize(n_requests + 1);
  got_label.resize(n_requests + 1);
  got_hash.resize(n_requests + 1);
  const OpenLoopRun run = RunOpenLoop(
      {rate, options.seconds, options.seed * 7919},
      [&](size_t i) {
        return IsReading(i)
                   ? server->SubmitReading(kSource, data->readings[i % pool_n])
                   : server->Submit(&pool.tuple(static_cast<int>(i % pool_n)));
      },
      [&](size_t i, const udt::serve::ServeResult& r) {
        got_version[i] = r.model_version;
        got_label[i] = r.label;
        got_hash[i] = HashDistribution(r.distribution);
        return true;
      });
  feedback_thread.join();
  const udt::serve::BatchingQueue::Stats queue_stats = server->queue().stats();

  // Retrain time is read off retrains that run once the stream has
  // stopped: under the stream it also depends on how the scheduler happens
  // to share cores between the trainers and the serving threads, which
  // varies from run to run more than the retrain path itself does. The
  // contention stays visible in the tail.
  std::vector<Retrain> quiet_spans;
  for (int c = retrains; c < retrains + quiet_retrains; ++c) {
    feed_chunk(c, &quiet_spans);
  }

  // Oracle: every response equals the pure answer of the version it
  // reports, and the schedule produced exactly one publish per chunk.
  const int scheduled = retrains + quiet_retrains;
  result->attempted += static_cast<int64_t>(run.size());
  result->failed += run.failed;
  if (feedback_errors > 0 || published != scheduled || rolled_back != 0) {
    result->Fail("retrains: " + std::to_string(published) + " published, " +
                 std::to_string(rolled_back) + " rolled back, " +
                 std::to_string(feedback_errors) +
                 " feedback errors; scheduled " + std::to_string(scheduled));
  }
  const uint64_t last_version = server->live_version();
  std::vector<std::vector<std::pair<int, uint64_t>>> expected(last_version + 1);
  for (uint64_t v = 1; v <= last_version; ++v) {
    udt::serve::ModelHandle handle =
        server->registry().Resolve(server->model_name(), v);
    if (handle == nullptr) continue;
    udt::serve::ServeSession session(handle->servable);
    std::vector<double> dist(static_cast<size_t>(session.num_classes()));
    for (size_t p = 0; p < 2 * pool_n; ++p) {
      const udt::UncertainTuple& t =
          p < pool_n ? pool.tuple(static_cast<int>(p)) : wrapped[p - pool_n];
      session.ClassifyInto(t, dist.data());
      const int label = static_cast<int>(
          std::max_element(dist.begin(), dist.end()) - dist.begin());
      expected[v].push_back({label, HashDistribution(dist)});
    }
  }
  int64_t wrong = 0;
  for (size_t i = 0; i < run.size(); ++i) {
    if (!run.ok[i]) continue;
    const uint64_t v = got_version[i];
    const size_t p = (i % pool_n) + (IsReading(i) ? pool_n : 0);
    if (v == 0 || v > last_version || expected[v].empty() ||
        expected[v][p].first != got_label[i] ||
        expected[v][p].second != got_hash[i]) {
      ++wrong;
    }
  }
  if (wrong > 0) {
    result->failed += wrong;
    result->Fail(std::to_string(wrong) +
                 " responses differ from their version's pure answer");
  }

  // The live model at the end, scored on the held-out set.
  const udt::Dataset& holdout = *data->holdout;
  udt::serve::ServeSession live(
      server->registry().Resolve(server->model_name())->servable);
  std::vector<double> dist(static_cast<size_t>(live.num_classes()));
  int64_t correct = 0;
  for (int i = 0; i < holdout.num_tuples(); ++i) {
    live.ClassifyInto(holdout.tuple(i), dist.data());
    const int label = static_cast<int>(
        std::max_element(dist.begin(), dist.end()) - dist.begin());
    if (label == holdout.tuple(i).label) ++correct;
  }
  const double accuracy = static_cast<double>(correct) / holdout.num_tuples();

  const std::vector<double> latency = run.LatencyUs();
  std::vector<double> contended_s;
  // The tail under contention: per retrain, the p99 of the requests due
  // while it ran; the median over retrains drops a lone host stall. A
  // stretch of fixed length around each retrain would instead mix in
  // uncontended requests in proportion to how long the retrain took, and
  // so follow the host's CPU speed.
  std::vector<double> retrain_tail_us;
  for (const Retrain& r : retrain_spans) {
    contended_s.push_back(NsToS(r.end - r.begin));
    std::vector<double> during;
    for (size_t i = 0; i < run.size(); ++i) {
      if (run.due[i] >= r.begin && run.due[i] <= r.end) {
        during.push_back(latency[i]);
      }
    }
    retrain_tail_us.push_back(
        Quantile(during, TailQuantileLevel(during.size())));
  }
  const double p99_us = Median(retrain_tail_us);
  // One stretch per retrain, each centred on its retrain: the median over
  // stretches keeps the contention and drops a lone host stall.
  const double p50_us = run.WindowedQuantileUs(0.5, retrains);
  const double served_rps =
      static_cast<double>(run.size() - static_cast<size_t>(run.failed)) /
      run.ElapsedSeconds();
  std::vector<double> retrain_s;
  for (const Retrain& r : quiet_spans) retrain_s.push_back(NsToS(r.end - r.begin));
  std::printf("adaptive_churn: %zu requests at %.0f req/s, p50 %.1f us, "
              "p99 during retrains %.1f us; %zu retrains under the stream, "
              "p50 %.3f s; %zu after it, p50 %.3f s; generations %lld\n",
              run.size(), rate, p50_us, p99_us, contended_s.size(),
              Median(contended_s), retrain_s.size(), Median(retrain_s),
              static_cast<long long>(server->generations()));

  result->E2e("setup_s", setup_s, "s");
  result->E2e("latency_p50_ms", p50_us * 1e-3, "ms");
  result->E2e("latency_tail_ms", p99_us * 1e-3, "ms");
  result->E2e("throughput_per_s", served_rps, "1/s");
  result->E2e("train_publish_s_p50", Median(retrain_s), "s");
  result->E2e("model_accuracy", accuracy, "fraction");

  if (options.trace) {
    AddGeneratorLayers(run, result);
    std::vector<double> in_retrain;
    std::vector<double> no_retrain;
    std::vector<double> admit_us;
    std::vector<double> reading_us;
    const size_t stride = std::max<size_t>(1, run.size() / 100'000);
    for (size_t i = 0; i < run.size(); ++i) {
      const bool busy = std::any_of(
          retrain_spans.begin(), retrain_spans.end(), [&](const Retrain& r) {
            return run.due[i] >= r.begin && run.due[i] <= r.end;
          });
      (busy ? in_retrain : no_retrain).push_back(latency[i]);
      (IsReading(i) ? reading_us : admit_us)
          .push_back(NsToUs(run.submit_end[i] - run.submit_begin[i]));
      if (i % stride != 0) continue;
      const int64_t req = static_cast<int64_t>(i);
      const int64_t root =
          log->Add("request", run.due[i], run.done[i], -1, req);
      log->Add("gen.wait", run.due[i], run.submit_begin[i], root, req);
      const char* submit =
          IsReading(i) ? "stream.submit_reading" : "serve.admit";
      log->Add(submit, run.submit_begin[i], run.submit_end[i], root, req);
      log->Add("serve.pending", run.submit_end[i], run.done[i], root, req);
    }
    std::vector<double> feedback_us;
    for (size_t f = 0; f < feedback_begin.size(); ++f) {
      log->Add("stream.feedback", feedback_begin[f], feedback_end[f], -1,
               static_cast<int64_t>(run.size() + f));
      feedback_us.push_back(NsToUs(feedback_end[f] - feedback_begin[f]));
    }
    result->Layer("adaptive.p99_us.in_retrain", Quantile(in_retrain, 0.99),
                  "us");
    result->Layer("adaptive.p99_us.no_retrain", Quantile(no_retrain, 0.99),
                  "us");
    result->Layer("serve.admit_us_p50", Quantile(admit_us, 0.5), "us");
    result->Layer("serve.admit_us_p99", Quantile(admit_us, 0.99), "us");
    result->Layer("stream.submit_reading_us_p50", Quantile(reading_us, 0.5),
                  "us");
    result->Layer("stream.submit_reading_us_p99", Quantile(reading_us, 0.99),
                  "us");
    result->Layer("stream.feedback_us_p50", Quantile(feedback_us, 0.5), "us");
    result->Layer("stream.feedback_us_p99", Quantile(feedback_us, 0.99), "us");
    result->Layer("stream.generations",
                  static_cast<double>(server->generations()), "count");
    result->Layer("stream.rollbacks", static_cast<double>(rolled_back),
                  "count");
    result->Layer("serve.shed", static_cast<double>(queue_stats.rejected),
                  "count");
    result->Layer("serve.drains", static_cast<double>(queue_stats.drains),
                  "count");
    result->Layer("serve.batch_size_mean",
                  queue_stats.drains > 0
                      ? static_cast<double>(queue_stats.served) /
                            static_cast<double>(queue_stats.drains)
                      : 0.0,
                  "count");
    struct stat st;
    result->Layer("storage.spill_file_bytes",
                  stat(spill_path.c_str(), &st) == 0
                      ? static_cast<double>(st.st_size)
                      : 0.0,
                  "bytes");
  }
  server.reset();
  std::remove(spill_path.c_str());
}

}  // namespace perfbench
