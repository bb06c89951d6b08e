// Workloads `serve_warm` and `serve_churn`: a ShardedScoringService with
// nproc shards and a FairnessMonitor observer, scoring 64-row held-out
// batches against training sets at the paper's four dataset sizes.
//
// Each run has two measured phases:
//  - closed loop: kClosedClients clients working through fixed passes of
//    requests -> wall_s (median seconds per pass), rps. It runs first:
//    right after set-up, concurrent requests ran several times slower than
//    in steady state for about a second, and its warm-up absorbs that;
//  - open loop: Poisson arrivals at kRate requests/s, latency measured from
//    the *scheduled* arrival (no coordinated omission) -> p50_ms, p90_ms.
//
// serve_warm fits every key in set-up, so every timed request is a cache
// hit and its cost is key + lookup + predict + observe. serve_churn adds a
// stream of never-seen keys (a fresh fit seed each), so a fixed share of
// requests miss and cold-fit (the sparse Zafar path), and a refit
// SwapPipeline runs every kSwapEvery completed requests.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "data/generators/population.h"
#include "data/split.h"
#include "metrics/report.h"
#include "monitor/fairness_monitor.h"
#include "obs/metrics.h"
#include "serve/pipeline_artifact.h"
#include "serve/sharded_scoring_service.h"

namespace e2e {
namespace {

using fairbench::Dataset;
using fairbench::DeriveSeed;
using fairbench::PopulationConfig;
using fairbench::Rng;
namespace serve = fairbench::serve;
namespace monitor = fairbench::monitor;

constexpr std::size_t kBatchRows = 64;
constexpr std::size_t kBatches = 8;  // held-out batches per training set
constexpr std::size_t kSmokeTrainRows = 300;
const char* const kSizeLabels[] = {"n1000", "n7214", "n20651", "n45222"};

// Open-loop arrival rate, requests/s: far under what the tier sustains on
// 4 cores (~1,100 req/s with the closed loop's 2 clients), so the open loop
// measures service time plus the queueing of Poisson bursts, not a growing
// backlog. At higher rates more requests overlap, and the tail percentiles
// then follow how much overlapping requests slow each other on the host,
// which varied widely between runs.
constexpr double kRate = 40.0;
constexpr double kSmokeRate = 50.0;
constexpr std::size_t kLoadWorkers = 16;
// The open loop's first requests are warm-up for its fresh load threads;
// they are checked but not measured.
constexpr double kOpenWarmupS = 0.5;

// Training-set index of each warm request slot; a deck is reshuffled
// every 50 requests so the size mix is exact. Latency clusters by
// training-set size, and a percentile near a cluster's edge or in its upper
// tail jumped between runs: the upper tail follows how much overlapping
// requests slow each other on the host. So each deck puts p50 and p90 in
// the body of a cluster.
//
// serve_warm: 32% 1k, 50% 7.2k, 16% 20.7k, 2% 45.2k rows; p50 inside the
// 7.2k-row cluster, p90 at the middle of the 20.7k-row one.
constexpr std::size_t kWarmDeck[] = {
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,              // 16 x 1k
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,  // 25 x 7.2k
    1, 1, 1, 1, 1,
    2, 2, 2, 2, 2, 2, 2, 2,                                      // 8 x 20.7k
    3};                                                          // 1 x 45.2k
// serve_churn: 16% 1k, 22% 7.2k, 42% 20.7k, 20% 45.2k rows of the warm
// requests; p50 inside the 20.7k-row cluster, p90 in the cold-fit one.
// Short 7.2k-row requests as p50 moved with every cold fit running beside
// them.
constexpr std::size_t kChurnDeck[] = {
    0, 0, 0, 0, 0, 0, 0, 0,                                      // 8 x 1k
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,                             // 11 x 7.2k
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,  // 21 x 20.7k
    2,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3};                               // 10 x 45.2k
constexpr std::size_t kDeckSize = 50;
static_assert(sizeof(kWarmDeck) / sizeof(kWarmDeck[0]) == kDeckSize &&
              sizeof(kChurnDeck) / sizeof(kChurnDeck[0]) == kDeckSize);

// serve_churn: one cold request (never-seen key) per kColdEvery requests,
// always the sparse-Zafar cold fit on a 7.2k-row training sample; a refit
// swap of one small hot key every kSwapEvery completed requests. At 20%
// misses, p90 reads the middle of the cold-fit latency cluster.
constexpr std::size_t kColdEvery = 5;
constexpr std::size_t kColdSet = 1;
// Cold fits draw their training data round-robin from this many samples of
// the 7.2k-row population. The sparse-Zafar fit's cost depends strongly on
// the sample (a few percent of samples need ~4x the CG-Newton iterations
// and ~50x the time), so a seed-drawn pool would make a run's cold cost
// depend on which samples it drew. The pool is therefore one fixed
// reference set, the same for every --seed; everything else follows the
// seed.
constexpr uint64_t kColdPoolSeed = 0xC01D;
constexpr std::size_t kColdPool = 32;
const char* const kColdApproach = "zafar_dp_fair";
constexpr std::size_t kSwapEvery = 64;

// Per shard; 20 >= every warm key, so no shard can evict a warm key even
// if the ring places all of them on it.
constexpr std::size_t kCacheCapacity = 20;
constexpr int kSetupReps = 3;
// Share of --seconds given to the closed loop; the open loop gets the rest.
constexpr double kClosedShare = 0.2;
// The closed loop's passes in its first kClosedWarmupS seconds are warm-up:
// right after set-up, concurrent requests can run several times slower than
// in steady state for about a second, far longer than one pass takes.
constexpr double kClosedWarmupS = 1.0;
// Closed-loop client threads. With nproc clients on an nproc-vCPU VM, a pass
// waits for whichever vCPU the host has not scheduled yet: for about a second
// after set-up, 4 clients on 4 vCPUs ran at the speed of one, so throughput
// followed the host's scheduler. Two clients leave the host room.
constexpr std::size_t kClosedClients = 2;

std::size_t ClosedClients() { return std::min(Nproc(), kClosedClients); }

const std::vector<std::string>& Approaches() {
  static const std::vector<std::string> ids = {"lr", "kamcal", "feld06",
                                               "hardt", "zafar_dp_fair"};
  return ids;
}

struct TrainingSet {
  PopulationConfig config;
  Dataset train;
  Dataset pool;  ///< kBatches x kBatchRows held-out rows.
  std::vector<Dataset> batches;
  std::vector<Dataset> flipped;  ///< Batches with S flipped (CD probe).
};

struct Key {
  std::size_t set = 0;
  std::string approach;
};

// Everything set-up builds. Member order matters: the client borrows the
// datasets and the monitor, so it is declared last and destroyed first.
struct Env {
  std::vector<TrainingSet> sets;
  std::vector<Key> keys;  ///< Warm keys, set-major.
  std::unique_ptr<monitor::FairnessMonitor> monitor;
  std::unique_ptr<serve::ShardedScoringService> client;
  /// serve_churn: training samples of the cold requests (kColdPool).
  std::vector<Dataset> cold_train;
  /// First response per (warm key, batch); every later one must equal it.
  std::vector<std::vector<std::vector<int>>> reference;
  uint64_t fit_seed = 0;
  uint64_t ok_responses = 0;  ///< Successful responses: monitor batches.
};

struct Planned {
  std::size_t key = 0;    ///< Warm key index (ignored when cold).
  std::size_t batch = 0;
  bool cold = false;
  std::size_t cold_train = 0;  ///< Env::cold_train index of a cold request.
  uint64_t seed = 0;      ///< Fit seed of a cold request's fresh key.
  int64_t at_ns = 0;      ///< Scheduled arrival, from phase start.
  bool warmup = false;    ///< Arrives before the measured window.
};

struct Sample {
  bool warmup = false;
  bool ok = false;
  bool rejected = false;
  std::size_t set = 0;
  int64_t latency_ns = 0;  ///< Completion minus scheduled arrival.
  int64_t late_ns = 0;     ///< Dispatch minus scheduled arrival.
  int64_t score_ns = 0;    ///< Duration of the Score call.
  double fit_s = 0.0;
  double predict_s = 0.0;
};

serve::ScoreRequest MakeRequest(const Env& env, const Planned& p) {
  serve::ScoreRequest request;
  if (p.cold) {
    request.approach_id = kColdApproach;
    request.train = &env.cold_train[p.cold_train];
    request.data = &env.sets[kColdSet].batches[p.batch];
    request.seed = p.seed;
    return request;
  }
  const Key& key = env.keys[p.key];
  request.approach_id = key.approach;
  request.train = &env.sets[key.set].train;
  request.data = &env.sets[key.set].batches[p.batch];
  request.seed = env.fit_seed;
  return request;
}

bool IsLabelVector(const std::vector<int>& predictions) {
  if (predictions.size() != kBatchRows) return false;
  return std::all_of(predictions.begin(), predictions.end(),
                     [](int v) { return v == 0 || v == 1; });
}

// Generation, split, client + monitor, and the warm fill (every key x
// batch scored once: the fits, first touch and reference responses).
bool Setup(const Args& args, bool churn, SpanLog& spans, Env* env,
           Outcome& out) {
  // Smallest training set first, matching kSizeLabels.
  std::vector<PopulationConfig> configs = fairbench::AllDatasetConfigs();
  std::sort(configs.begin(), configs.end(),
            [](const PopulationConfig& a, const PopulationConfig& b) {
              return a.default_rows < b.default_rows;
            });
  env->fit_seed = DeriveSeed(args.seed, 600) | 1;  // 0 means "unset"
  for (std::size_t d = 0; d < configs.size(); ++d) {
    TrainingSet set;
    set.config = configs[d];
    const std::size_t train_rows =
        args.smoke ? kSmokeTrainRows : set.config.default_rows;
    const std::size_t total = train_rows + kBatches * kBatchRows;
    fairbench::Result<Dataset> data = [&] {
      Span span(spans, "data", "generate/" + set.config.name);
      return fairbench::GeneratePopulation(set.config, total,
                                           DeriveSeed(args.seed, 100 + d));
    }();
    if (!data.ok()) {
      out.Fail("generate: " + data.status().ToString());
      return false;
    }
    Span span(spans, "data", "split/" + set.config.name);
    Rng rng(DeriveSeed(args.seed, 200 + d));
    const double fraction = (static_cast<double>(train_rows) + 0.5) /
                            static_cast<double>(total);
    auto parts = fairbench::MaterializeSplit(
        data.value(), fairbench::TrainTestSplit(total, fraction, rng));
    if (!parts.ok() || parts->first.num_rows() != train_rows) {
      out.Fail("split of " + set.config.name + " failed");
      return false;
    }
    set.train = std::move(parts->first);
    set.pool = std::move(parts->second);
    for (std::size_t b = 0; b < kBatches; ++b) {
      std::vector<std::size_t> rows(kBatchRows);
      for (std::size_t r = 0; r < kBatchRows; ++r) rows[r] = b * kBatchRows + r;
      auto batch = set.pool.SelectRows(rows);
      if (!batch.ok()) {
        out.Fail("batch: " + batch.status().ToString());
        return false;
      }
      Dataset flipped = batch.value();
      for (int& s : flipped.mutable_sensitive()) s = 1 - s;
      set.batches.push_back(std::move(batch).value());
      set.flipped.push_back(std::move(flipped));
    }
    env->sets.push_back(std::move(set));
  }
  for (std::size_t s = 0; s < env->sets.size(); ++s) {
    for (const std::string& id : Approaches()) env->keys.push_back({s, id});
  }
  const std::size_t pool = !churn ? 0 : args.smoke ? 2 : kColdPool;
  for (std::size_t j = 0; j < pool; ++j) {
    const PopulationConfig& config = env->sets[kColdSet].config;
    Span span(spans, "data", "generate/cold");
    auto train = fairbench::GeneratePopulation(
        config, args.smoke ? kSmokeTrainRows : config.default_rows,
        DeriveSeed(kColdPoolSeed, j));
    if (!train.ok()) {
      out.Fail("generate: " + train.status().ToString());
      return false;
    }
    env->cold_train.push_back(std::move(train).value());
  }


  env->monitor =
      std::make_unique<monitor::FairnessMonitor>(monitor::FairnessMonitorOptions{});
  serve::ShardedScoringServiceOptions options;
  options.shards = Nproc();
  options.shard.cache_capacity = kCacheCapacity;
  options.shard.observer = env->monitor.get();
  env->client = std::make_unique<serve::ShardedScoringService>(options);

  env->reference.assign(env->keys.size(),
                        std::vector<std::vector<int>>(kBatches));
  for (std::size_t k = 0; k < env->keys.size(); ++k) {
    Span span(spans, "serve", "warm_fill/" + env->keys[k].approach);
    for (std::size_t b = 0; b < kBatches; ++b) {
      Planned p;
      p.key = k;
      p.batch = b;
      auto response = env->client->Score(MakeRequest(*env, p));
      if (!response.ok() || !IsLabelVector(response->predictions)) {
        out.Fail("warm fill of " + env->keys[k].approach + " failed: " +
                 (response.ok() ? std::string("bad labels")
                                : response.status().ToString()));
        return false;
      }
      ++env->ok_responses;
      env->reference[k][b] = std::move(response->predictions);
    }
  }
  return true;
}

// The request mix: the workload's warm deck, plus one cold request per
// kColdEvery in serve_churn's open loop.
class Mix {
 public:
  /// `cold`: make every kColdEvery-th request a cold one (serve_churn's
  /// open loop).
  Mix(uint64_t seed, bool churn, bool cold, bool smoke)
      : rng_(seed), deck_src_(churn ? kChurnDeck : kWarmDeck), cold_on_(cold),
        smoke_(smoke) {}

  Planned Next() {
    Planned p;
    if (cold_on_ && count_++ % kColdEvery == kColdEvery - 1) {
      p.cold = true;
      p.cold_train = cold_++ % (smoke_ ? 2 : kColdPool);
      p.seed = DeriveSeed(rng_.Next(), 500) | 1;
    } else {
      if (pos_ == kDeckSize) {
        std::copy(deck_src_, deck_src_ + kDeckSize, deck_.begin());
        rng_.Shuffle(deck_);
        pos_ = 0;
      }
      const std::size_t set = deck_[pos_++];
      p.key = set * Approaches().size() + (turn_[set]++ % Approaches().size());
    }
    p.batch = static_cast<std::size_t>(rng_.UniformInt(kBatches));
    return p;
  }

 private:
  Rng rng_;
  const std::size_t* deck_src_;
  bool cold_on_;
  bool smoke_;
  uint64_t count_ = 0;
  uint64_t cold_ = 0;
  std::vector<std::size_t> deck_ = std::vector<std::size_t>(kDeckSize);
  std::size_t pos_ = kDeckSize;
  std::size_t turn_[4] = {0, 0, 0, 0};
};

// Scores one planned request and checks the response.
Sample Issue(Env& env, const Planned& p, int64_t scheduled_ns, SpanLog& spans,
             uint64_t parent, uint64_t request_id, Outcome& out,
             std::mutex& out_mu) {
  Sample sample;
  sample.warmup = p.warmup;
  sample.set = p.cold ? kColdSet : env.keys[p.key].set;
  const int64_t dispatch = NowNs();
  const serve::ScoreRequest request = MakeRequest(env, p);
  fairbench::Result<serve::ScoreResponse> response = [&] {
    Span span(spans, "serve",
              spans.enabled() ? "score/" + request.approach_id : std::string(),
              request_id, parent);
    return env.client->Score(request);
  }();
  const int64_t done = NowNs();
  sample.late_ns = std::max<int64_t>(dispatch - scheduled_ns, 0);
  sample.latency_ns = done - scheduled_ns;
  sample.score_ns = done - dispatch;
  std::string error;
  if (!response.ok()) {
    sample.rejected =
        response.status().code() == fairbench::StatusCode::kResourceExhausted;
    error = response.status().ToString();
  } else if (!IsLabelVector(response->predictions)) {
    error = "response is not one 0/1 label per row";
  } else if (!p.cold && response->predictions != env.reference[p.key][p.batch]) {
    error = "warm response differs from the first response for its key";
  } else {
    sample.ok = true;
    sample.fit_s = response->fit_seconds;
    sample.predict_s = response->score_seconds;
  }
  if (!error.empty()) {
    std::lock_guard<std::mutex> lock(out_mu);
    if (response.ok()) out.Fail(error);
    else if (!sample.rejected) std::fprintf(stderr, "request failed: %s\n",
                                            error.c_str());
  }
  return sample;
}

struct PhaseResult {
  std::vector<Sample> samples;
  std::vector<double> swap_ms;
  uint64_t swap_failures = 0;
};

// Open loop: kLoadWorkers threads each take the next scheduled request,
// sleep until its arrival time and score it synchronously. A refit swap
// thread runs beside them for serve_churn.
PhaseResult OpenLoop(Env& env, const std::vector<Planned>& plan, bool churn,
                     SpanLog& spans, Outcome& out) {
  PhaseResult result;
  result.samples.resize(plan.size());
  std::mutex out_mu;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> stop{false};
  Span phase(spans, "bench", "open_loop");
  const uint64_t phase_id = phase.id();
  const int64_t start = NowNs() + 1000000;  // first arrival 1 ms out

  std::thread swapper;
  if (churn) {
    swapper = std::thread([&] {
      // Cycle over the warm keys of the two smallest training sets, whose
      // refits are cheap enough to keep pace with the swap cadence.
      const std::size_t targets = 2 * Approaches().size();
      for (std::size_t n = 1;; ++n) {
        while (!stop.load() && completed.load() < n * kSwapEvery) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (stop.load()) return;
        const Key& key = env.keys[(n - 1) % targets];
        serve::SwapRequest swap;
        swap.approach_id = key.approach;
        swap.train = &env.sets[key.set].train;
        swap.seed = env.fit_seed;
        const int64_t t0 = NowNs();
        fairbench::Status status = [&] {
          Span span(spans, "serve", "swap/" + key.approach, 0, phase_id);
          return env.client->SwapPipeline(swap);
        }();
        result.swap_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
        if (!status.ok()) {
          std::fprintf(stderr, "swap failed: %s\n", status.ToString().c_str());
          ++result.swap_failures;
        }
      }
    });
  }

  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kLoadWorkers; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= plan.size()) return;
        const int64_t scheduled = start + plan[i].at_ns;
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(scheduled)));
        Span request(spans, "loadgen", "request", i + 1, phase_id, scheduled);
        result.samples[i] =
            Issue(env, plan[i], scheduled, spans, request.id(), i + 1, out,
                  out_mu);
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  stop.store(true);
  if (swapper.joinable()) swapper.join();
  return result;
}

// Closed loop: ClosedClients() clients share one pass of requests; the pass
// ends when all of them are done. The passes of the first kClosedWarmupS
// seconds are warm-up (first touch of the client threads, the shards and the
// models, and the host's slow start), then passes repeat until
// `deadline_ns`. With `alternate_tracing`, even passes are traced and odd
// ones are not, to measure the tracing overhead.
PhaseResult ClosedLoop(Env& env, Mix& mix, std::size_t pass_size,
                       int64_t deadline_ns, bool single_pass,
                       bool alternate_tracing, SpanLog& spans, Outcome& out,
                       std::vector<double>* pass_s,
                       std::vector<double>* traced_pass_s) {
  PhaseResult result;
  std::mutex out_mu;
  const bool tracing = spans.enabled();
  uint64_t request_id = 1u << 30;
  Span phase(spans, "bench", "closed_loop");
  const int64_t warm_until =
      NowNs() + static_cast<int64_t>(kClosedWarmupS * 1e9);
  std::size_t measured = 0;
  for (std::size_t pass = 0;; ++pass) {
    std::vector<Planned> plan(pass_size);
    for (Planned& p : plan) p = mix.Next();
    const bool warmup = !single_pass && (pass == 0 || NowNs() < warm_until);
    if (!warmup) ++measured;
    const bool traced = alternate_tracing && !warmup && measured % 2 == 1;
    spans.set_enabled(tracing && (!alternate_tracing || traced));
    std::vector<Sample> samples(plan.size());
    std::atomic<std::size_t> next{0};
    const int64_t t0 = NowNs();
    {
      Span span(spans, "bench", "closed_pass");
      const uint64_t pass_id = span.id();
      const uint64_t base_id = request_id;
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < ClosedClients(); ++c) {
        clients.emplace_back([&] {
          for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= plan.size()) return;
            samples[i] = Issue(env, plan[i], NowNs(), spans, pass_id,
                               base_id + i, out, out_mu);
          }
        });
      }
      for (std::thread& t : clients) t.join();
    }
    request_id += plan.size();
    const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
    if (!warmup) (traced ? traced_pass_s : pass_s)->push_back(seconds);
    result.samples.insert(result.samples.end(), samples.begin(), samples.end());
    if (single_pass ||
        (NowNs() >= deadline_ns && measured >= 2 && measured % 2 == 0)) {
      break;
    }
  }
  spans.set_enabled(tracing);
  return result;
}

void Count(const PhaseResult& phase, Env& env, Outcome& out) {
  for (const Sample& s : phase.samples) {
    ++out.attempted;
    if (s.ok) {
      ++env.ok_responses;
    } else {
      ++out.failed;
    }
  }
  out.attempted += phase.swap_ms.size();
  out.failed += phase.swap_failures;
}

// The monitor saw every successful response once, in a dense sequence.
void CheckMonitor(const Env& env, Outcome& out) {
  env.monitor->Drain();
  const monitor::MonitorStats stats = env.monitor->stats();
  if (stats.batches != env.ok_responses || stats.batch_gaps != 0 ||
      stats.skipped_gap != 0 || stats.dropped_queue_full != 0 ||
      stats.dropped_stale != 0) {
    out.Fail("monitor sequence not dense: batches " +
             std::to_string(stats.batches) + " of " +
             std::to_string(env.ok_responses) + ", gaps " +
             std::to_string(stats.batch_gaps + stats.skipped_gap) +
             ", dropped " +
             std::to_string(stats.dropped_queue_full + stats.dropped_stale));
  }
}

// Model-quality guard: accuracy and the five normalized fairness scores of
// what each warm key serves on its held-out pool, CD from S-flipped batches
// scored through the same client.
void Quality(Env& env, Outcome& out) {
  std::vector<double> accuracy, fairness;
  for (std::size_t k = 0; k < env.keys.size(); ++k) {
    const TrainingSet& set = env.sets[env.keys[k].set];
    std::vector<int> pred, flipped;
    for (std::size_t b = 0; b < kBatches; ++b) {
      pred.insert(pred.end(), env.reference[k][b].begin(),
                  env.reference[k][b].end());
      serve::ScoreRequest request;
      request.approach_id = env.keys[k].approach;
      request.train = &set.train;
      request.data = &set.flipped[b];
      request.seed = env.fit_seed;
      auto response = env.client->Score(request);
      ++out.attempted;
      if (!response.ok() || !IsLabelVector(response->predictions)) {
        ++out.failed;
        out.Fail("flipped-S scoring failed");
        return;
      }
      ++env.ok_responses;
      flipped.insert(flipped.end(), response->predictions.begin(),
                     response->predictions.end());
    }
    const std::vector<int>& sensitive = set.pool.sensitive();
    fairbench::RowPredictor predictor =
        [&](std::size_t row, int s) -> fairbench::Result<int> {
      return s == sensitive[row] ? pred[row] : flipped[row];
    };
    auto report = fairbench::ComputeMetricsReport(
        set.pool, pred, predictor, set.config.resolving_attributes);
    if (!report.ok()) {
      out.Fail("metrics report: " + report.status().ToString());
      return;
    }
    accuracy.push_back(report->correctness.accuracy);
    double sum = 0.0;
    for (const std::string& m : fairbench::FairnessMetricNames()) {
      const double v = report->MetricByName(m);
      if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
        out.Fail("served fairness metric " + m + " out of [0,1]");
      }
      sum += v;
    }
    fairness.push_back(sum / 5.0);
  }
  out.Add("accuracy_mean", Mean(accuracy), "ratio");
  out.Add("fairness_mean", Mean(fairness), "ratio");
}

// Poisson arrivals over a warm-up prefix plus `seconds` of measured window.
std::vector<Planned> Schedule(const Args& args, bool churn, double seconds) {
  Rng arrivals(DeriveSeed(args.seed, 300));
  Mix mix(DeriveSeed(args.seed, 301), churn, /*cold=*/churn, args.smoke);
  const double rate = args.smoke ? kSmokeRate : kRate;
  const double warmup = args.smoke ? 0.05 : kOpenWarmupS;
  std::vector<Planned> plan;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - arrivals.Uniform()) / rate;
    if (t > warmup + seconds) break;
    Planned p = mix.Next();
    p.at_ns = static_cast<int64_t>(t * 1e9);
    p.warmup = t < warmup;
    plan.push_back(p);
  }
  return plan;
}

std::size_t PassSize(const Env& env, bool smoke) {
  return smoke ? 16 : env.keys.size() * kBatches;
}

Outcome RunTimed(const Args& args, SpanLog& spans, bool churn) {
  Outcome out;
  auto env = std::make_unique<Env>();
  std::vector<double> setup_s;
  int64_t t0 = NowNs();
  if (!Setup(args, churn, spans, env.get(), out)) return out;
  setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);

  // Closed loop first: its warm-up pass also takes the first-touch cost
  // off the open loop. Its passes hold warm keys only, also for
  // serve_churn: a pass lasts as long as its slowest request, so one slow
  // cold fit would stretch a pass by seconds and decide the median.
  Mix mix(DeriveSeed(args.seed, 400), churn, /*cold=*/false, args.smoke);
  std::vector<double> pass_s, unused;
  const std::size_t pass_size = PassSize(*env, args.smoke);
  PhaseResult closed = ClosedLoop(
      *env, mix, pass_size,
      NowNs() + static_cast<int64_t>(args.seconds * kClosedShare * 1e9),
      args.smoke, /*alternate_tracing=*/false, spans, out, &pass_s, &unused);
  Count(closed, *env, out);

  const double open_s = args.smoke ? 0.3 : args.seconds * (1.0 - kClosedShare);
  PhaseResult open = OpenLoop(*env, Schedule(args, churn, open_s), churn,
                              spans, out);
  Count(open, *env, out);

  std::vector<double> latency_ms;
  for (const Sample& s : open.samples) {
    if (!s.warmup) latency_ms.push_back(static_cast<double>(s.latency_ns) * 1e-6);
  }
  Quality(*env, out);
  CheckMonitor(*env, out);

  for (int rep = 1; rep < (args.smoke ? 1 : kSetupReps); ++rep) {
    env = nullptr;
    env = std::make_unique<Env>();
    t0 = NowNs();
    if (!Setup(args, churn, spans, env.get(), out)) return out;
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }

  out.Add("setup_s", Median(setup_s), "s");
  out.Add("wall_s", Median(pass_s), "s");
  out.Add("p50_ms", Quantile(latency_ms, 0.50), "ms");
  out.Add("p90_ms", Quantile(latency_ms, 0.90), "ms");
  out.Add("rps", static_cast<double>(pass_size) / Median(pass_s), "1/s");
  return out;
}

void TracedBody(const Args& args, SpanLog& spans, bool churn,
                double* wall_ratio, Outcome& out) {
  auto env = std::make_unique<Env>();
  {
    Span span(spans, "bench", "setup");
    if (!Setup(args, churn, spans, env.get(), out)) return;
  }
  // Key cost per training set, timed directly.
  for (std::size_t s = 0; s < env->sets.size(); ++s) {
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
      const int64_t t0 = NowNs();
      uint64_t fingerprint = 0;
      {
        Span span(spans, "serve", std::string("key/") + kSizeLabels[s]);
        fingerprint = fairbench::DatasetFingerprint(env->sets[s].train);
      }
      ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      if (fingerprint == 0) out.Fail("zero dataset fingerprint");
    }
    out.Add(std::string("serve.key_ms.") + kSizeLabels[s], Median(ms), "ms");
  }

  fairbench::obs::MetricsRegistry::Global().ResetAll();
  fairbench::obs::SetMetricsEnabled(true);
  Mix mix(DeriveSeed(args.seed, 400), churn, /*cold=*/false, args.smoke);
  std::vector<double> untraced_s, traced_s;
  PhaseResult closed = ClosedLoop(
      *env, mix, PassSize(*env, args.smoke),
      NowNs() + static_cast<int64_t>(args.seconds * kClosedShare * 1e9),
      args.smoke, /*alternate_tracing=*/!args.smoke, spans, out, &untraced_s,
      &traced_s);
  Count(closed, *env, out);
  *wall_ratio = args.smoke ? 1.0 : Median(traced_s) / Median(untraced_s);

  const serve::ClientStats before = env->client->Stats();
  const double open_s = args.smoke ? 0.3 : args.seconds * (1.0 - kClosedShare);
  PhaseResult open =
      OpenLoop(*env, Schedule(args, churn, open_s), churn, spans, out);
  const serve::ClientStats after = env->client->Stats();
  Count(open, *env, out);
  {
    Span span(spans, "monitor", "drain");
    env->monitor->Drain();
  }
  CheckMonitor(*env, out);
  fairbench::obs::SetMetricsEnabled(false);

  // Per-request decomposition of the open loop: score = fit + predict +
  // unattributed (key, routing, lookup, sequencing, observer).
  std::vector<double> score, fit, predict, late, latency;
  std::vector<std::vector<double>> score_by_set(4), rest_by_set(4);
  for (const Sample& s : open.samples) {
    if (s.warmup) continue;
    late.push_back(static_cast<double>(s.late_ns) * 1e-6);
    latency.push_back(static_cast<double>(s.latency_ns) * 1e-6);
    if (!s.ok) continue;
    const double score_ms = static_cast<double>(s.score_ns) * 1e-6;
    score.push_back(score_ms);
    fit.push_back(s.fit_s * 1e3);
    predict.push_back(s.predict_s * 1e3);
    score_by_set[s.set].push_back(score_ms);
    rest_by_set[s.set].push_back(score_ms - (s.fit_s + s.predict_s) * 1e3);
  }
  out.Add("serve.score_ms", Mean(score), "ms");
  out.Add("serve.fit_ms", Mean(fit), "ms");
  out.Add("serve.predict_ms", Mean(predict), "ms");
  out.Add("serve.unattributed_ms", Mean(score) - Mean(fit) - Mean(predict),
          "ms");
  for (std::size_t s = 0; s < 4; ++s) {
    out.Add(std::string("serve.score_ms.") + kSizeLabels[s],
            Mean(score_by_set[s]), "ms");
    out.Add(std::string("serve.unattributed_ms.") + kSizeLabels[s],
            Mean(rest_by_set[s]), "ms");
  }
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  out.Add("serve.hit_ratio", hits / std::max(hits + misses, 1.0), "ratio");
  double rejected = 0.0;
  for (const Sample& s : open.samples) rejected += s.rejected ? 1.0 : 0.0;
  out.Add("serve.rejected", rejected, "count");
  out.Add("serve.swap_ms", Mean(open.swap_ms), "ms");
  out.Add("monitor.drain_ms", RegistryHdrMean("monitor.ingest.ns") * 1e-6,
          "ms");
  const monitor::MonitorStats stats = env->monitor->stats();
  out.Add("monitor.dropped",
          static_cast<double>(stats.dropped_queue_full + stats.dropped_stale +
                              stats.skipped_gap),
          "count");
  out.Add("loadgen.late_ms", Quantile(late, 0.99), "ms");
  out.Add("loadgen.p99_ms", Quantile(latency, 0.99), "ms");
  out.Add("optim.iterations",
          RegistryCounter("optim.gd.iterations") +
              RegistryCounter("optim.penalty.iterations") +
              RegistryCounter("optim.cg_newton.iterations"),
          "count");
  out.Add("optim.sat.conflicts", RegistryCounter("optim.sat.conflicts"),
          "count");
  out.Add("optim.lp.warm_start_hits",
          RegistryCounter("optim.lp.warm_start_hits"), "count");
  out.Add("linalg.flops", RegistryLinalgFlops(), "count");
  out.Add("exec.queue_wait_s",
          RegistryHistogramSum("exec.pool.queue_wait_us") * 1e-6, "s");

  double generate_s = 0.0, split_s = 0.0;
  for (const SpanRecord& s : spans.Snapshot()) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (s.name.rfind("generate/", 0) == 0) generate_s += dur;
    if (s.name.rfind("split/", 0) == 0) split_s += dur;
  }
  out.Add("data.generate_s", generate_s, "s");
  out.Add("data.split_s", split_s, "s");
  out.Add("peak_rss_mb", PeakRssMb(), "MiB");
}

}  // namespace

Outcome RunServe(const Args& args, SpanLog& spans, bool churn) {
  if (!args.trace) return RunTimed(args, spans, churn);
  Outcome out;
  double wall_ratio = 0.0;
  uint64_t root = 0;
  {
    Span span(spans, "bench", churn ? "serve_churn" : "serve_warm");
    root = span.id();
    TracedBody(args, spans, churn, &wall_ratio, out);
  }
  AddTraceMetrics(spans, root, wall_ratio, out);
  return out;
}

}  // namespace e2e
