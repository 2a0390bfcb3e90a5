// soi_perfbench — the benchmark binary behind perfbench/run.py: one
// process drives an in-process soid (SoidServer over loopback TCP, the
// settings of `soid --workers=2`) with a seeded closed-loop request
// sequence and prints one JSON report line.
//
//   soi_perfbench prepare --out=PATH [--scale=0.1]
//   soi_perfbench run --workload=serve-warm|eps-churn|live-ingest
//                     --snapshot=PATH --seed=N --seconds=S --trace=0|1
//                     [--smoke] [--trace-out=PATH]
//
// `prepare` generates London and writes the snapshot the run restores;
// it is a separate process so data generation never counts toward the
// run's set-up time or peak RSS. `run` measures; with --trace=1 it adds
// the per-layer probes, each timed from outside around a public call.
// The report's "metrics" hold the end-to-end metrics (trace 0) or the
// per-layer metrics (trace 1); "info" holds diagnostics and the failure
// accounting. A wrong answer or an untyped failure sets "correct" to
// false and ends the run early with exit code 1. perfbench/README.md
// documents the workloads and metrics.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/json_writer.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/query_engine.h"
#include "datagen/city_profile.h"
#include "datagen/dataset.h"
#include "grid/global_inverted_index.h"
#include "grid/poi_grid_index.h"
#include "grid/segment_cell_index.h"
#include "ingest/live_world.h"
#include "serve/client.h"
#include "serve/server.h"
#include "snapshot/snapshot.h"
#include "workload.h"

namespace soi {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// The serving configuration under test: `soid --workers=2`.
constexpr int kWorkers = 2;
constexpr int kConnections = 2;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// The live-ingest writer runs kBatchesPerRound batches per round, with
// one Compact() halfway through.
constexpr int kBatchesPerRound = 18;
// Queries in the serve-overhead probe (trace only).
constexpr size_t kOverheadSample = 32;
// Queries compared against the cold rebuild after live ingest.
constexpr size_t kColdSample = 32;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// The resident high-water mark (VmHWM) in MB, or -1 if unreadable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return -1.0;
}

// Cumulative (steal, total) jiffies of the whole machine, from the "cpu"
// line of /proc/stat; zeros when unreadable. Steal is time the
// hypervisor ran someone else on our virtual CPUs.
std::pair<int64_t, int64_t> StealJiffies() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  int64_t total = 0, steal = 0;
  for (int field = 0; field < 10; ++field) {
    int64_t value = 0;
    if (!(stat >> value)) break;
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

// Returns freed heap to the kernel and restarts the VmHWM high-water
// mark at the current RSS. False when the kernel refuses the reset.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

// Nearest-rank quantile of an unsorted sample; 0 for an empty one.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

bool IsTyped(StatusCode code) {
  switch (code) {
    case StatusCode::kIOError:
    case StatusCode::kInvalidArgument:
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
    case StatusCode::kInternal:
    case StatusCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

bool SameAnswer(const std::vector<RankedStreet>& a,
                const std::vector<RankedStreet>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].street != b[i].street ||
        a[i].best_segment != b[i].best_segment ||
        std::bit_cast<uint64_t>(a[i].interest) !=
            std::bit_cast<uint64_t>(b[i].interest)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// Report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::string error;  // why `correct` is false
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> info;

  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Info(const std::string& name, double value) {
    info.emplace_back(name, value);
  }

  void Print() const {
    std::ostringstream out;
    JsonWriter json(&out, /*pretty=*/false);
    json.BeginObject();
    json.KeyValue("correct", correct);
    json.KeyValue("attempted", attempted);
    json.KeyValue("failed", failed);
    json.Key("metrics");
    json.BeginObject();
    for (const Metric& metric : metrics) {
      json.Key(metric.name);
      json.BeginObject();
      json.KeyValue("value", metric.value);
      json.KeyValue("unit", metric.unit);
      json.EndObject();
    }
    json.EndObject();
    json.Key("info");
    json.BeginObject();
    if (!error.empty()) json.KeyValue("error", error);
    for (const auto& [name, value] : info) json.KeyValue(name, value);
    json.EndObject();
    json.EndObject();
    std::cout << out.str() << "\n" << std::flush;
  }
};

// ---------------------------------------------------------------------
// Spans recorded by the traced run around calls into the program.

struct Span {
  std::string name;
  int lane = 0;  // 0 main, 1.. client connections, 100 writer
  Clock::time_point start;
  Clock::time_point end;
  int64_t arg = 0;  // request index or batch index
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  // One buffer per recording thread; merged when written.
  std::vector<Span>* Lane() {
    lanes_.push_back(std::make_unique<std::vector<Span>>());
    return lanes_.back().get();
  }

  // Chrome trace_event JSON ("X" complete events, microseconds).
  void Write(const std::string& path) const {
    std::ofstream file(path);
    if (!file) return;
    JsonWriter json(&file, /*pretty=*/false);
    json.BeginObject();
    json.Key("traceEvents");
    json.BeginArray();
    for (const auto& lane : lanes_) {
      for (const Span& span : *lane) {
        json.BeginObject();
        json.KeyValue("name", span.name);
        json.KeyValue("ph", "X");
        json.KeyValue("pid", int64_t{1});
        json.KeyValue("tid", static_cast<int64_t>(span.lane));
        json.KeyValue("ts", Ms(span.start - origin_) * 1000.0);
        json.KeyValue("dur", Ms(span.end - span.start) * 1000.0);
        json.Key("args");
        json.BeginObject();
        json.KeyValue("index", span.arg);
        json.EndObject();
        json.EndObject();
      }
    }
    json.EndArray();
    json.EndObject();
  }

 private:
  Clock::time_point origin_;
  std::vector<std::unique_ptr<std::vector<Span>>> lanes_;
};

// ---------------------------------------------------------------------
// The served stack: data, engine, and soid, built by one timed set-up.

struct Stack {
  LoadedSnapshot snapshot;                    // static workloads
  std::unique_ptr<ingest::LiveWorld> world;   // live-ingest
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<serve::SoidServer> server;  // destroyed first

  double setup_seconds = 0.0;
  double load_ms = 0.0;         // LoadSnapshotFromFile
  double index_build_ms = 0.0;  // LiveWorld constructor
  double construct_ms = 0.0;    // QueryEngine constructor

  const RoadNetwork& network() const {
    return world ? world->base_dataset().network
                 : snapshot.dataset->network;
  }
  const DatasetIndexes& indexes() const {
    return world ? world->base_indexes() : *snapshot.indexes;
  }
};

QueryEngineOptions ServingEngineOptions() {
  QueryEngineOptions options;
  options.num_threads = kWorkers;
  return options;
}

// One set-up, from the first call until the server accepts. Static
// workloads restore the snapshot; live-ingest builds a LiveWorld over
// `live_dataset`.
Result<std::unique_ptr<Stack>> SetUp(const WorkloadSpec& spec,
                                     const std::string& snapshot_path,
                                     Dataset live_dataset) {
  auto stack = std::make_unique<Stack>();
  const Clock::time_point t0 = Clock::now();
  QueryEngineOptions options = ServingEngineOptions();
  if (spec.live) {
    stack->world = std::make_unique<ingest::LiveWorld>(
        std::move(live_dataset), kCellSize);
    const Clock::time_point t1 = Clock::now();
    stack->index_build_ms = Ms(t1 - t0);
    options.epoch_source = stack->world.get();
    const DatasetIndexes& base = stack->world->base_indexes();
    stack->engine = std::make_unique<QueryEngine>(
        stack->world->base_dataset().network, base.poi_grid,
        base.global_index, base.segment_cells, options);
    stack->construct_ms = Ms(Clock::now() - t1);
  } else {
    Result<LoadedSnapshot> loaded = LoadSnapshotFromFile(snapshot_path);
    if (!loaded.ok()) return loaded.status();
    stack->snapshot = std::move(loaded).ValueOrDie();
    const Clock::time_point t1 = Clock::now();
    stack->load_ms = Ms(t1 - t0);
    const DatasetIndexes& indexes = *stack->snapshot.indexes;
    stack->engine = std::make_unique<QueryEngine>(
        stack->snapshot.dataset->network, indexes.poi_grid,
        indexes.global_index, indexes.segment_cells, options,
        stack->snapshot.eps_maps);
    stack->construct_ms = Ms(Clock::now() - t1);
  }
  serve::SoidServerOptions server_options;
  server_options.num_workers = kWorkers;
  stack->server =
      std::make_unique<serve::SoidServer>(stack->engine.get(), server_options);
  SOI_RETURN_NOT_OK(stack->server->Start());
  stack->setup_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return stack;
}

// ---------------------------------------------------------------------
// Closed-loop serving passes

struct PassOutcome {
  std::vector<double> latency_ms;
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t untyped = 0;
  std::string first_untyped;
  double wall_seconds = 0.0;
  // Per request (in `requests` order) when answers are captured.
  std::vector<std::vector<RankedStreet>> answers;
  std::vector<char> answered;
};

// Sends `requests` (indices into `pool`) over the clients in consecutive
// rounds of `round_size` requests, with one thread per client for the
// whole call. Within a round each client sends the next unsent request
// when its previous one completes (a closed loop, one request in flight
// per client); every client finishes a round before the next starts, so
// each round's wall time is its own.
std::vector<PassOutcome> RunRounds(std::vector<serve::SoidClient>* clients,
                                   const std::vector<SoiQuery>& pool,
                                   const std::vector<int>& requests,
                                   size_t round_size, bool capture,
                                   Tracer* tracer) {
  const size_t num_rounds = (requests.size() + round_size - 1) / round_size;
  std::vector<PassOutcome> rounds(num_rounds);
  for (size_t r = 0; r < num_rounds; ++r) {
    const size_t size =
        std::min(round_size, requests.size() - r * round_size);
    rounds[r].attempted = static_cast<int64_t>(size);
    if (capture) {
      rounds[r].answers.resize(size);
      rounds[r].answered.assign(size, 0);
    }
  }
  struct Local {
    std::vector<double> latency_ms;
    int64_t ok = 0, failed = 0, untyped = 0;
    std::string first_untyped;
  };
  // locals[c][r]: client c's share of round r.
  std::vector<std::vector<Local>> locals(clients->size(),
                                         std::vector<Local>(num_rounds));
  std::vector<std::vector<Span>*> lanes(clients->size(), nullptr);
  if (tracer != nullptr) {
    for (std::vector<Span>*& lane : lanes) lane = tracer->Lane();
  }
  std::atomic<size_t> next{0};
  std::barrier sync(static_cast<std::ptrdiff_t>(clients->size() + 1));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients->size(); ++c) {
    threads.emplace_back([&, c] {
      serve::SoidClient& client = (*clients)[c];
      for (size_t r = 0; r < num_rounds; ++r) {
        sync.arrive_and_wait();  // the round starts
        Local& local = locals[c][r];
        const size_t begin = r * round_size;
        const size_t end = begin + static_cast<size_t>(rounds[r].attempted);
        for (size_t j = next++; j < end; j = next++) {
          const SoiQuery& query = pool[static_cast<size_t>(requests[j])];
          const Clock::time_point sent = Clock::now();
          Result<serve::QueryResponse> response = client.Query(query);
          const Clock::time_point done = Clock::now();
          local.latency_ms.push_back(Ms(done - sent));
          if (lanes[c] != nullptr) {
            lanes[c]->push_back({"soid.query", static_cast<int>(c) + 1, sent,
                                 done, static_cast<int64_t>(j)});
          }
          if (response.ok()) {
            ++local.ok;
            if (capture) {
              rounds[r].answers[j - begin] =
                  std::move(response).ValueOrDie().streets;
              rounds[r].answered[j - begin] = 1;
            }
          } else if (IsTyped(response.status().code())) {
            ++local.failed;
          } else if (local.untyped++ == 0) {
            local.first_untyped = response.status().ToString();
          }
        }
        sync.arrive_and_wait();  // every client has finished the round
      }
    });
  }
  for (size_t r = 0; r < num_rounds; ++r) {
    next.store(r * round_size);
    const Clock::time_point t0 = Clock::now();
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    rounds[r].wall_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t r = 0; r < num_rounds; ++r) {
    PassOutcome& out = rounds[r];
    for (std::vector<Local>& per_client : locals) {
      Local& local = per_client[r];
      out.latency_ms.insert(out.latency_ms.end(), local.latency_ms.begin(),
                            local.latency_ms.end());
      out.ok += local.ok;
      out.failed += local.failed;
      if (local.untyped > 0 && out.untyped == 0) {
        out.first_untyped = local.first_untyped;
      }
      out.untyped += local.untyped;
    }
  }
  return rounds;
}

// Appends `pass` to `total` (requests in order, wall time summed).
void AppendPass(PassOutcome pass, PassOutcome* total) {
  total->latency_ms.insert(total->latency_ms.end(), pass.latency_ms.begin(),
                           pass.latency_ms.end());
  total->attempted += pass.attempted;
  total->ok += pass.ok;
  total->failed += pass.failed;
  if (pass.untyped > 0 && total->untyped == 0) {
    total->first_untyped = pass.first_untyped;
  }
  total->untyped += pass.untyped;
  total->wall_seconds += pass.wall_seconds;
  for (size_t j = 0; j < pass.answers.size(); ++j) {
    total->answers.push_back(std::move(pass.answers[j]));
    total->answered.push_back(pass.answered[j]);
  }
}

// ---------------------------------------------------------------------
// The live-ingest writer

struct WriterOutcome {
  std::vector<double> lag_ms;    // scheduled send -> ApplyBatch returned
  std::vector<double> apply_ms;  // ApplyBatch call
  std::vector<double> late_ms;   // actual start - scheduled send
  std::vector<double> compact_ms;
  int64_t overlay_cells_max = 0;
  int64_t attempted = 0;
  int64_t applied = 0;
  int64_t rejected = 0;
  int64_t compact_failures = 0;
  std::string first_error;
};

// Overlay cells of the current epoch (0 when compact).
int64_t OverlayCells(const ingest::LiveWorld& world) {
  std::shared_ptr<const PoiEpochSnapshot> pin = world.Pin();
  return pin->overlay ? static_cast<int64_t>(pin->overlay->cells.size()) : 0;
}

Status CompactAndMirror(ingest::LiveWorld* world, WriterMirror* mirror,
                        WriterOutcome* out, std::vector<Span>* spans,
                        int64_t index) {
  out->overlay_cells_max = std::max(out->overlay_cells_max,
                                    OverlayCells(*world));
  const Clock::time_point t0 = Clock::now();
  Status status = world->Compact();
  const Clock::time_point t1 = Clock::now();
  if (!status.ok()) return status;
  out->compact_ms.push_back(Ms(t1 - t0));
  if (spans != nullptr) {
    spans->push_back({"ingest.compact", 100, t0, t1, index});
  }
  mirror->OnCompacted();
  return Status::OK();
}

// Applies plan.batches batches, batch b due at start + b * period, with
// a Compact() after every compact_every_batches batches but the last.
void RunWriter(ingest::LiveWorld* world, WriterMirror* mirror,
               const WriterPlan& plan, Clock::time_point start,
               WriterOutcome* out, std::vector<Span>* spans) {
  for (int b = 0; b < plan.batches; ++b) {
    ingest::UpdateBatch batch = mirror->NextBatch(plan);
    const Clock::time_point scheduled =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(b * plan.period_seconds));
    std::this_thread::sleep_until(scheduled);
    const Clock::time_point t0 = Clock::now();
    Status status = world->ApplyBatch(batch);
    const Clock::time_point t1 = Clock::now();
    ++out->attempted;
    if (!status.ok()) {
      if (out->rejected++ == 0) out->first_error = status.ToString();
      continue;
    }
    ++out->applied;
    out->late_ms.push_back(Ms(t0 - scheduled));
    out->apply_ms.push_back(Ms(t1 - t0));
    out->lag_ms.push_back(Ms(t1 - scheduled));
    if (spans != nullptr) spans->push_back({"ingest.apply", 100, t0, t1, b});
    if ((b + 1) % plan.compact_every_batches == 0 && b + 1 < plan.batches) {
      Status compacted = CompactAndMirror(world, mirror, out, spans, b);
      if (!compacted.ok() && out->compact_failures++ == 0) {
        out->first_error = compacted.ToString();
      }
    }
  }
}

// Median per-call cost of LiveWorld::Pin in microseconds, sampled in
// blocks of 64 pins every millisecond until `done` is set.
double SamplePinMicros(const ingest::LiveWorld& world,
                       const std::atomic<bool>& done) {
  constexpr int kBlock = 64;
  std::vector<double> samples;
  while (!done.load(std::memory_order_acquire)) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kBlock; ++i) {
      std::shared_ptr<const PoiEpochSnapshot> pin = world.Pin();
      SOI_CHECK(pin != nullptr);
    }
    samples.push_back(Ms(Clock::now() - t0) * 1000.0 / kBlock);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Median(samples);
}

// ---------------------------------------------------------------------
// Run options and the run itself

struct RunOptions {
  std::string workload;
  std::string snapshot;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

struct Plans {
  int pool_size = 256;
  int rounds = 8;
  WriterPlan writer;
  // The writer schedule replayed without readers on static workloads
  // (trace only).
  WriterPlan replay;
};

Plans MakePlans(const WorkloadSpec& spec, const RunOptions& options) {
  Plans plans;
  plans.rounds = std::max(1, static_cast<int>(std::lround(
                                 options.seconds * spec.rounds_per_second)));
  plans.writer.batches = plans.rounds * kBatchesPerRound;
  plans.writer.compact_every_batches =
      std::max(1, plans.writer.batches / 2);
  // No compaction inside the replay: its lag percentiles then time
  // ApplyBatch alone, and the one Compact() comes after the last batch.
  plans.replay.batches = 20;
  plans.replay.compact_every_batches = plans.replay.batches;
  if (options.smoke) {
    plans.pool_size = 24;
    plans.rounds = 2;
    for (WriterPlan* plan : {&plans.writer, &plans.replay}) {
      plan->batches = 6;
      plan->inserts_per_batch = 8;
      plan->deletes_per_batch = 2;
      plan->period_seconds = 0.02;
      plan->compact_every_batches = 3;
    }
  }
  return plans;
}

// Direct engine answers for every pool query, in pool order. The batch
// is grouped by eps so the engine builds each eps's maps at most once.
Status DirectAnswers(QueryEngine* engine, const std::vector<SoiQuery>& pool,
                     std::vector<std::vector<RankedStreet>>* out) {
  std::vector<size_t> order(pool.size());
  for (size_t q = 0; q < order.size(); ++q) order[q] = q;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return pool[a].eps < pool[b].eps;
  });
  std::vector<SoiQuery> batch;
  for (size_t q : order) batch.push_back(pool[q]);
  std::vector<Result<SoiResult>> results = engine->TryRunBatch(batch);
  out->assign(pool.size(), {});
  for (size_t i = 0; i < order.size(); ++i) {
    if (!results[i].ok()) return results[i].status();
    (*out)[order[i]] = std::move(results[i]).ValueOrDie().streets;
  }
  return Status::OK();
}

// Compares every captured soid answer of `pass` with the direct answer
// of its pool query.
void CheckAgainstDirect(const PassOutcome& pass,
                        const std::vector<int>& requests,
                        const std::vector<std::vector<RankedStreet>>& direct,
                        const char* what, Report* report) {
  for (size_t j = 0; j < requests.size(); ++j) {
    if (!pass.answered[j]) continue;  // counted as a failure already
    const size_t q = static_cast<size_t>(requests[j]);
    if (!SameAnswer(pass.answers[j], direct[q])) {
      report->Fail(std::string(what) + ": soid answer for pool query " +
                   std::to_string(q) + " differs from QueryEngine::TryRun");
      return;
    }
  }
}

void AddPassInfo(const PassOutcome& pass, Report* report) {
  report->Info("requests_attempted", static_cast<double>(pass.attempted));
  report->Info("requests_ok", static_cast<double>(pass.ok));
  report->Info("requests_failed", static_cast<double>(pass.failed));
  report->Info("latency_samples", static_cast<double>(pass.latency_ms.size()));
  report->Info("p99_ms", Quantile(pass.latency_ms, 0.99));
  report->Info("max_ms", Quantile(pass.latency_ms, 1.0));
}

// The traced run's per-layer probes that do not need the serving pass.
struct LayerProbes {
  double run_p50_ms = 0.0;
  double run_p90_ms = 0.0;
  SoiQueryStats sums;  // timings in seconds, counts exact
  double cache_hit_ratio = 0.0;
  int64_t cache_evictions = 0;
  double eps_build_ms = 0.0;
};

// Direct TryRun through a 1-thread engine over the served indexes, one
// pass over the pool with every eps pre-built, so the timings are pure
// query evaluation. Also checks the answers against `direct`.
void ProbeEngine(const WorkloadSpec& spec, const Stack& stack,
                 const RequestPlan& plan,
                 const std::vector<std::vector<RankedStreet>>& direct,
                 LayerProbes* probes, Report* report) {
  QueryEngineOptions options;
  options.num_threads = 1;
  options.eps_cache_capacity =
      std::max(options.eps_cache_capacity, spec.eps_values.size());
  options.epoch_source = stack.world.get();
  const DatasetIndexes& indexes = stack.indexes();
  QueryEngine engine(stack.network(), indexes.poi_grid, indexes.global_index,
                     indexes.segment_cells, options);
  for (double eps : spec.eps_values) {
    if (!engine.TryGetMaps(eps).ok()) {
      report->Fail("eps maps build failed in the engine probe");
      return;
    }
  }
  std::vector<double> run_ms;
  for (size_t q = 0; q < plan.pool.size(); ++q) {
    const Clock::time_point t0 = Clock::now();
    Result<SoiResult> result = engine.TryRun(plan.pool[q]);
    run_ms.push_back(Ms(Clock::now() - t0));
    if (!result.ok()) {
      report->Fail("1-thread TryRun failed: " + result.status().ToString());
      return;
    }
    const SoiResult& value = result.ValueOrDie();
    if (!SameAnswer(value.streets, direct[q])) {
      report->Fail("1-thread engine answer differs from the served engine");
      return;
    }
    const SoiQueryStats& s = value.stats;
    SoiQueryStats& sum = probes->sums;
    sum.list_construction_seconds += s.list_construction_seconds;
    sum.filtering_seconds += s.filtering_seconds;
    sum.refinement_seconds += s.refinement_seconds;
    sum.iterations += s.iterations;
    sum.cells_popped += s.cells_popped;
    sum.segments_seen += s.segments_seen;
    sum.segments_finalized_in_refinement += s.segments_finalized_in_refinement;
    sum.poi_distance_checks += s.poi_distance_checks;
  }
  probes->run_p50_ms = Quantile(run_ms, 0.5);
  probes->run_p90_ms = Quantile(run_ms, 0.9);
}

// Replays the eps of the warm-up and of the first pool-size requests,
// in order, through the cache of a fresh engine configured like the
// served one: the hit ratio a single connection would see, exactly.
void ProbeCache(const Stack& stack, const RequestPlan& plan,
                LayerProbes* probes, Report* report) {
  QueryEngineOptions options = ServingEngineOptions();
  options.epoch_source = stack.world.get();
  const DatasetIndexes& indexes = stack.indexes();
  QueryEngine engine(stack.network(), indexes.poi_grid, indexes.global_index,
                     indexes.segment_cells, options, stack.snapshot.eps_maps);
  for (int q : plan.warmup) {
    if (!engine.TryGetMaps(plan.pool[static_cast<size_t>(q)].eps).ok()) {
      report->Fail("eps maps build failed in the cache probe");
      return;
    }
  }
  const QueryEngine::CacheStats before = engine.cache_stats();
  const size_t n = std::min(plan.sequence.size(), plan.pool.size());
  for (size_t j = 0; j < n; ++j) {
    const double eps = plan.pool[static_cast<size_t>(plan.sequence[j])].eps;
    if (!engine.TryGetMaps(eps).ok()) {
      report->Fail("eps maps build failed in the cache probe");
      return;
    }
  }
  const QueryEngine::CacheStats after = engine.cache_stats();
  const int64_t hits = after.hits - before.hits;
  const int64_t misses = after.misses - before.misses;
  probes->cache_hit_ratio =
      static_cast<double>(hits) / static_cast<double>(hits + misses);
  probes->cache_evictions = after.evictions - before.evictions;
}

// Median EpsAugmentedMaps build per workload eps, on a pool sized like
// the serving engine's.
void ProbeEpsBuilds(const WorkloadSpec& spec, const Stack& stack,
                    LayerProbes* probes) {
  ThreadPool pool(kWorkers);
  std::vector<double> build_ms;
  for (double eps : spec.eps_values) {
    const Clock::time_point t0 = Clock::now();
    EpsAugmentedMaps maps(stack.indexes().segment_cells, eps, &pool);
    build_ms.push_back(Ms(Clock::now() - t0));
  }
  probes->eps_build_ms = Median(build_ms);
}

// Median of SoidClient::Query minus TryRun on the served engine, per
// query of a pool sample (both warm).
double ProbeServeOverhead(serve::SoidClient* client, QueryEngine* engine,
                          const std::vector<SoiQuery>& pool,
                          Report* report) {
  std::vector<double> overhead;
  const size_t n = std::min(pool.size(), kOverheadSample);
  for (size_t q = 0; q < n; ++q) {
    if (!engine->TryRun(pool[q]).ok()) {
      report->Fail("TryRun failed in the serve-overhead probe");
      return 0.0;
    }
    const Clock::time_point t0 = Clock::now();
    Result<serve::QueryResponse> served = client->Query(pool[q]);
    const Clock::time_point t1 = Clock::now();
    Result<SoiResult> direct = engine->TryRun(pool[q]);
    const Clock::time_point t2 = Clock::now();
    if (!served.ok() || !direct.ok()) {
      report->Fail("query failed in the serve-overhead probe");
      return 0.0;
    }
    overhead.push_back(Ms(t1 - t0) - Ms(t2 - t1));
  }
  return Median(overhead);
}

void AddWriterMetrics(const WriterOutcome& writer, double pin_us,
                      Report* report) {
  report->Add("ingest.apply_p50_ms", Quantile(writer.apply_ms, 0.5), "ms");
  report->Add("ingest.apply_p90_ms", Quantile(writer.apply_ms, 0.9), "ms");
  report->Add("ingest.lag_p50_ms", Quantile(writer.lag_ms, 0.5), "ms");
  report->Add("ingest.lag_p90_ms", Quantile(writer.lag_ms, 0.9), "ms");
  report->Add("ingest.overlay_cells_max",
              static_cast<double>(writer.overlay_cells_max), "count");
  report->Add("ingest.compact_ms", Median(writer.compact_ms), "ms");
  report->Add("ingest.pin_us", pin_us, "us");
  report->Add("ingest.schedule_late_ms", Quantile(writer.late_ms, 0.9), "ms");
  report->Add("ingest.batches_applied", static_cast<double>(writer.applied),
              "count");
  report->Add("ingest.batches_rejected",
              static_cast<double>(writer.rejected), "count");
}

int Run(const RunOptions& options) {
  Report report;
  WorkloadSpec spec;
  if (!FindWorkload(options.workload, &spec)) {
    std::cerr << "unknown workload " << options.workload << "\n";
    return 2;
  }
  const Plans plans = MakePlans(spec, options);
  const Clock::time_point origin = Clock::now();
  std::unique_ptr<Tracer> tracer =
      options.trace ? std::make_unique<Tracer>(origin) : nullptr;

  // Inputs, untimed: the snapshot's dataset names the keywords, and
  // live-ingest takes its base dataset from it.
  Result<LoadedSnapshot> source = LoadSnapshotFromFile(options.snapshot);
  if (!source.ok()) {
    std::cerr << "cannot load snapshot: " << source.status().ToString()
              << "\n";
    return 2;
  }
  const double source_load_ms = Ms(Clock::now() - origin);
  std::unique_ptr<Dataset> dataset =
      std::move(source.ValueOrDie().dataset);
  source.ValueOrDie().eps_maps.clear();
  source.ValueOrDie().indexes.reset();
  std::vector<std::string> categories;
  for (const CategorySpec& category : LondonProfile(1.0).categories) {
    categories.push_back(category.keyword);
  }
  const RequestPlan plan =
      MakeRequestPlan(spec, dataset->vocabulary, categories, plans.pool_size,
                      plans.rounds, options.seed);
  if (!spec.live) dataset.reset();

  // The served stack is set up first, right after peak RSS is restarted,
  // so peak_rss_mb covers its set-up through the timed phase and no
  // other set-up. kSetups - 1 more set-ups, each torn down at once,
  // follow the correctness gate; setup_s is the median of all of them.
  std::vector<double> setup_s, load_ms, construct_ms, index_build_ms;
  auto record = [&](const Stack& built) {
    setup_s.push_back(built.setup_seconds);
    load_ms.push_back(built.load_ms);
    construct_ms.push_back(built.construct_ms);
    index_build_ms.push_back(built.index_build_ms);
  };
  const bool rss_reset = ResetPeakRss();
  Result<std::unique_ptr<Stack>> built = SetUp(
      spec, options.snapshot, spec.live ? std::move(*dataset) : Dataset());
  dataset.reset();
  if (!built.ok()) {
    std::cerr << "set-up failed: " << built.status().ToString() << "\n";
    return 2;
  }
  std::unique_ptr<Stack> stack = std::move(built).ValueOrDie();
  record(*stack);

  std::vector<serve::SoidClient> clients;
  clients.reserve(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    serve::SoidClientOptions client_options;
    client_options.port = stack->server->port();
    client_options.max_attempts = 1;  // a retry would hide a failure
    client_options.io_timeout_seconds = 60.0;
    clients.emplace_back(client_options);
  }

  // Warm-up, untimed: one request per eps on alternating connections,
  // sequentially, so every run starts the timed phase from the same
  // cache state.
  for (size_t w = 0; w < plan.warmup.size(); ++w) {
    serve::SoidClient& client = clients[w % clients.size()];
    Result<serve::QueryResponse> response =
        client.Query(plan.pool[static_cast<size_t>(plan.warmup[w])]);
    if (!response.ok()) {
      report.Fail("warm-up request failed: " + response.status().ToString());
    }
  }

  // The timed phase: the whole sequence over kConnections closed loops,
  // with the writer beside them on live-ingest.
  const QueryEngine::CacheStats cache_before = stack->engine->cache_stats();
  const serve::SoidServer::Stats server_before = stack->server->stats();
  WriterOutcome writer;
  std::unique_ptr<WriterMirror> mirror;
  std::thread writer_thread;
  std::thread pin_sampler;
  std::atomic<bool> phase_done{false};
  double pin_us = 0.0;
  const double cpu0 = CpuSeconds();
  const std::pair<int64_t, int64_t> steal0 = StealJiffies();
  if (spec.live) {
    mirror = std::make_unique<WriterMirror>(
        stack->world->base_dataset().pois, stack->world->geometry().bounds(),
        options.seed);
    std::vector<Span>* writer_spans = tracer ? tracer->Lane() : nullptr;
    const Clock::time_point start = Clock::now();
    writer_thread = std::thread([&, writer_spans, start] {
      RunWriter(stack->world.get(), mirror.get(), plans.writer, start,
                &writer, writer_spans);
    });
    if (tracer) {
      pin_sampler = std::thread(
          [&] { pin_us = SamplePinMicros(*stack->world, phase_done); });
    }
  }
  PassOutcome timed;
  std::vector<double> round_qps, round_p50, round_p90;
  for (PassOutcome& pass :
       RunRounds(&clients, plan.pool, plan.sequence, plan.pool.size(),
                 /*capture=*/!spec.live, tracer.get())) {
    round_qps.push_back(static_cast<double>(pass.ok) / pass.wall_seconds);
    round_p50.push_back(Quantile(pass.latency_ms, 0.5));
    round_p90.push_back(Quantile(pass.latency_ms, 0.9));
    AppendPass(std::move(pass), &timed);
  }
  if (spec.live) {
    writer_thread.join();
    phase_done.store(true, std::memory_order_release);
    if (pin_sampler.joinable()) pin_sampler.join();
  }
  const double phase_cpu_seconds = CpuSeconds() - cpu0;
  const std::pair<int64_t, int64_t> steal1 = StealJiffies();
  const double peak_rss_mb = PeakRssMb();
  const QueryEngine::CacheStats cache_after = stack->engine->cache_stats();
  const serve::SoidServer::Stats server_after = stack->server->stats();

  report.attempted = timed.attempted + writer.attempted;
  report.failed = timed.failed + timed.untyped + writer.rejected;
  if (timed.untyped > 0) {
    report.Fail("untyped serving failure: " + timed.first_untyped);
  }
  if (writer.rejected > 0 || writer.compact_failures > 0) {
    report.Fail("writer failed: " + writer.first_error);
  }

  // Correctness gate: every soid answer equals QueryEngine::TryRun. On
  // live-ingest the answers moved with the writer, so the world is
  // compacted once more and the whole pool is served again first; a
  // sample must also match an engine cold-built on the live dataset.
  std::vector<std::vector<RankedStreet>> direct;
  if (spec.live && report.correct) {
    Status compacted = CompactAndMirror(stack->world.get(), mirror.get(),
                                        &writer, nullptr, plans.writer.batches);
    if (!compacted.ok()) report.Fail("final Compact: " + compacted.ToString());
    if (stack->world->num_live_pois() != mirror->num_live()) {
      report.Fail("live POI count differs from the writer's mirror");
    }
  }
  if (report.correct) {
    Status status = DirectAnswers(stack->engine.get(), plan.pool, &direct);
    if (!status.ok()) report.Fail("direct TryRun: " + status.ToString());
  }
  if (report.correct && !spec.live) {
    CheckAgainstDirect(timed, plan.sequence, direct, "timed phase", &report);
  }
  if (report.correct && spec.live) {
    std::vector<int> all(plan.pool.size());
    for (size_t q = 0; q < all.size(); ++q) all[q] = static_cast<int>(q);
    const PassOutcome verify = RunRounds(&clients, plan.pool, all, all.size(),
                                         /*capture=*/true, nullptr)[0];
    if (verify.ok != verify.attempted) {
      report.Fail("verification pass had failed requests");
    }
    CheckAgainstDirect(verify, all, direct, "post-ingest", &report);
    Dataset live = stack->world->MaterializeLiveDataset();
    PoiGridIndex grid(stack->world->geometry().bounds(), kCellSize,
                      live.pois);
    GlobalInvertedIndex global(grid);
    QueryEngine cold(stack->network(), grid, global,
                     stack->indexes().segment_cells, ServingEngineOptions());
    for (size_t q = 0; q < std::min(kColdSample, plan.pool.size()) &&
                       report.correct;
         ++q) {
      Result<SoiResult> want = cold.TryRun(plan.pool[q]);
      if (!want.ok() || !SameAnswer(want.ValueOrDie().streets, direct[q])) {
        report.Fail("live answer differs from a cold rebuild (pool query " +
                    std::to_string(q) + ")");
      }
    }
  }

  for (int i = 1; i < kSetups && report.correct; ++i) {
    Result<std::unique_ptr<Stack>> extra = SetUp(
        spec, options.snapshot,
        spec.live ? stack->world->base_dataset() : Dataset());
    if (!extra.ok()) {
      std::cerr << "set-up failed: " << extra.status().ToString() << "\n";
      return 2;
    }
    record(*extra.ValueOrDie());
  }

  const int64_t hits = cache_after.hits - cache_before.hits;
  const int64_t misses = cache_after.misses - cache_before.misses;
  report.Info("seed", static_cast<double>(options.seed));
  report.Info("sequence_fingerprint_low32",
              static_cast<double>(plan.fingerprint & 0xffffffffu));
  report.Info("pool_size", static_cast<double>(plan.pool.size()));
  report.Info("timed_wall_s", timed.wall_seconds);
  if (steal1.second > steal0.second) {
    report.Info("machine_steal_share",
                static_cast<double>(steal1.first - steal0.first) /
                    static_cast<double>(steal1.second - steal0.second));
  }
  AddPassInfo(timed, &report);
  report.Info("rounds", static_cast<double>(round_qps.size()));
  report.Info("round_qps_min", Quantile(round_qps, 0.0));
  report.Info("round_qps_max", Quantile(round_qps, 1.0));
  report.Info("served_cache_misses", static_cast<double>(misses));
  report.Info("served_cache_hit_ratio",
              hits + misses > 0 ? static_cast<double>(hits) /
                                      static_cast<double>(hits + misses)
                                : 0.0);
  report.Info("server_shed",
              static_cast<double>(server_after.shed_queue_full -
                                  server_before.shed_queue_full));
  report.Info("batches_attempted", static_cast<double>(writer.attempted));
  report.Info("batches_applied", static_cast<double>(writer.applied));
  report.Info("batches_rejected", static_cast<double>(writer.rejected));
  if (spec.live) {
    // Batches the writer started more than half a period late, i.e.
    // behind a compaction: keep this well under 10% so the lag p90 does
    // not sit on the stalled/unstalled boundary.
    int64_t stalled = 0;
    for (double late : writer.late_ms) {
      if (late > plans.writer.period_seconds * 500.0) ++stalled;
    }
    report.Info("batches_stalled", static_cast<double>(stalled));
  }
  report.Info("peak_rss_reset", rss_reset ? 1.0 : 0.0);

  if (!report.correct) {
    report.Print();
    return 1;
  }

  if (!options.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    // Latency and throughput: the best round. Every round sends the
    // identical multiset of queries, and other tenants of a shared host
    // only ever slow a round down, so the best round is the steadiest
    // estimate of what the code costs. CPU time does not grow while a
    // thread waits for a CPU, so it keeps the whole phase.
    report.Add("p50_ms", Quantile(round_p50, 0.0), "ms");
    report.Add("p90_ms", Quantile(round_p90, 0.0), "ms");
    report.Add("throughput_qps", Quantile(round_qps, 1.0), "1/s");
    report.Add("cpu_ms_per_query",
               phase_cpu_seconds * 1000.0 / static_cast<double>(timed.ok),
               "ms");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    if (spec.live) {
      report.Info("ingest_lag_p50_ms", Quantile(writer.lag_ms, 0.5));
      report.Info("ingest_lag_p90_ms", Quantile(writer.lag_ms, 0.9));
    }
    report.Print();
    return 0;
  }

  // ------------------------------------------------------------------
  // Traced run: per-layer probes, each timed around a public call.
  LayerProbes probes;
  ProbeEngine(spec, *stack, plan, direct, &probes, &report);
  if (report.correct) ProbeCache(*stack, plan, &probes, &report);
  if (report.correct) ProbeEpsBuilds(spec, *stack, &probes);
  double overhead_ms = 0.0;
  if (report.correct) {
    overhead_ms = ProbeServeOverhead(&clients[0], stack->engine.get(),
                                     plan.pool, &report);
  }

  // Tracing overhead: the first pool-size requests of the sequence,
  // untraced then traced, on the served stack.
  double trace_overhead_pct = 0.0;
  if (report.correct) {
    std::vector<int> prefix(
        plan.sequence.begin(),
        plan.sequence.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(plan.sequence.size(), plan.pool.size())));
    Tracer prefix_tracer(origin);
    const PassOutcome plain =
        RunRounds(&clients, plan.pool, prefix, prefix.size(), false,
                  nullptr)[0];
    const PassOutcome traced =
        RunRounds(&clients, plan.pool, prefix, prefix.size(), false,
                  &prefix_tracer)[0];
    const double plain_qps =
        static_cast<double>(plain.ok) / plain.wall_seconds;
    const double traced_qps =
        static_cast<double>(traced.ok) / traced.wall_seconds;
    trace_overhead_pct = (plain_qps / traced_qps - 1.0) * 100.0;
  }

  // Static workloads have no writer in the timed phase: replay the
  // start of the writer schedule alone on a LiveWorld built from the
  // snapshot's dataset, which also times the LiveWorld constructor.
  WriterOutcome replay;
  double replay_pin_us = 0.0;
  double static_index_build_ms = 0.0;
  if (report.correct && !spec.live) {
    Dataset base = *stack->snapshot.dataset;
    const Clock::time_point t0 = Clock::now();
    ingest::LiveWorld world(std::move(base), kCellSize);
    static_index_build_ms = Ms(Clock::now() - t0);
    WriterMirror replay_mirror(world.base_dataset().pois,
                               world.geometry().bounds(), options.seed);
    std::atomic<bool> done{false};
    const Clock::time_point start = Clock::now();
    std::thread replay_thread([&] {
      RunWriter(&world, &replay_mirror, plans.replay, start, &replay,
                nullptr);
      done.store(true, std::memory_order_release);
    });
    replay_pin_us = SamplePinMicros(world, done);
    replay_thread.join();
    Status compacted = CompactAndMirror(&world, &replay_mirror, &replay,
                                        nullptr, plans.replay.batches);
    if (!compacted.ok()) report.Fail("replay Compact: " + compacted.ToString());
    if (replay.rejected > 0 || replay.compact_failures > 0) {
      report.Fail("replayed writer failed: " + replay.first_error);
    }
  }

  if (!report.correct) {
    report.metrics.clear();
    report.Print();
    return 1;
  }

  report.Add("snapshot.load_ms",
             spec.live ? source_load_ms : Median(load_ms), "ms");
  report.Add("snapshot.file_mb",
             static_cast<double>(std::filesystem::file_size(options.snapshot)) /
                 (1024.0 * 1024.0),
             "MB");
  report.Add("engine.construct_ms", Median(construct_ms), "ms");
  report.Add("engine.run_p50_ms", probes.run_p50_ms, "ms");
  report.Add("engine.run_p90_ms", probes.run_p90_ms, "ms");
  report.Add("engine.cache_hit_ratio", probes.cache_hit_ratio, "ratio");
  report.Add("engine.cache_evictions",
             static_cast<double>(probes.cache_evictions), "count");
  report.Add("grid.eps_build_ms", probes.eps_build_ms, "ms");
  report.Add("grid.index_build_ms",
             spec.live ? Median(index_build_ms) : static_index_build_ms, "ms");
  report.Add("algo.lists_ms", probes.sums.list_construction_seconds * 1e3,
             "ms");
  report.Add("algo.filter_ms", probes.sums.filtering_seconds * 1e3, "ms");
  report.Add("algo.refine_ms", probes.sums.refinement_seconds * 1e3, "ms");
  report.Add("algo.poi_distance_checks",
             static_cast<double>(probes.sums.poi_distance_checks), "count");
  report.Add("algo.cells_popped",
             static_cast<double>(probes.sums.cells_popped), "count");
  report.Add("algo.segments_seen",
             static_cast<double>(probes.sums.segments_seen), "count");
  report.Add("algo.segments_finalized",
             static_cast<double>(
                 probes.sums.segments_finalized_in_refinement),
             "count");
  report.Add("algo.iterations", static_cast<double>(probes.sums.iterations),
             "count");
  report.Add("serve.overhead_ms", overhead_ms, "ms");
  report.Add("serve.errors",
             static_cast<double>(server_after.responses_error -
                                 server_before.responses_error),
             "count");
  report.Add("serve.shed",
             static_cast<double>(server_after.shed_queue_full -
                                 server_before.shed_queue_full),
             "count");
  if (spec.live) {
    AddWriterMetrics(writer, pin_us, &report);
  } else {
    AddWriterMetrics(replay, replay_pin_us, &report);
  }
  report.Add("trace.overhead_pct", trace_overhead_pct, "%");
  if (!options.trace_out.empty()) tracer->Write(options.trace_out);
  report.Print();
  return 0;
}

// ---------------------------------------------------------------------
// prepare

int Prepare(const std::string& out, double scale) {
  Result<Dataset> generated = GenerateCity(LondonProfile(scale));
  if (!generated.ok()) {
    std::cerr << "generate: " << generated.status().ToString() << "\n";
    return 2;
  }
  Dataset dataset = std::move(generated).ValueOrDie();
  ThreadPool pool(kWorkers);
  std::unique_ptr<DatasetIndexes> indexes =
      BuildIndexes(dataset, kCellSize, &pool);
  std::vector<std::unique_ptr<EpsAugmentedMaps>> maps;
  SnapshotContents contents;
  contents.dataset = &dataset;
  contents.indexes = indexes.get();
  for (double eps : kPreloadedEps) {
    maps.push_back(std::make_unique<EpsAugmentedMaps>(indexes->segment_cells,
                                                      eps, &pool));
    contents.eps_maps.push_back(maps.back().get());
  }
  Status saved = SaveSnapshotToFile(contents, out);
  if (!saved.ok()) {
    std::cerr << "save: " << saved.ToString() << "\n";
    return 2;
  }
  return 0;
}

// ---------------------------------------------------------------------
// Flags

bool TakeFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Usage() {
  std::cerr << "usage:\n"
               "  soi_perfbench prepare --out=PATH [--scale=0.1]\n"
               "  soi_perfbench run --workload=NAME --snapshot=PATH "
               "--seed=N --seconds=S --trace=0|1 [--smoke] "
               "[--trace-out=PATH]\n";
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::string value;
  if (command == "prepare") {
    std::string out;
    double scale = 0.1;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (TakeFlag(arg, "out", &value)) {
        out = value;
      } else if (TakeFlag(arg, "scale", &value)) {
        Result<double> parsed = ParseDouble(value);
        if (!parsed.ok()) return Usage();
        scale = parsed.ValueOrDie();
      } else {
        return Usage();
      }
    }
    if (out.empty() || !(scale > 0.0 && scale <= 1.0)) return Usage();
    return Prepare(out, scale);
  }
  if (command != "run") return Usage();
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (TakeFlag(arg, "workload", &value)) {
      options.workload = value;
    } else if (TakeFlag(arg, "snapshot", &value)) {
      options.snapshot = value;
    } else if (TakeFlag(arg, "seed", &value)) {
      Result<int64_t> parsed = ParseInt64(value);
      if (!parsed.ok()) return Usage();
      options.seed = static_cast<uint64_t>(parsed.ValueOrDie());
      have_seed = true;
    } else if (TakeFlag(arg, "seconds", &value)) {
      Result<double> parsed = ParseDouble(value);
      if (!parsed.ok() || !(parsed.ValueOrDie() > 0.0)) return Usage();
      options.seconds = parsed.ValueOrDie();
      have_seconds = true;
    } else if (TakeFlag(arg, "trace", &value)) {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
      have_trace = true;
    } else if (TakeFlag(arg, "trace-out", &value)) {
      options.trace_out = value;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.snapshot.empty() || !have_seed ||
      !have_seconds || !have_trace) {
    return Usage();
  }
  return Run(options);
}

}  // namespace
}  // namespace perfbench
}  // namespace soi

int main(int argc, char** argv) { return soi::perfbench::Main(argc, argv); }
