// perfbench: the repository benchmark program.
//
// One process runs one named workload through the library's public entry
// points and prints one result line (run.py holds the command-line
// contract and builds this binary):
//
//   steady_churn, flash_crowd, lossy_churn
//       WorkloadGenerator::generate -> ShardedRuntime::run over an open-loop
//       Poisson call set (independent callers, virtual-time arrivals).
//   explore_ref
//       explorePath(openSlot, openSlot, 1) on the ROADMAP reference model,
//       then checkSpec and quiescentObservables.
//
// Timed passes and set-up reps take turns over the CPUs the process may
// use (see cpusForPass), so a run's medians do not rest on one CPU of a
// shared host.
//
// --seed makes the call set of a load workload; the reference model has
// no inputs, so for explore_ref it only picks the replayed states.
//
// Untraced runs (--trace 0) repeat the workload for about --seconds (at
// least once; a pass starts only if, at the last pass's length, it would
// end nearer to --seconds than stopping now) and report medians of the
// end-to-end metrics. Traced runs (--trace 1) time one untraced and one
// traced pass and report per-layer metrics read from counters the library
// already exposes (ShardStats, the metrics rollup, ExploreStats, the
// LoadConfig::profile report) plus a replay of explorer steps timed with
// spans opened here, outside the library. Every run gates on correct
// outputs; a failed gate exits non-zero before any result line is printed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "load/sharded_runtime.hpp"
#include "load/workload.hpp"
#include "mc/seen_set.hpp"
#include "mc/state_graph.hpp"
#include "mc/verification.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using cmc::GoalKind;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

// Peak resident set of this process so far, in bytes. Runs read it after
// their first timed pass: later passes may raise it through allocator
// retention alone, and how many passes fit into --seconds varies.
double peakRssBytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // ru_maxrss is KiB
}

// The CPUs this process may run on (what nproc counts).
std::vector<int> allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

// The `count` CPUs for timed pass `index`: passes take turns through
// `cpus`, so the passes of a run spread over every allowed CPU. On a shared
// host the CPUs' speeds differ, and a run should not report whichever ones
// its threads happened to land on.
std::vector<int> cpusForPass(const std::vector<int>& cpus, std::size_t index,
                             std::size_t count) {
  std::vector<int> out;
  for (std::size_t i = 0; i < count && !cpus.empty(); ++i) {
    out.push_back(cpus[(index * count + i) % cpus.size()]);
  }
  return out;
}

// Pins the calling thread, and every thread it starts meanwhile, to `cpus`
// while alive, then restores the calling thread's mask. No CPUs: no-op.
class PinnedThread {
 public:
  explicit PinnedThread(const std::vector<int>& cpus) {
    saved_ok_ = !cpus.empty() &&
                sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    if (!saved_ok_) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus) CPU_SET(cpu, &set);
    (void)sched_setaffinity(0, sizeof(set), &set);
  }
  ~PinnedThread() {
    if (saved_ok_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedThread(const PinnedThread&) = delete;
  PinnedThread& operator=(const PinnedThread&) = delete;

 private:
  cpu_set_t saved_{};
  bool saved_ok_ = false;
};

std::string jsonNumber(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("non-finite metric value");
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string jsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Ordered name -> metric table; the result line and the records print it.
using Metrics = std::map<std::string, Metric>;

std::string metricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += jsonString(name) + ": {\"value\": " + jsonNumber(metric.value) +
           ", \"unit\": " + jsonString(metric.unit) + "}";
  }
  return out + "}";
}

// ---------------------------------------------------------------- metrics
// The metric names and units, in BENCHMARK.json order. Every run reports
// every name of its mode; a per-layer metric of a layer the workload does
// not run reads 0.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"load.generate_ms", "ms"},
    {"load.schedule_ms", "ms"},
    {"load.merge_ms", "ms"},
    {"load.shard_busy_ratio", "ratio"},
    {"load.shard_skew", "ratio"},
    {"load.calls_in_flight_peak", "count"},
    {"load.calls_per_s", "1/s"},
    {"load.setup_p50_ms", "ms"},
    {"load.setup_p99_ms", "ms"},
    {"load.setup_samples", "count"},
    {"load.failed_call_ratio", "ratio"},
    {"sim.events_per_call", "count"},
    {"sim.stimuli_per_call", "count"},
    {"sim.dispatch_self_ns", "ns"},
    {"sim.deliver_tunnel_ns", "ns"},
    {"sim.stimulus_self_ns", "ns"},
    {"sim.process_output_ns", "ns"},
    {"sim.output_admin_ns", "ns"},
    {"sim.dispatch_allocs", "count"},
    {"sim.output_admin_allocs", "count"},
    {"sim.peak_pending", "count"},
    {"sim.fault_injected_per_call", "count"},
    {"protocol.signals_per_call", "count"},
    {"protocol.descriptor_cache_refreshes_per_call", "count"},
    {"protocol.slot_deliver_ns", "ns"},
    {"core.flowlink_event_ns", "ns"},
    {"core.flowlink_allocs", "count"},
    {"core.goal_retries_per_call", "count"},
    {"core.goal_refreshes_per_call", "count"},
    {"core.path_copy_ns", "ns"},
    {"core.path_copy_allocs", "count"},
    {"core.enabled_actions_ns", "ns"},
    {"core.enabled_actions_allocs", "count"},
    {"core.apply_ns", "ns"},
    {"core.apply_allocs", "count"},
    {"core.canonicalize_ns", "ns"},
    {"core.canonicalize_allocs", "count"},
    {"mc.states_per_s", "1/s"},
    {"mc.bytes_per_state", "B"},
    {"mc.expand_s", "s"},
    {"mc.merge_s", "s"},
    {"mc.dedup_ratio", "ratio"},
    {"mc.seen_insert_ns", "ns"},
    {"mc.canonical_bytes_per_state", "B"},
    {"mc.peak_frontier", "count"},
    {"mc.check_spec_s", "s"},
    {"obs.rollup_names", "count"},
    {"obs.rollup_kb", "KB"},
    {"obs.trace_overhead", "ratio"},
};

template <std::size_t N>
Metrics zeroed(const MetricDef (&defs)[N]) {
  Metrics out;
  for (const MetricDef& def : defs) out[def.name] = Metric{0.0, def.unit};
  return out;
}

void set(Metrics& metrics, const std::string& name, double value) {
  auto it = metrics.find(name);
  if (it == metrics.end()) throw std::logic_error("unknown metric " + name);
  it->second.value = value;
}

// ----------------------------------------------------------- run context

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string git_sha;
  std::string src_digest;
};

// Everything the record files and the result line need from one run.
struct RunResult {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string warmup;           // what the warm-up pass ran
  std::string sites_json;       // traced runs: per-site profile table
  std::size_t iterations = 0;   // timed passes behind the medians
};

[[noreturn]] void gateFailed(const std::string& what) {
  throw std::runtime_error("correctness gate failed: " + what);
}

// Appends timings of repeated `setup` calls to `samples` until both
// `min_reps` calls and `min_seconds` have passed. Untraced runs take one
// burst before every timed pass and report the median of all of them, so
// set-up time is sampled across the run, not in one short window. Each rep
// runs on the next of `cpus` (see cpusForPass).
void sampleSetup(const std::function<void()>& setup, const std::vector<int>& cpus,
                 std::size_t min_reps, double min_seconds,
                 std::vector<double>& samples) {
  const auto start = Clock::now();
  for (std::size_t reps = 0; reps < min_reps || secondsSince(start) < min_seconds;
       ++reps) {
    const PinnedThread pin(cpusForPass(cpus, reps, 1));
    const auto t0 = Clock::now();
    setup();
    samples.push_back(secondsSince(t0));
  }
}

// ------------------------------------------------------- profile reading

struct SiteTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t self_allocs = 0;
  std::uint64_t inclusive_allocs = 0;  // the span and every span inside it
};

// Per-site sums over every calling context of a report.
std::map<std::string, SiteTotals> siteTotals(const cmc::obs::ProfileReport& report) {
  const auto& nodes = report.nodes();
  std::vector<std::uint64_t> subtree(nodes.size(), 0);
  for (std::size_t i = nodes.size(); i-- > 0;) {
    // DFS order: children follow their parent, so a reverse sweep sees a
    // node's whole subtree before the node itself.
    subtree[i] += nodes[i].allocs;
    if (nodes[i].parent >= 0) subtree[nodes[i].parent] += subtree[i];
  }
  std::map<std::string, SiteTotals> out;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const cmc::obs::ProfileNode& node = nodes[i];
    if (node.is_value) continue;
    SiteTotals& site = out[node.site];
    site.calls += node.calls;
    site.total_ns += node.total_ns;
    site.self_ns += node.self_ns;
    site.self_allocs += node.allocs;
    site.inclusive_allocs += subtree[i];
  }
  return out;
}

double perCall(double total, std::uint64_t calls) {
  return calls > 0 ? total / static_cast<double>(calls) : 0.0;
}

std::string sitesJson(const std::map<std::string, SiteTotals>& sites) {
  std::string out = "[";
  for (const auto& [name, site] : sites) {
    if (out.size() > 1) out += ",";
    out += "\n    {\"site\": " + jsonString(name) +
           ", \"calls\": " + std::to_string(site.calls) +
           ", \"self_ns\": " + std::to_string(site.self_ns) +
           ", \"total_ns\": " + std::to_string(site.total_ns) +
           ", \"allocs\": " + std::to_string(site.self_allocs) +
           ", \"inclusive_allocs\": " + std::to_string(site.inclusive_allocs) +
           "}";
  }
  return out + "\n  ]";
}

// One human-readable figure, printed above the result line under the
// workload's own name for it (calls_per_s, states_per_s, ...).
void report(const std::string& name, double value, const std::string& unit,
            const std::string& note) {
  std::printf("  %-22s %.6g %s (%s)\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

// ====================================================== load workloads

struct LoadWorkload {
  const char* name;
  std::size_t shards;
  double arrivals_per_s;
  std::size_t calls;
  double fault_fraction;
};

// Why each exists is recorded in BENCHMARK.json. Call counts are sized so
// one pass takes a few seconds on a 4-core host: a run's median then rests
// on several passes spread over the CPUs, which single-shard workloads need
// most on a shared host.
constexpr LoadWorkload kLoadWorkloads[] = {
    {"steady_churn", 2, 100.0, 40'000, 0.0},
    {"flash_crowd", 1, 2'000.0, 10'000, 0.0},
    {"lossy_churn", 1, 100.0, 5'000, 1.0},
};

cmc::load::WorkloadSpec loadSpec(const LoadWorkload& w, std::uint64_t seed,
                                 std::size_t calls) {
  cmc::load::WorkloadSpec spec;
  spec.master_seed = seed;
  spec.calls = calls;
  spec.arrivals_per_s = w.arrivals_per_s;
  spec.flowlink_fraction = 0.5;
  spec.fault_fraction = w.fault_fraction;
  return spec;
}

cmc::load::LoadConfig loadConfig(const LoadWorkload& w, bool profile) {
  cmc::load::LoadConfig config;
  config.shards = w.shards;
  config.profile = profile;
  return config;
}

// Most calls alive at once: a call holds its boxes from arrival until its
// leak audit (setup_grace + hold + teardown_grace later).
std::size_t callsInFlightPeak(const std::vector<cmc::load::CallSpec>& calls,
                              const cmc::load::LoadConfig& config) {
  std::vector<std::pair<std::int64_t, int>> edges;
  edges.reserve(calls.size() * 2);
  for (const auto& call : calls) {
    const cmc::SimTime end =
        call.arrival + config.setup_grace + call.hold + config.teardown_grace;
    edges.emplace_back(call.arrival.sinceStart().count(), +1);
    edges.emplace_back(end.sinceStart().count(), -1);
  }
  std::sort(edges.begin(), edges.end());  // ends sort before starts on ties
  std::size_t live = 0;
  std::size_t peak = 0;
  for (const auto& edge : edges) {
    if (edge.second > 0) {
      peak = std::max(peak, ++live);
    } else {
      --live;
    }
  }
  return peak;
}

// One ShardedRuntime::run over a fixed call set, timed from outside.
struct LoadPass {
  std::unique_ptr<cmc::load::ShardedRuntime> runtime;
  double run_s = 0;      // ShardedRuntime::run (partition + shards + merge)
  std::size_t good = 0;  // converged and leak-free
  std::string rollup;
};

LoadPass loadPass(const LoadWorkload& w, const cmc::load::WorkloadSpec& spec,
                  const std::vector<cmc::load::CallSpec>& calls, bool profile) {
  LoadPass pass;
  pass.runtime =
      std::make_unique<cmc::load::ShardedRuntime>(loadConfig(w, profile));
  const auto start = Clock::now();
  pass.runtime->run(calls, spec);
  pass.run_s = secondsSince(start);
  for (const auto& outcome : pass.runtime->outcomes()) {
    if (outcome.converged && outcome.clean_teardown) ++pass.good;
  }
  pass.rollup = pass.runtime->metricsJson();
  if (pass.runtime->outcomes().size() != calls.size()) {
    gateFailed("runtime returned " +
               std::to_string(pass.runtime->outcomes().size()) +
               " outcomes for " + std::to_string(calls.size()) + " calls");
  }
  return pass;
}

// Exact nearest-rank quantile of the converged calls' virtual setup
// latencies, in ms.
double setupQuantileMs(const std::vector<std::int64_t>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_us.size())));
  return static_cast<double>(sorted_us[std::max<std::size_t>(rank, 1) - 1]) /
         1000.0;
}

// Workload-describing numbers both modes print.
void describeLoad(const LoadPass& pass, std::size_t in_flight_peak,
                  Metrics& layer) {
  std::vector<std::int64_t> latencies;
  for (const auto& outcome : pass.runtime->outcomes()) {
    if (outcome.converged) latencies.push_back(outcome.setup_latency_us);
  }
  std::sort(latencies.begin(), latencies.end());
  if (pass.runtime->setupLatency().count() != latencies.size()) {
    gateFailed("setupLatency() holds " +
               std::to_string(pass.runtime->setupLatency().count()) +
               " samples for " + std::to_string(latencies.size()) +
               " converged calls");
  }
  const double calls = static_cast<double>(pass.runtime->outcomes().size());
  set(layer, "load.calls_in_flight_peak", static_cast<double>(in_flight_peak));
  set(layer, "load.setup_p50_ms", setupQuantileMs(latencies, 0.50));
  set(layer, "load.setup_p99_ms", setupQuantileMs(latencies, 0.99));
  set(layer, "load.setup_samples", static_cast<double>(latencies.size()));
  set(layer, "load.failed_call_ratio",
      (calls - static_cast<double>(pass.good)) / calls);
  set(layer, "load.calls_per_s", static_cast<double>(pass.good) / pass.run_s);
  set(layer, "obs.rollup_kb", static_cast<double>(pass.rollup.size()) / 1024.0);
}

RunResult runLoad(const LoadWorkload& w, const Args& args) {
  RunResult result;
  const cmc::load::WorkloadSpec spec = loadSpec(w, args.seed, w.calls);
  const cmc::load::LoadConfig base = loadConfig(w, false);

  // Warm-up: a tenth of the workload, so the CPU, the allocator and the
  // global descriptor table are warm before anything is timed.
  {
    const auto warm_spec = loadSpec(w, args.seed, w.calls / 10);
    const auto warm_calls = cmc::load::WorkloadGenerator(warm_spec).generate();
    (void)loadPass(w, warm_spec, warm_calls, false);
    result.warmup = "one untraced pass of " +
                    std::to_string(warm_calls.size()) + " calls";
  }

  // Set-up: call-set generation plus runtime construction.
  std::vector<cmc::load::CallSpec> calls;
  const auto setup = [&] {
    calls = cmc::load::WorkloadGenerator(spec).generate();
    cmc::load::ShardedRuntime runtime(base);
  };
  const std::vector<int> cpus = allowedCpus();
  std::vector<double> setup_samples;
  sampleSetup(setup, cpus, 5, 0.05, setup_samples);
  const std::size_t in_flight = callsInFlightPeak(calls, base);

  Metrics layer = zeroed(kPerLayer);
  if (!args.trace) {
    std::vector<double> rates;
    std::string first_rollup;
    double rss = 0;
    const auto start = Clock::now();
    double last_pass_s = 0;
    do {
      const auto pass_start = Clock::now();
      if (!rates.empty()) sampleSetup(setup, cpus, 5, 0.05, setup_samples);
      LoadPass pass;
      {
        const PinnedThread pin(cpusForPass(cpus, rates.size(), w.shards));
        pass = loadPass(w, spec, calls, false);
      }
      if (first_rollup.empty()) {
        first_rollup = pass.rollup;
        rss = peakRssBytes();
        describeLoad(pass, in_flight, layer);
      } else if (pass.rollup != first_rollup) {
        gateFailed("metrics rollup differs between passes over one call set");
      }
      result.attempted += calls.size();
      result.failed += calls.size() - pass.good;
      rates.push_back(static_cast<double>(pass.good) / pass.run_s);
      last_pass_s = secondsSince(pass_start);
    } while (secondsSince(start) + last_pass_s / 2 < args.seconds);
    result.iterations = rates.size();
    result.metrics = zeroed(kEndToEnd);
    set(result.metrics, "throughput_per_s", median(rates));
    set(result.metrics, "peak_rss_mb", rss / 1e6);
    set(result.metrics, "setup_s", median(setup_samples));
    report("calls_per_s", median(rates), "1/s",
           "converged leak-free calls / run() wall, median of " +
               std::to_string(rates.size()) + " passes");
    report("setup_p50_ms", layer["load.setup_p50_ms"].value, "ms",
           "virtual time, " +
               std::to_string(static_cast<std::size_t>(
                   layer["load.setup_samples"].value)) +
               " samples");
    report("setup_p99_ms", layer["load.setup_p99_ms"].value, "ms", "virtual time");
    report("failed_call_ratio",
           static_cast<double>(result.failed) /
               static_cast<double>(result.attempted),
           "ratio", "not converged or not leak-free");
    report("rollup_kb", layer["obs.rollup_kb"].value, "KB", "metricsJson() size");
    report("calls_in_flight_peak", static_cast<double>(in_flight), "count",
           "from the generated call set");
    return result;
  }

  std::vector<double> generate_samples;
  sampleSetup([&] { calls = cmc::load::WorkloadGenerator(spec).generate(); },
              cpus, 21, 0.2, generate_samples);
  const double generate_s = median(generate_samples);

  // Traced: one untraced and one profiled pass over the same call set, on
  // the same CPUs.
  LoadPass plain;
  LoadPass traced;
  {
    const PinnedThread pin(cpusForPass(cpus, 0, w.shards));
    plain = loadPass(w, spec, calls, false);
    traced = loadPass(w, spec, calls, true);
  }
  if (traced.rollup != plain.rollup) {
    gateFailed("traced metrics rollup differs from the untraced one");
  }
  result.attempted = 2 * calls.size();
  result.failed = 2 * calls.size() - plain.good - traced.good;
  result.iterations = 2;
  describeLoad(plain, in_flight, layer);

  const cmc::load::ShardedRuntime& rt = *traced.runtime;
  const double n = static_cast<double>(calls.size());
  const auto sites = siteTotals(rt.profileReport());
  auto site = [&](const char* name) {
    auto it = sites.find(name);
    return it != sites.end() ? it->second : SiteTotals{};
  };
  // Per-op figures of a library span: total or self ns, and the
  // allocations made while it was the innermost open span.
  auto total_ns = [&](const char* name) {
    const SiteTotals s = site(name);
    return perCall(static_cast<double>(s.total_ns), s.calls);
  };
  auto self_ns = [&](const char* name) {
    const SiteTotals s = site(name);
    return perCall(static_cast<double>(s.self_ns), s.calls);
  };
  auto allocs = [&](const char* name) {
    const SiteTotals s = site(name);
    return perCall(static_cast<double>(s.self_allocs), s.calls);
  };
  auto counter = [&](const char* name) {
    const auto* c = rt.metrics().findCounter(name);
    return c != nullptr ? static_cast<double>(c->value()) : 0.0;
  };

  std::int64_t thread_sum = 0;
  std::int64_t thread_max = 0;
  std::int64_t thread_min = INT64_MAX;
  std::uint64_t events = 0;
  std::size_t peak_pending = 0;
  for (const auto& stats : rt.shardStats()) {
    thread_sum += stats.thread_wall_ns;
    thread_max = std::max(thread_max, stats.thread_wall_ns);
    thread_min = std::min(thread_min, stats.thread_wall_ns);
    events += stats.events_executed;
    peak_pending = std::max(peak_pending, stats.peak_pending);
  }
  const double shards = static_cast<double>(rt.shardStats().size());
  std::size_t names = 0;
  rt.metrics().visit([&](const std::string&, const auto&) { ++names; },
                     [&](const std::string&, const auto&) { ++names; },
                     [&](const std::string&, const auto&) { ++names; });

  set(layer, "load.generate_ms", generate_s * 1e3);
  set(layer, "load.schedule_ms", site("shard.schedule").total_ns / 1e6);
  set(layer, "load.merge_ms", (traced.run_s - rt.wallSeconds()) * 1e3);
  set(layer, "load.shard_busy_ratio",
      static_cast<double>(thread_sum) / (shards * rt.wallSeconds() * 1e9));
  set(layer, "load.shard_skew",
      thread_min > 0 ? static_cast<double>(thread_max) / thread_min : 0.0);
  set(layer, "sim.events_per_call", static_cast<double>(events) / n);
  set(layer, "sim.stimuli_per_call", counter("sim.stimuli") / n);
  set(layer, "sim.dispatch_self_ns", self_ns("loop.dispatch"));
  set(layer, "sim.deliver_tunnel_ns", total_ns("sim.deliver_tunnel"));
  set(layer, "sim.stimulus_self_ns", self_ns("sim.stimulus"));
  set(layer, "sim.process_output_ns", total_ns("sim.process_output"));
  set(layer, "sim.output_admin_ns", total_ns("sim.output_admin"));
  set(layer, "sim.dispatch_allocs", allocs("loop.dispatch"));
  set(layer, "sim.output_admin_allocs", allocs("sim.output_admin"));
  set(layer, "sim.peak_pending", static_cast<double>(peak_pending));
  set(layer, "sim.fault_injected_per_call", counter("load.faults_injected") / n);
  set(layer, "protocol.signals_per_call",
      static_cast<double>(rt.signalsDelivered()) / n);
  set(layer, "protocol.descriptor_cache_refreshes_per_call",
      counter("slot.descriptor_cache_refreshes") / n);
  set(layer, "protocol.slot_deliver_ns", total_ns("slot.deliver"));
  set(layer, "core.flowlink_event_ns", total_ns("flowlink.on_event"));
  set(layer, "core.flowlink_allocs", allocs("flowlink.on_event"));
  set(layer, "core.goal_retries_per_call", counter("goal.openslot_retries") / n);
  set(layer, "core.goal_refreshes_per_call", counter("goal.refreshes") / n);
  set(layer, "obs.rollup_names", static_cast<double>(names));
  set(layer, "obs.trace_overhead", traced.run_s / plain.run_s);
  result.metrics = std::move(layer);
  result.sites_json = sitesJson(sites);
  return result;
}

// ===================================================== explorer workload

// ROADMAP reference model and its recorded counts.
constexpr std::size_t kRefStates = 782'915;
constexpr std::size_t kRefTransitions = 2'320'246;
constexpr std::size_t kRefTerminals = 128;

cmc::ExploreLimits refLimits() {
  cmc::ExploreLimits limits;
  limits.chaos_budget = 1;
  limits.modify_budget = 1;
  limits.max_states = 4'000'000;
  limits.threads = 2;
  return limits;
}

// The initial system explorePath builds for the reference model.
cmc::PathSystem refInitial() {
  const cmc::ExploreLimits limits = refLimits();
  cmc::PathSystem initial(
      cmc::PathSystem::makeGoal(GoalKind::openSlot, cmc::PathEnd::left),
      cmc::PathSystem::makeGoal(GoalKind::openSlot, cmc::PathEnd::right), 1,
      limits.defer_attach);
  initial.setChaosBudget(limits.chaos_budget);
  initial.setModifyBudget(limits.modify_budget);
  return initial;
}

struct ExplorePass {
  cmc::ExploreStats stats;
  double explore_s = 0;
  double check_spec_s = 0;
  double verify_s = 0;
};

ExplorePass explorePass() {
  ExplorePass pass;
  const auto start = Clock::now();
  const cmc::ExploreResult graph = cmc::explorePath(
      GoalKind::openSlot, GoalKind::openSlot, 1, refLimits());
  pass.explore_s = secondsSince(start);
  const auto check_start = Clock::now();
  const auto violation = cmc::checkSpec(
      graph, cmc::specFor(GoalKind::openSlot, GoalKind::openSlot));
  pass.check_spec_s = secondsSince(check_start);
  const auto observables = cmc::quiescentObservables(graph);
  pass.verify_s = secondsSince(start);
  pass.stats = graph.stats;

  if (graph.truncated) gateFailed("reference exploration truncated");
  if (graph.states() != kRefStates || graph.transitions != kRefTransitions ||
      graph.terminals != kRefTerminals) {
    gateFailed("reference model explored " + std::to_string(graph.states()) +
               " states / " + std::to_string(graph.transitions) +
               " transitions / " + std::to_string(graph.terminals) +
               " terminals, expected 782915 / 2320246 / 128");
  }
  if (violation) gateFailed("spec violation: " + violation->description);
  if (observables.empty()) gateFailed("no quiescent observable states");
  return pass;
}

// Replays explorer steps on a seeded sample of reference-model states,
// timing each core operation with spans opened here. The explorer's own
// parallel workers record nothing, so this is where the per-transition
// core and seen-set costs come from. Allocation counts are inclusive: the
// library's own spans inside apply() and canonicalize() belong to the op.
std::map<std::string, SiteTotals> replayExplorerSteps(std::uint64_t seed) {
  constexpr std::size_t kSampledStates = 20'000;
  constexpr std::uint64_t kMaxWalk = 64;
  cmc::obs::ProfileTable table("replay");
  cmc::SeenSet seen(cmc::SeenSet::kNoIndex - 1);
  cmc::Rng rng(seed);
  const cmc::PathSystem initial = refInitial();
  std::optional<cmc::PathSystem> state;
  std::uint64_t walk_left = 0;
  for (std::size_t sampled = 0; sampled < kSampledStates; ++sampled) {
    if (walk_left == 0 || !state) {
      state.emplace(initial);
      walk_left = 1 + rng.below(kMaxWalk);
    }
    std::vector<cmc::PathAction> actions;
    cmc::obs::setThreadProfiler(&table);
    {
      CMC_PROF_SCOPE("core.enabled_actions");
      actions = state->enabledActions();
    }
    for (const cmc::PathAction& action : actions) {
      std::optional<cmc::PathSystem> successor;
      {
        CMC_PROF_SCOPE("core.path_copy");
        successor.emplace(*state);
      }
      {
        CMC_PROF_SCOPE("core.apply");
        successor->apply(action);
      }
      cmc::ByteWriter writer;
      {
        CMC_PROF_SCOPE("core.canonicalize");
        successor->canonicalize(writer);
      }
      std::vector<std::uint8_t> bytes = writer.take();
      const std::uint64_t fingerprint = cmc::fnv1a(bytes);
      {
        CMC_PROF_SCOPE("mc.seen_insert");
        (void)seen.insert(fingerprint, std::move(bytes));
      }
    }
    cmc::obs::setThreadProfiler(nullptr);
    if (actions.empty()) {
      walk_left = 0;
    } else {
      state->apply(actions[rng.below(actions.size())]);
      --walk_left;
    }
  }
  return siteTotals(table.report());
}

RunResult runExplore(const Args& args) {
  RunResult result;
  // Warm-up: the 0-flowlink open/open model fills the global descriptor
  // table and the allocator before the reference model is timed.
  {
    const auto warm = cmc::explorePath(GoalKind::openSlot, GoalKind::openSlot,
                                       0, refLimits());
    result.warmup = "open/open 0-flowlink model, " +
                    std::to_string(warm.states()) + " states";
  }
  // Set-up: building the reference model's initial system. It takes well
  // under a microsecond, so each sample times a batch of builds.
  constexpr int kSetupBatch = 100;
  const auto setup = [] {
    for (int i = 0; i < kSetupBatch; ++i) (void)refInitial();
  };
  const std::vector<int> cpus = allowedCpus();
  std::vector<double> setup_samples;

  if (!args.trace) {
    std::vector<double> rates;
    std::vector<double> verify;
    double rss = 0;
    const auto start = Clock::now();
    double last_pass_s = 0;
    do {
      const auto pass_start = Clock::now();
      sampleSetup(setup, cpus, 21, 0.1, setup_samples);
      ExplorePass pass;
      {
        const PinnedThread pin(
            cpusForPass(cpus, rates.size(), refLimits().threads));
        pass = explorePass();
      }
      if (rates.empty()) rss = peakRssBytes();
      rates.push_back(static_cast<double>(kRefStates) / pass.explore_s);
      verify.push_back(pass.verify_s);
      ++result.attempted;
      last_pass_s = secondsSince(pass_start);
    } while (secondsSince(start) + last_pass_s / 2 < args.seconds);
    result.iterations = rates.size();
    result.metrics = zeroed(kEndToEnd);
    set(result.metrics, "throughput_per_s", median(rates));
    set(result.metrics, "peak_rss_mb", rss / 1e6);
    set(result.metrics, "setup_s", median(setup_samples) / kSetupBatch);
    report("states_per_s", median(rates), "1/s",
           "states / explorePath wall, median of " +
               std::to_string(rates.size()) + " passes");
    report("bytes_per_state", rss / static_cast<double>(kRefStates), "B",
           "peak RSS / states");
    report("verify_s", median(verify), "s",
           "explorePath + checkSpec + quiescentObservables");
    return result;
  }

  // Traced: one plain pass for the explorer's own counters, one with a
  // profile table on this thread (the explorer's coordinating thread; its
  // parallel workers record nothing), and the step replay.
  const PinnedThread pin(cpusForPass(cpus, 0, refLimits().threads));
  const ExplorePass plain = explorePass();
  const double rss = peakRssBytes();
  cmc::obs::ProfileTable table("explore");
  cmc::obs::setThreadProfiler(&table);
  const ExplorePass traced = explorePass();
  cmc::obs::setThreadProfiler(nullptr);
  result.attempted = 2;
  result.iterations = 2;

  auto sites = siteTotals(table.report());
  const auto replay = replayExplorerSteps(args.seed);
  sites.insert(replay.begin(), replay.end());
  auto op_ns = [&](const char* name) {
    const SiteTotals& s = replay.at(name);
    return perCall(static_cast<double>(s.total_ns), s.calls);
  };
  auto op_allocs = [&](const char* name) {
    const SiteTotals& s = replay.at(name);
    return perCall(static_cast<double>(s.inclusive_allocs), s.calls);
  };

  const cmc::ExploreStats& stats = plain.stats;
  Metrics layer = zeroed(kPerLayer);
  set(layer, "core.path_copy_ns", op_ns("core.path_copy"));
  set(layer, "core.path_copy_allocs", op_allocs("core.path_copy"));
  set(layer, "core.enabled_actions_ns", op_ns("core.enabled_actions"));
  set(layer, "core.enabled_actions_allocs", op_allocs("core.enabled_actions"));
  set(layer, "core.apply_ns", op_ns("core.apply"));
  set(layer, "core.apply_allocs", op_allocs("core.apply"));
  set(layer, "core.canonicalize_ns", op_ns("core.canonicalize"));
  set(layer, "core.canonicalize_allocs", op_allocs("core.canonicalize"));
  set(layer, "mc.states_per_s", static_cast<double>(stats.states) / plain.explore_s);
  set(layer, "mc.bytes_per_state", rss / static_cast<double>(stats.states));
  set(layer, "mc.expand_s", stats.expand_seconds);
  set(layer, "mc.merge_s", stats.merge_seconds);
  set(layer, "mc.dedup_ratio",
      static_cast<double>(stats.states) /
          static_cast<double>(stats.states + stats.dedup_hits));
  set(layer, "mc.seen_insert_ns", op_ns("mc.seen_insert"));
  set(layer, "mc.canonical_bytes_per_state",
      static_cast<double>(stats.bytes_retained) / static_cast<double>(stats.states));
  set(layer, "mc.peak_frontier", static_cast<double>(stats.peak_frontier));
  set(layer, "mc.check_spec_s", plain.check_spec_s);
  set(layer, "obs.trace_overhead", traced.explore_s / plain.explore_s);
  result.metrics = std::move(layer);
  result.sites_json = sitesJson(sites);
  return result;
}

// ================================================================ main

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::runtime_error("--trace 0|1");
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--src-digest") {
      args.src_digest = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::runtime_error("--workload is required");
  return args;
}

RunResult runWorkload(const Args& args) {
  for (const LoadWorkload& w : kLoadWorkloads) {
    if (args.workload == w.name) return runLoad(w, args);
  }
  if (args.workload == "explore_ref") return runExplore(args);
  throw std::runtime_error("unknown workload " + args.workload);
}

std::string headerJson(const Args& args, const RunResult& result) {
  return "{\"workload\": " + jsonString(args.workload) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"trace\": " + (args.trace ? "1" : "0") +
         ", \"seconds\": " + jsonNumber(args.seconds) +
         ", \"nproc\": " + std::to_string(allowedCpus().size()) +
         ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) +
         ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
         ", \"git_sha\": " + jsonString(args.git_sha) +
         ", \"src_digest\": " + jsonString(args.src_digest) +
         ", \"warmup_ran\": " + (result.warmup.empty() ? "false" : "true") +
         ", \"warmup\": " + jsonString(result.warmup) +
         ", \"iterations\": " + std::to_string(result.iterations) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parseArgs(argc, argv);
    const RunResult result = runWorkload(args);
    const std::string header = headerJson(args, result);
    const std::string metrics = metricsJson(result.metrics);

    namespace fs = std::filesystem;
    const fs::path dir = fs::path(args.out_dir) / args.workload;
    fs::create_directories(dir);
    const std::string stem = "seed" + std::to_string(args.seed) +
                             (args.trace ? "-trace" : "");
    std::ofstream(dir / (stem + ".json"), std::ios::trunc)
        << "{\"header\": " << header << ",\n \"attempted\": " << result.attempted
        << ", \"failed\": " << result.failed << ",\n \"metrics\": " << metrics
        << "}\n";
    if (args.trace) {
      std::ofstream(dir / (stem + "-sites.json"), std::ios::trunc)
          << "{\"header\": " << header << ",\n  \"obs.trace_overhead\": "
          << jsonNumber(result.metrics.at("obs.trace_overhead").value)
          << ",\n  \"sites\": " << result.sites_json << "}\n";
    }

    std::printf("HEADER %s\n", header.c_str());
    for (const auto& [name, metric] : result.metrics) {
      std::printf("  %-44s %.6g %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
    std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed), metrics.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
