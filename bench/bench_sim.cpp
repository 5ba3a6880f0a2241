// Simulator hot-path microbenchmark (docs/SIMULATOR.md).
//
// Self-timing A/B of the two EventQueue engines — the timing wheel that
// runs every figure and the reference binary heap it replaced — plus a
// wall-clock rerun of a Fig 11-style KV scenario on both engines. Writes
// machine-readable results to BENCH_sim.json (override with --out=PATH)
// so the perf trajectory is tracked across commits; CI runs it with
// --quick and uploads the JSON.
//
// Microbench scenarios (fixed seeds, steady state reached before timing):
//
//   * steady_fire     — the classic "hold" loop: pop the earliest event,
//                       advance time to it, schedule a replacement a random
//                       delta ahead. Pure (time-ordered) queue throughput.
//   * timeout_churn   — same loop, but ~90% of scheduled events are
//                       cancelled before they fire, like the per-IO timeout
//                       timers the fabric arms and tears down on completion.
//   * breakdown       — schedule / cancel / fire phases timed separately.
//
// Each scenario runs at a small and a large pending-set size; the headline
// number (the acceptance gate: >= 1.5x) is timeout_churn at 100k pending,
// the profile closest to a loaded testbed. InlineFn::heap_fallbacks() is
// sampled around the hot loops — a nonzero delta means a closure outgrew
// the inline buffer and the allocation-free claim regressed.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "kv/cluster.h"
#include "sim/event_queue.h"

using namespace gimbal;
using namespace gimbal::bench;

namespace {

using Clock = std::chrono::steady_clock;
using sim::EventQueue;
using sim::TimerHandle;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const char* ImplName(EventQueue::Impl impl) {
  return impl == EventQueue::Impl::kTimingWheel ? "timing_wheel"
                                                : "reference_heap";
}

// Random schedule-ahead delta, weighted like a testbed: mostly short IO
// stage hops, some millisecond-scale waits, rare sub-microsecond hops.
// One rng draw per delta so the generator stays a small, equal tax on
// both engines.
Tick RandomDelta(std::mt19937_64& rng) {
  const uint64_t r = rng();
  const uint64_t v = r >> 8;
  switch (r & 15) {
    case 0:
      return static_cast<Tick>(v % Microseconds(1) + 1);
    case 1:
    case 2:
    case 3:
      return static_cast<Tick>(v % Milliseconds(10) + Microseconds(1));
    default:
      return static_cast<Tick>(v % Microseconds(100) + 1);
  }
}

struct MicroResult {
  std::string scenario;
  size_t pending;
  uint64_t events;
  double wheel_eps = 0;  // events (pops) per wall-clock second
  double heap_eps = 0;
  double speedup() const { return heap_eps > 0 ? wheel_eps / heap_eps : 0; }
};

// Steady-state hold loop: `pending` events in flight, each pop schedules a
// replacement. With `churn`, every round also arms a 2ms "IO timeout"
// timer and cancels the oldest one — the oldest is ~1 simulated ms young
// at that point, so the cancel lands on a still-pending event, exactly
// like a completion tearing down its timeout. The queue then digests one
// tombstone per round on top of the hold traffic.
double RunHold(EventQueue::Impl impl, size_t pending, uint64_t events,
               bool churn, uint64_t seed) {
  EventQueue q(impl);
  std::mt19937_64 rng(seed);
  Tick now = 0;
  uint64_t fired = 0;
  auto on_fire = [&fired]() { ++fired; };
  for (size_t i = 0; i < pending; ++i) {
    q.Push(now + RandomDelta(rng), on_fire);
  }
  std::deque<TimerHandle> timeouts;  // armed churn timers, oldest first
  const auto step = [&]() {
    Tick when = 0;
    auto fn = q.Pop(&when);
    now = when;
    if (fn) fn();
    q.Push(now + RandomDelta(rng), on_fire);
    if (churn) {
      timeouts.push_back(q.Push(now + Milliseconds(2), on_fire));
      if (timeouts.size() > pending) {
        timeouts.front().Cancel();
        timeouts.pop_front();
      }
    }
  };
  // Warm up: reach steady state (slot distributions, pool and tombstone
  // population) untimed.
  for (uint64_t i = 0; i < 2 * pending; ++i) step();
  const auto t0 = Clock::now();
  for (uint64_t i = 0; i < events; ++i) step();
  const double sec = SecondsSince(t0);
  return static_cast<double>(events) / sec;
}

MicroResult RunScenario(const char* name, size_t pending, uint64_t events,
                        bool churn) {
  MicroResult r;
  r.scenario = name;
  r.pending = pending;
  r.events = events;
  r.wheel_eps =
      RunHold(EventQueue::Impl::kTimingWheel, pending, events, churn, 42);
  r.heap_eps =
      RunHold(EventQueue::Impl::kReferenceHeap, pending, events, churn, 42);
  std::printf("  %-14s pending=%-7zu wheel %10.0f ev/s   heap %10.0f ev/s"
              "   speedup %.2fx\n",
              name, pending, r.wheel_eps, r.heap_eps, r.speedup());
  return r;
}

struct Breakdown {
  double schedule_ns = 0;
  double cancel_ns = 0;
  double fire_ns = 0;
};

// Phase-timed costs: N pushes into an idle queue, cancel half by handle,
// then drain the survivors.
Breakdown RunBreakdown(EventQueue::Impl impl, uint64_t n, uint64_t seed) {
  EventQueue q(impl);
  std::mt19937_64 rng(seed);
  uint64_t fired = 0;
  auto on_fire = [&fired]() { ++fired; };
  std::vector<TimerHandle> handles;
  handles.reserve(n);
  Breakdown b;
  auto t0 = Clock::now();
  for (uint64_t i = 0; i < n; ++i) {
    handles.push_back(q.Push(RandomDelta(rng), on_fire));
  }
  b.schedule_ns = SecondsSince(t0) * 1e9 / static_cast<double>(n);
  t0 = Clock::now();
  for (uint64_t i = 0; i < n; i += 2) handles[i].Cancel();
  b.cancel_ns = SecondsSince(t0) * 1e9 / static_cast<double>(n / 2);
  t0 = Clock::now();
  uint64_t pops = 0;
  while (!q.empty()) {
    Tick when = 0;
    auto fn = q.Pop(&when);
    if (fn) fn();
    ++pops;
  }
  b.fire_ns = SecondsSince(t0) * 1e9 / static_cast<double>(pops);
  return b;
}

// Fig 11-style KV point (YCSB-B, Gimbal, fragmented SSDs), run to the same
// simulated instant on both engines; only the wall clock differs.
double Fig11Wallclock(EventQueue::Impl impl, int instances, Tick measure) {
  kv::KvClusterConfig cfg;
  cfg.testbed.scheme = Scheme::kGimbal;
  cfg.testbed.num_ssds = 2;
  cfg.testbed.target.cores = 2;
  cfg.testbed.condition = SsdCondition::kFragmented;
  cfg.testbed.ssd.logical_bytes = 128ull << 20;
  cfg.testbed.queue_impl = impl;
  cfg.testbed.run_label = std::string("bench_sim:") + ImplName(impl);
  cfg.hba.backend_bytes = 128ull << 20;
  cfg.db.memtable_bytes = 1ull << 20;
  kv::KvCluster cluster(cfg);
  std::vector<std::unique_ptr<kv::YcsbClient>> clients;
  for (int i = 0; i < instances; ++i) {
    auto& inst = cluster.AddInstance();
    inst.db->BulkLoad(5'000, 1024);
    workload::YcsbSpec spec;
    spec.workload = workload::YcsbWorkload::kB;
    spec.record_count = 5'000;
    spec.seed = static_cast<uint64_t>(i) + 1;
    clients.push_back(
        std::make_unique<kv::YcsbClient>(cluster.sim(), *inst.db, spec, 16));
  }
  for (auto& c : clients) c->Start();
  const auto t0 = Clock::now();
  cluster.sim().RunUntil(measure);
  return SecondsSince(t0);
}

void JsonEscapePrint(FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_sim.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--out=", 0) == 0) {
      out = a.substr(6);
    } else if (a == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--out=PATH] [--quick]\n", argv[0]);
      return 2;
    }
  }

  workload::PrintHeader(
      "bench_sim - EventQueue timing wheel vs reference heap",
      "simulator hot-path overhaul (docs/SIMULATOR.md)",
      "timing wheel >= 1.5x events/sec at testbed-like pending-set sizes");

  const uint64_t kEvents = quick ? 200'000 : 2'000'000;
  const uint64_t fallbacks_before = sim::InlineFn::heap_fallbacks();

  std::printf("\nsteady_fire (pop-advance-push hold loop):\n");
  std::vector<MicroResult> results;
  results.push_back(RunScenario("steady_fire", 1'000, kEvents, false));
  results.push_back(RunScenario("steady_fire", 100'000, kEvents, false));
  std::printf("timeout_churn (every round arms a timeout, cancels one):\n");
  results.push_back(RunScenario("timeout_churn", 1'000, kEvents, true));
  results.push_back(RunScenario("timeout_churn", 100'000, kEvents, true));
  const MicroResult& headline = results.back();

  const uint64_t fallbacks_after = sim::InlineFn::heap_fallbacks();

  const uint64_t kBreakN = quick ? 100'000 : 1'000'000;
  const Breakdown wheel_bd =
      RunBreakdown(EventQueue::Impl::kTimingWheel, kBreakN, 7);
  const Breakdown heap_bd =
      RunBreakdown(EventQueue::Impl::kReferenceHeap, kBreakN, 7);
  std::printf("\nper-op breakdown (ns/op, %llu events):\n",
              static_cast<unsigned long long>(kBreakN));
  std::printf("  %-14s schedule %6.1f   cancel %6.1f   fire %6.1f\n",
              "timing_wheel", wheel_bd.schedule_ns, wheel_bd.cancel_ns,
              wheel_bd.fire_ns);
  std::printf("  %-14s schedule %6.1f   cancel %6.1f   fire %6.1f\n",
              "reference_heap", heap_bd.schedule_ns, heap_bd.cancel_ns,
              heap_bd.fire_ns);

  const int kInstances = quick ? 2 : 4;
  const Tick kMeasure = quick ? Milliseconds(50) : Milliseconds(200);
  const double fig11_wheel =
      Fig11Wallclock(EventQueue::Impl::kTimingWheel, kInstances, kMeasure);
  const double fig11_heap =
      Fig11Wallclock(EventQueue::Impl::kReferenceHeap, kInstances, kMeasure);
  std::printf("\nfig11-style KV rerun (%d instances, %.0f ms simulated):\n",
              kInstances, ToSec(kMeasure) * 1e3);
  std::printf("  timing_wheel   %7.1f ms wall\n", fig11_wheel * 1e3);
  std::printf("  reference_heap %7.1f ms wall   speedup %.2fx\n",
              fig11_heap * 1e3,
              fig11_wheel > 0 ? fig11_heap / fig11_wheel : 0);

  std::printf("\nInlineFn heap fallbacks over the hot loops: %llu\n",
              static_cast<unsigned long long>(fallbacks_after -
                                              fallbacks_before));
  std::printf("headline (timeout_churn, pending=%zu): %.2fx (target 1.5x)\n",
              headline.pending, headline.speedup());

  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: could not write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_sim\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"inline_fn\": {\"capacity\": %zu, "
               "\"heap_fallbacks_delta\": %llu},\n",
               sim::InlineFn::kInlineCapacity,
               static_cast<unsigned long long>(fallbacks_after -
                                               fallbacks_before));
  std::fprintf(f, "  \"microbench\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const MicroResult& r = results[i];
    std::fprintf(f, "    {\"scenario\": ");
    JsonEscapePrint(f, r.scenario);
    std::fprintf(f,
                 ", \"pending\": %zu, \"events\": %llu, "
                 "\"wheel_events_per_sec\": %.0f, "
                 "\"heap_events_per_sec\": %.0f, \"speedup\": %.3f}%s\n",
                 r.pending, static_cast<unsigned long long>(r.events),
                 r.wheel_eps, r.heap_eps, r.speedup(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"breakdown_ns_per_op\": {\n"
               "    \"timing_wheel\": {\"schedule\": %.1f, \"cancel\": %.1f,"
               " \"fire\": %.1f},\n"
               "    \"reference_heap\": {\"schedule\": %.1f, \"cancel\": "
               "%.1f, \"fire\": %.1f}\n  },\n",
               wheel_bd.schedule_ns, wheel_bd.cancel_ns, wheel_bd.fire_ns,
               heap_bd.schedule_ns, heap_bd.cancel_ns, heap_bd.fire_ns);
  std::fprintf(f,
               "  \"fig11_wallclock\": {\"instances\": %d, "
               "\"simulated_ms\": %.0f, \"wheel_ms\": %.1f, "
               "\"heap_ms\": %.1f, \"speedup\": %.3f},\n",
               kInstances, ToSec(kMeasure) * 1e3, fig11_wheel * 1e3,
               fig11_heap * 1e3,
               fig11_wheel > 0 ? fig11_heap / fig11_wheel : 0);
  std::fprintf(f,
               "  \"headline\": {\"scenario\": \"timeout_churn\", "
               "\"pending\": %zu, \"speedup\": %.3f, \"target\": 1.5}\n}\n",
               headline.pending, headline.speedup());
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
