#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

void Fail(const std::string& workload, const std::string& step,
          const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: workload %s: %s failed: %s\n",
               workload.c_str(), step.c_str(), what.c_str());
  std::exit(1);
}

void Expect(bool cond, const std::string& workload, const std::string& check,
            const std::string& detail) {
  if (!cond) Fail(workload, "check " + check, detail);
}

namespace {

constexpr uint32_t kProbeNodes = 1u << 18;
constexpr uint32_t kProbeKeys = 1u << 14;
constexpr uint32_t kProbeEvents = 1024;
constexpr int kProbeSteps = 512;
// About the host ns of one Run() between rounds on the VM of the
// reference figures (README.md, "How a run is timed").
constexpr double kProbeReferenceNs = 350000.0;

uint32_t ProbeKey(uint32_t i) { return i * 2654435761u; }

}  // namespace

SpeedProbe::SpeedProbe() : nodes_(kProbeNodes) {
  // One cycle through all nodes in a fixed shuffled order.
  std::vector<uint32_t> order(kProbeNodes);
  for (uint32_t i = 0; i < kProbeNodes; ++i) order[i] = i;
  uint64_t x = 88172645463325252ull;
  for (uint32_t i = kProbeNodes - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(order[i], order[x % (i + 1)]);
  }
  for (uint32_t i = 0; i < kProbeNodes; ++i) {
    nodes_[order[i]] = {order[(i + 1) % kProbeNodes], i};
  }
  for (uint32_t i = 0; i < kProbeKeys; ++i) map_[ProbeKey(i)] = i;
  for (uint32_t i = 0; i < kProbeEvents; ++i) {
    heap_.push({i * 7919u % kProbeEvents, i});
  }
  calls_.push_back([](uint32_t v) { return v * 3 + 1; });
  calls_.push_back([this](uint32_t v) {
    return static_cast<uint32_t>(sink_) ^ v;
  });
  calls_.push_back([](uint32_t v) { return v >> 1; });
  calls_.push_back([](uint32_t v) { return v + 17; });
  for (int i = 0; i < 16; ++i) Run();
}

int64_t SpeedProbe::Run() {
  const int64_t t0 = HostNs();
  for (int i = 0; i < kProbeSteps; ++i) {
    const Node& n = nodes_[at_];
    at_ = n.next;
    const auto it = map_.find(ProbeKey(n.val % kProbeKeys));
    const uint32_t v = it == map_.end() ? 0 : it->second;
    const Event top = heap_.top();
    heap_.pop();
    heap_.push({top.first + 1 + (v % kProbeEvents), top.second ^ at_});
    sink_ += calls_[v % calls_.size()](v);
  }
  return HostNs() - t0;
}

double SpeedProbe::Scale(double ns_per_run) {
  return kProbeReferenceNs / ns_per_run;
}

double Samples::MeanUs() const {
  if (v_.empty()) return 0;
  long double sum = 0;
  for (Tick t : v_) sum += t;
  return static_cast<double>(sum / v_.size()) / 1000.0;
}

namespace {
size_t NearestRank(double q, size_t n) {
  const double r = std::ceil(q * static_cast<double>(n)) - 1.0;
  if (r <= 0) return 0;
  return std::min(static_cast<size_t>(r), n - 1);
}
}  // namespace

double Samples::QuantileUs(double q) {
  if (v_.empty()) return 0;
  const size_t r = NearestRank(q, v_.size());
  std::nth_element(v_.begin(), v_.begin() + static_cast<ptrdiff_t>(r),
                   v_.end());
  return static_cast<double>(v_[r]) / 1000.0;
}

double InterpolatedQuantileUs(const gimbal::LatencyHistogram& h, double q) {
  const uint64_t n = h.count();
  if (n == 0) return 0;
  // The bucket upper bound of the sample at (0-based) rank r.
  auto at = [&](uint64_t r) {
    return h.Percentile((static_cast<double>(r) + 0.5) /
                        static_cast<double>(n));
  };
  const uint64_t r = NearestRank(q, n);
  const int64_t upper = at(r);
  // Ranks [r0, r1] share the bucket; place rank r linearly inside it.
  uint64_t lo = 0, hi = r;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (at(mid) < upper) lo = mid + 1; else hi = mid;
  }
  const uint64_t r0 = lo;
  lo = r;
  hi = n - 1;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo + 1) / 2;
    if (at(mid) > upper) hi = mid - 1; else lo = mid;
  }
  const uint64_t r1 = lo;
  int64_t width = 1;
  if (upper >= gimbal::LatencyHistogram::kSub) {
    const int msb = 63 - __builtin_clzll(static_cast<uint64_t>(upper));
    width = int64_t{1} << (msb - gimbal::LatencyHistogram::kSubBits);
  }
  const double lower = static_cast<double>(upper - width + 1);
  const double frac = (static_cast<double>(r - r0) + 0.5) /
                      static_cast<double>(r1 - r0 + 1);
  return (lower + static_cast<double>(width) * frac) / 1000.0;
}

double RssMib() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void SpanLog::Begin(const char* name) {
  stack_.push_back(Open{name, HostNs(), 0});
}

void SpanLog::End() {
  const Open o = stack_.back();
  stack_.pop_back();
  const int64_t dur = HostNs() - o.start;
  Agg& a = agg_[o.name];
  ++a.n;
  a.host_ns += dur;
  a.self_ns += dur - o.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

void SpanLog::Async(const char* name, Tick sim_ticks) {
  Agg& a = agg_[name];
  ++a.async_n;
  a.sim_ticks += sim_ticks;
}

int64_t SpanLog::TotalNs(const std::string& name) const {
  auto it = agg_.find(name);
  return it == agg_.end() ? 0 : it->second.host_ns;
}

uint64_t SpanLog::Count(const std::string& name) const {
  auto it = agg_.find(name);
  return it == agg_.end() ? 0 : it->second.n;
}

void SpanLog::PrintSummary() const {
  int64_t self_total = 0;
  for (const auto& [name, a] : agg_) self_total += a.self_ns;
  std::printf("layer self-time summary (benchmark-side spans):\n");
  std::printf("  %-22s %10s %12s %12s %7s %12s\n", "span", "calls",
              "host_ms", "self_ms", "self%", "sim_mean_us");
  for (const auto& [name, a] : agg_) {
    std::printf("  %-22s %10llu %12.3f %12.3f %6.1f%% %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(a.n), a.host_ns / 1e6,
                a.self_ns / 1e6,
                self_total > 0 ? 100.0 * static_cast<double>(a.self_ns) /
                                     static_cast<double>(self_total)
                               : 0.0,
                a.async_n > 0 ? static_cast<double>(a.sim_ticks) /
                                    static_cast<double>(a.async_n) / 1000.0
                              : 0.0);
  }
}

LayerSheet::LayerSheet()
    : names_{
          {"sim.events_per_op", "count"},
          {"sim.host_ns_per_event", "ns"},
          {"sim.epochs_per_sim_ms", "count"},
          {"ssd.precondition_s", "s"},
          {"ssd.host_ns_per_io", "ns"},
          {"ssd.write_amp", "ratio"},
          {"ssd.gc_runs_per_kop", "count"},
          {"ssd.buffer_hit_frac", "ratio"},
          {"ssd.device_read_p999_us", "us"},
          {"core.drr_ns_per_io", "ns"},
          {"core.bucket_ns_per_io", "ns"},
          {"core.latmon_ns_per_io", "ns"},
          {"core.writecost_ns_per_io", "ns"},
          {"core.vanilla_ns_per_io", "ns"},
          {"core.gimbal_ns_per_io", "ns"},
          {"core.gimbal_over_vanilla", "ratio"},
          {"core.futil_min", "ratio"},
          {"core.pacing_stalls_per_kop", "count"},
          {"core.congestion_signals_per_kop", "count"},
          {"core.target_queue_us", "us"},
          {"fabric.bytes_per_op", "bytes"},
          {"fabric.uplink_util", "ratio"},
          {"fabric.transit_us", "us"},
          {"kv.bulk_load_s", "s"},
          {"kv.host_us_per_call", "us"},
          {"kv.block_reads_per_get", "count"},
          {"kv.memory_hit_frac", "ratio"},
          {"kv.compaction_bytes_per_put_byte", "ratio"},
          {"kv.puts_per_wal_write", "ratio"},
          {"kv.write_stalls_per_kop", "count"},
          {"workload.kib_per_session", "KiB"},
          {"obs.trace_events_per_op", "count"},
          {"obs.traced_slowdown", "ratio"},
          {"check.checks_per_op", "count"},
      } {
  for (const auto& [name, unit] : names_) values_[name] = 0.0;
}

void LayerSheet::Set(const std::string& name, double value) {
  auto it = values_.find(name);
  if (it == values_.end()) Fail("-", "layer sheet", "unknown metric " + name);
  it->second = value;
}

double LayerSheet::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

}  // namespace perfbench
