// Counter probes and standalone layer loops shared by the workloads.
#include <algorithm>
#include <deque>

#include "baselines/fcfs_policy.h"
#include "core/drr_scheduler.h"
#include "core/latency_monitor.h"
#include "core/token_bucket.h"
#include "core/write_cost.h"
#include "obs/schema.h"
#include "ssd/null_device.h"
#include "workload.h"

namespace perfbench {

using namespace gimbal;

void OpLedger::Complete(uint64_t id, IoStatus status, bool read,
                        uint64_t bytes, Tick latency) {
  if (status != IoStatus::kOk) {
    Fail(workload_, "run", std::string("operation failed with status ") +
                               ToString(status));
  }
  if (outstanding_.erase(id) != 1) {
    Fail(workload_, "check every operation completes once",
         "second completion of operation " + std::to_string(id));
  }
  ++completed_;
  ++round_ops_;
  if (record_) {
    (read ? reads_ : writes_).Add(latency);
    ++window_ops_;
    window_bytes_ += bytes;
  }
}

void OpLedger::CheckAllCompleted() const {
  Expect(outstanding_.empty() && issued_ == completed_, workload_,
         "every operation completes once",
         std::to_string(issued_) + " issued, " + std::to_string(completed_) +
             " completed");
}

SimFigures OpLedger::Figures(Tick window) {
  SimFigures f;
  f.ops = window_ops_;
  f.bytes = window_bytes_;
  f.window = window;
  f.reads = reads_.size();
  f.writes = writes_.size();
  f.read_p50_us = reads_.QuantileUs(0.50);
  f.read_p999_us = reads_.QuantileUs(0.999);
  f.write_p50_us = writes_.QuantileUs(0.50);
  f.write_p999_us = writes_.QuantileUs(0.999);
  return f;
}

double OpLedger::MeanUs() const {
  const double n = static_cast<double>(reads_.size() + writes_.size());
  return n > 0 ? (reads_.MeanUs() * static_cast<double>(reads_.size()) +
                  writes_.MeanUs() * static_cast<double>(writes_.size())) /
                     n
               : 0;
}

BedSnapshot BedSnapshot::Take(workload::Testbed& bed,
                              obs::Observability* obs) {
  BedSnapshot s;
  if (sim::ShardedEngine* eng = bed.engine()) {
    for (int i = 0; i < eng->num_shards(); ++i) {
      s.events += eng->shard(i).events_executed();
    }
    s.epochs = eng->epochs();
  } else {
    s.events = bed.sim().events_executed();
  }
  s.net_bytes = bed.net().bytes_sent();
  s.uplink_bytes = bed.net().uplink_bytes();
  s.checks = bed.checker().checks_run();
  if (obs) s.trace_events = obs->tracer.size() + obs->tracer.dropped();
  for (int i = 0; i < bed.config().num_ssds; ++i) {
    if (ssd::Ssd* d = bed.ssd(i)) {
      const ssd::SsdCounters& c = d->counters();
      s.gc_runs += c.gc_runs;
      s.read_pages += c.read_bytes / d->config().page_bytes;
      s.buffer_hit_pages += c.buffer_hit_pages;
      s.host_pages += d->ftl().stats().host_pages_written;
      s.gc_pages += d->ftl().stats().gc_pages_relocated;
    }
    if (core::GimbalSwitch* sw = bed.gimbal_switch(i)) {
      s.pacing_stalls += sw->stats().pacing_stalls;
      s.congestion_signals += sw->stats().congestion_signals;
    }
  }
  s.now = bed.sim().now();
  return s;
}

void ResetWindowMetrics(workload::Testbed& bed, obs::Observability& obs) {
  bed.FlushObservability();
  obs.metrics.ResetRun(obs.metrics.run());
}

namespace {
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
}  // namespace

void SharedLayers(LayerSheet& sheet, workload::Testbed& bed,
                  obs::Observability& obs, const BedSnapshot& a,
                  const BedSnapshot& b, uint64_t ops, double client_mean_us,
                  int64_t window_host_ns) {
  bed.FlushObservability();
  const double n = static_cast<double>(ops);
  const double events = static_cast<double>(b.events - a.events);
  const double sim_s = ToSec(b.now - a.now);
  sheet.Set("sim.events_per_op", Ratio(events, n));
  sheet.Set("sim.host_ns_per_event",
            Ratio(static_cast<double>(window_host_ns), events));
  sheet.Set("sim.epochs_per_sim_ms",
            Ratio(static_cast<double>(b.epochs - a.epochs), sim_s * 1e3));
  if (b.host_pages > a.host_pages) {
    sheet.Set("ssd.write_amp",
              1.0 + static_cast<double>(b.gc_pages - a.gc_pages) /
                        static_cast<double>(b.host_pages - a.host_pages));
  }
  sheet.Set("ssd.gc_runs_per_kop",
            Ratio(1e3 * static_cast<double>(b.gc_runs - a.gc_runs), n));
  sheet.Set("ssd.buffer_hit_frac",
            Ratio(static_cast<double>(b.buffer_hit_pages - a.buffer_hit_pages),
                  static_cast<double>(b.read_pages - a.read_pages)));
  sheet.Set("core.pacing_stalls_per_kop",
            Ratio(1e3 * static_cast<double>(b.pacing_stalls - a.pacing_stalls),
                  n));
  sheet.Set("core.congestion_signals_per_kop",
            Ratio(1e3 * static_cast<double>(b.congestion_signals -
                                             a.congestion_signals),
                  n));
  // Target and device latency histograms of every (tenant, ssd) series in
  // the window: named tenants below the registry's cardinality cap plus
  // the folded "other" series.
  double target_sum = 0, device_sum = 0, target_n = 0, device_n = 0;
  obs::MetricsRegistry& reg = obs.metrics;
  for (int ssd = 0; ssd < bed.config().num_ssds; ++ssd) {
    for (int32_t t = obs::Labels::kOtherTenant; t < reg.tenant_series_limit();
         ++t) {
      if (t == -1) continue;
      const obs::Labels l = obs::Labels::TenantSsd(t, ssd);
      const obs::Histogram& th = reg.GetHistogram(obs::schema::kTargetLatency, l);
      const obs::Histogram& dh = reg.GetHistogram(obs::schema::kDeviceLatency, l);
      target_sum += th.mean() * static_cast<double>(th.count());
      target_n += static_cast<double>(th.count());
      device_sum += dh.mean() * static_cast<double>(dh.count());
      device_n += static_cast<double>(dh.count());
    }
  }
  const double target_mean_us = Ratio(target_sum, target_n) / 1e3;
  const double device_mean_us = Ratio(device_sum, device_n) / 1e3;
  sheet.Set("core.target_queue_us", target_mean_us - device_mean_us);
  sheet.Set("fabric.bytes_per_op",
            Ratio(static_cast<double>(b.net_bytes - a.net_bytes), n));
  if (bed.net().rack()) {
    sheet.Set("fabric.uplink_util",
              Ratio(static_cast<double>(b.uplink_bytes - a.uplink_bytes),
                    bed.net().uplink_bps() * sim_s));
  }
  if (client_mean_us >= 0) {
    sheet.Set("fabric.transit_us", client_mean_us - target_mean_us);
  }
  sheet.Set("check.checks_per_op",
            Ratio(static_cast<double>(b.checks - a.checks), n));
  sheet.Set("obs.trace_events_per_op",
            Ratio(static_cast<double>(b.trace_events - a.trace_events), n));
}

namespace {

// Keeps results observable so the timed loops are not folded away.
volatile double g_sink = 0;

constexpr int kCoreOps = 400'000;

int64_t TimeDrr(const std::vector<IoRequest>& stream, uint32_t depth) {
  core::GimbalParams p;
  core::WriteCostEstimator wc(p);
  core::DrrScheduler drr(p, wc);
  std::deque<core::DrrScheduler::Scheduled> inflight;
  const int64_t t0 = HostNs();
  for (int i = 0; i < kCoreOps; ++i) {
    drr.Enqueue(stream[static_cast<size_t>(i) % stream.size()]);
    while (inflight.size() < depth) {
      auto s = drr.Dequeue();
      if (!s) break;
      inflight.push_back(*s);
    }
    if (inflight.size() >= depth || drr.queued_total() > 4 * depth) {
      if (inflight.empty()) Fail("-", "core.drr loop", "scheduler stalled");
      drr.OnCompletion(inflight.front().req.tenant, inflight.front().slot_id);
      inflight.pop_front();
    }
  }
  while (!inflight.empty() || drr.queued_total() > 0) {
    while (auto s = drr.Dequeue()) inflight.push_back(*s);
    if (inflight.empty()) Fail("-", "core.drr loop", "scheduler stalled");
    drr.OnCompletion(inflight.front().req.tenant, inflight.front().slot_id);
    inflight.pop_front();
  }
  return HostNs() - t0;
}

int64_t TimeBucket(const std::vector<IoRequest>& stream) {
  core::GimbalParams p;
  core::DualTokenBucket bucket(p);
  const double rate = p.initial_rate;
  const double cost = p.write_cost_worst / 2;
  Tick now = 0;
  double granted = 0;
  const int64_t t0 = HostNs();
  for (int i = 0; i < kCoreOps; ++i) {
    const IoRequest& r = stream[static_cast<size_t>(i) % stream.size()];
    now += static_cast<Tick>(static_cast<double>(r.length) * 1e9 / rate);
    bucket.Update(now, rate, cost);
    if (bucket.HasTokens(r.type, r.length)) {
      bucket.Consume(r.type, r.length);
      granted += 1;
    }
  }
  const int64_t dt = HostNs() - t0;
  g_sink = g_sink + granted;
  return dt;
}

// Device latencies the monitors see: a size-dependent base with jitter,
// fixed per stream position so every timed pass sees the same inputs.
std::vector<Tick> StreamLatencies(const std::vector<IoRequest>& stream) {
  std::vector<Tick> lat(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    const IoRequest& r = stream[i];
    lat[i] = Microseconds(r.type == IoType::kWrite ? 120 : 80) +
             static_cast<Tick>(r.length) * 8 + static_cast<Tick>(r.id % 97) * 1000;
  }
  return lat;
}

int64_t TimeLatencyMonitor(const std::vector<IoRequest>& stream,
                           const std::vector<Tick>& lat) {
  core::GimbalParams p;
  core::LatencyMonitor read(p), write(p);
  double states = 0;
  const int64_t t0 = HostNs();
  for (int i = 0; i < kCoreOps; ++i) {
    const size_t k = static_cast<size_t>(i) % stream.size();
    core::LatencyMonitor& m = stream[k].type == IoType::kRead ? read : write;
    states += static_cast<double>(m.Update(lat[k]));
  }
  const int64_t dt = HostNs() - t0;
  g_sink = g_sink + states;
  return dt;
}

int64_t TimeWriteCost(const std::vector<IoRequest>& stream,
                      const std::vector<Tick>& lat) {
  core::GimbalParams p;
  core::WriteCostEstimator wc(p);
  double weighted = 0;
  const int64_t t0 = HostNs();
  for (int i = 0; i < kCoreOps; ++i) {
    const size_t k = static_cast<size_t>(i) % stream.size();
    const IoRequest& r = stream[k];
    weighted += static_cast<double>(
        wc.WeightedBytes(r.type == IoType::kWrite, r.length));
    wc.PeriodicUpdate(static_cast<double>(lat[k]));
  }
  const int64_t dt = HostNs() - t0;
  g_sink = g_sink + weighted;
  return dt;
}

// Table 1a's harness: the whole submit + complete pipeline of one policy
// over a NULL device, `depth` IOs deep.
template <typename Policy>
int64_t TimePipeline(const std::vector<IoRequest>& stream, uint32_t depth) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 40, Microseconds(1));
  Policy policy(sim, dev);
  uint64_t done = 0;
  policy.set_completion_fn(
      [&done](const IoRequest&, const IoCompletion&) { ++done; });
  const int64_t t0 = HostNs();
  for (int i = 0; i < kCoreOps; ++i) {
    IoRequest r = stream[static_cast<size_t>(i) % stream.size()];
    r.id = static_cast<uint64_t>(i) + 1;
    r.target_arrival = sim.now();
    policy.OnRequest(r);
    if (dev.inflight() >= depth) sim.RunEvents(8);
  }
  sim.Run();
  const int64_t dt = HostNs() - t0;
  if (done != static_cast<uint64_t>(kCoreOps)) {
    Fail("-", "core pipeline loop", "not every request completed");
  }
  return dt;
}

double MedianOf3(int64_t a, int64_t b, int64_t c) {
  return static_cast<double>(std::max(std::min(a, b), std::min(std::max(a, b), c)));
}

}  // namespace

void CoreLoops(const std::vector<IoRequest>& stream, uint32_t depth,
               LayerSheet& sheet) {
  const double n = kCoreOps;
  const std::vector<Tick> lat = StreamLatencies(stream);
  sheet.Set("core.drr_ns_per_io",
            MedianOf3(TimeDrr(stream, depth), TimeDrr(stream, depth),
                      TimeDrr(stream, depth)) / n);
  sheet.Set("core.bucket_ns_per_io",
            MedianOf3(TimeBucket(stream), TimeBucket(stream),
                      TimeBucket(stream)) / n);
  sheet.Set("core.latmon_ns_per_io",
            MedianOf3(TimeLatencyMonitor(stream, lat),
                      TimeLatencyMonitor(stream, lat),
                      TimeLatencyMonitor(stream, lat)) / n);
  sheet.Set("core.writecost_ns_per_io",
            MedianOf3(TimeWriteCost(stream, lat), TimeWriteCost(stream, lat),
                      TimeWriteCost(stream, lat)) / n);
  // Alternate the two pipelines so drift on the host hits both alike.
  int64_t v[3], g[3];
  for (int i = 0; i < 3; ++i) {
    v[i] = TimePipeline<baselines::FcfsPolicy>(stream, depth);
    g[i] = TimePipeline<core::GimbalSwitch>(stream, depth);
  }
  const double vanilla = MedianOf3(v[0], v[1], v[2]) / n;
  const double gimbal = MedianOf3(g[0], g[1], g[2]) / n;
  sheet.Set("core.vanilla_ns_per_io", vanilla);
  sheet.Set("core.gimbal_ns_per_io", gimbal);
  sheet.Set("core.gimbal_over_vanilla", vanilla > 0 ? gimbal / vanilla : 0);
}

}  // namespace perfbench
