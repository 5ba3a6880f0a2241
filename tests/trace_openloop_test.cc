// Tests for the open-loop (Poisson) worker, the timeslice baseline, and
// inline small-write capsules.
#include <gtest/gtest.h>

#include "baselines/timeslice_policy.h"
#include "ssd/null_device.h"
#include "workload/openloop.h"
#include "workload/runner.h"

namespace gimbal::workload {
namespace {

TestbedConfig NullBed(Scheme s = Scheme::kVanilla) {
  TestbedConfig cfg;
  cfg.scheme = s;
  cfg.use_null_device = true;
  return cfg;
}

TEST(OpenLoop, OfferedRateApproximatelyDelivered) {
  Testbed bed(NullBed());
  fabric::Initiator& init = bed.AddInitiator(0);
  OpenLoopSpec spec;
  spec.offered_iops = 20'000;
  spec.region_bytes = 1 << 30;
  WorkerStats stats;
  OpenLoopWorker w(bed.sim(), init, spec, stats);
  w.Start();
  bed.sim().RunUntil(Seconds(1));
  w.Stop();
  // Null device absorbs everything: completions ~ arrivals ~ offered rate.
  EXPECT_NEAR(static_cast<double>(stats.total_ios()), 20'000, 1'000);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(OpenLoop, ArrivalsIndependentOfCompletions) {
  // A saturated device cannot slow an open loop down: outstanding grows
  // and the cap eventually sheds arrivals instead of throttling them.
  TestbedConfig cfg;
  cfg.scheme = Scheme::kVanilla;
  cfg.ssd.logical_bytes = 128ull << 20;
  Testbed bed(cfg);
  fabric::Initiator& init = bed.AddInitiator(0);
  OpenLoopSpec spec;
  spec.offered_iops = 2'000'000;  // 5x the device's 4K read capacity
  spec.region_bytes = bed.device(0).capacity_bytes();
  spec.max_outstanding = 512;
  WorkerStats stats;
  OpenLoopWorker w(bed.sim(), init, spec, stats);
  w.Start();
  bed.sim().RunUntil(Milliseconds(100));
  w.Stop();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_LE(w.outstanding(), 512u);
}

TEST(OpenLoop, LatencyExplodesPastKnee) {
  auto p99_at = [](double iops) {
    TestbedConfig cfg;
    cfg.scheme = Scheme::kVanilla;
    cfg.ssd.logical_bytes = 128ull << 20;
    Testbed bed(cfg);
    fabric::Initiator& init = bed.AddInitiator(0);
    OpenLoopSpec spec;
    spec.offered_iops = iops;
    spec.region_bytes = bed.device(0).capacity_bytes();
    WorkerStats stats;
    OpenLoopWorker w(bed.sim(), init, spec, stats);
    w.Start();
    bed.sim().RunUntil(Milliseconds(400));
    return stats.read_latency.p99();
  };
  // Device 4K read capacity ~400K IOPS: 200K is comfortable, 500K is past
  // the knee — open-loop latency must blow up by an order of magnitude.
  EXPECT_GT(p99_at(500'000), 10 * p99_at(200'000));
}

// ---------------------------------------------------------------------------
// Timeslice baseline
// ---------------------------------------------------------------------------

TEST(Timeslice, ExclusiveSlices) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(50));
  baselines::TimesliceParams params;
  params.quantum = Milliseconds(1);
  baselines::TimeslicePolicy policy(sim, dev, params);
  std::vector<TenantId> order;
  policy.set_completion_fn([&](const IoRequest& r, const IoCompletion&) {
    order.push_back(r.tenant);
  });
  uint64_t id = 0;
  for (int i = 0; i < 30; ++i) {
    for (TenantId t : {1u, 2u}) {
      IoRequest r;
      r.id = ++id;
      r.tenant = t;
      r.type = IoType::kRead;
      r.length = 4096;
      policy.OnRequest(r);
    }
  }
  sim.Run();
  ASSERT_EQ(order.size(), 60u);
  // Service comes in long single-tenant runs, not interleaved.
  int switches = 0;
  for (size_t i = 1; i < order.size(); ++i) {
    if (order[i] != order[i - 1]) ++switches;
  }
  EXPECT_LE(switches, 4);
}

TEST(Timeslice, ResponsivenessPenaltyUnderConsolidation) {
  // §2.3's critique: with many tenants, a newcomer waits ~N x quantum.
  TestbedConfig cfg;
  cfg.scheme = Scheme::kTimeslice;
  cfg.timeslice.quantum = Milliseconds(2);
  cfg.ssd.logical_bytes = 128ull << 20;
  Testbed bed(cfg);
  for (int i = 0; i < 8; ++i) {
    FioSpec spec;
    spec.io_bytes = 4096;
    spec.queue_depth = 16;
    spec.seed = static_cast<uint64_t>(i) + 1;
    bed.AddWorker(spec);
  }
  bed.Run(Milliseconds(200), Milliseconds(400));
  LatencyHistogram all;
  for (auto& w : bed.workers()) all.Merge(w->stats().read_latency);
  // 8 tenants x 2 ms quantum: p99 ~ a full rotation, far above what the
  // same load costs under Gimbal (sub-3 ms, Fig 8-style).
  EXPECT_GT(all.p99(), Milliseconds(8));
}

TEST(Timeslice, WorkConservingWhenSingleTenant) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kTimeslice;
  cfg.ssd.logical_bytes = 128ull << 20;
  Testbed bed(cfg);
  FioSpec spec;
  spec.io_bytes = 4096;
  spec.queue_depth = 32;
  FioWorker& w = bed.AddWorker(spec);
  bed.Run(Milliseconds(200), Milliseconds(400));
  double mbps = BytesToMiB(w.stats().total_bytes()) / ToSec(bed.measured());
  EXPECT_GT(mbps, 700);  // a lone tenant gets the device continuously
}

// ---------------------------------------------------------------------------
// Inline small-write capsules
// ---------------------------------------------------------------------------

TEST(InlineWrite, SmallWriteSkipsRdmaRead) {
  Testbed bed(NullBed());
  fabric::Initiator& init = bed.AddInitiator(0);
  Tick small_lat = 0, large_lat = 0;
  init.Submit(IoType::kWrite, 0, 4096, IoPriority::kNormal,
              [&](const IoCompletion&, Tick l) { small_lat = l; });
  bed.sim().Run();
  init.Submit(IoType::kWrite, 0, 8192, IoPriority::kNormal,
              [&](const IoCompletion&, Tick l) { large_lat = l; });
  bed.sim().Run();
  // The 8K write pays the RDMA control+data round trip (~2 extra
  // base-latency hops); the inlined 4K one does not.
  EXPECT_GT(large_lat, small_lat + Microseconds(8));
}

}  // namespace
}  // namespace gimbal::workload
