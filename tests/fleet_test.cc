// Tests for the tenant-scale open-loop fleet (src/workload/fleet.h) and the
// per-tenant arena plumbing underneath it:
//
//   * churn storm — ~100k connect/disconnect cycles on a 2-SSD
//     testbed must drain to nothing: no live target sessions, no scheduler
//     tenants, every arena slot recycled, ledgers balanced;
//   * weight-leak regression — SetTenantWeight + Disconnect must reap the
//     whole tenant slot (the weight once lived in a side map the
//     disconnect path forgot to clear);
//   * SLO export — the tracker's p99/p99.9 gauges and violation counters
//     appear in the metrics JSON under their documented names;
//   * footprint and accounting — a worker carries no histogram of its own,
//     and the fleet-wide record is self-consistent under churn.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/drr_scheduler.h"
#include "core/write_cost.h"
#include "obs/obs.h"
#include "obs/schema.h"
#include "workload/fleet.h"
#include "workload/openloop.h"
#include "workload/runner.h"

namespace gimbal::workload {
namespace {

TestbedConfig ChurnConfig(obs::Observability* obs) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.num_ssds = 2;
  cfg.ssd.logical_bytes = 64ull << 20;
  cfg.obs = obs;
  cfg.run_label = "fleet_churn";
  return cfg;
}

FleetSpec ChurnSpec() {
  FleetSpec fs;
  // Seats * (run / lifetime) ≈ 4000 * 25 churn cycles ≈ 100k
  // connect/disconnect pairs; most sessions are too short to issue IO, so
  // the storm stresses the session/tenant bookkeeping, not the device.
  fs.sessions = 4000;
  fs.rates.mean_iops = 20.0;
  fs.rates.dist = RateDist::kPareto;
  fs.session_lifetime_mean = Milliseconds(2);
  fs.rampup = Milliseconds(2);
  fs.read_ratio = 0.7;  // writes exercise the staging/disconnect race
  fs.seed = 99;
  return fs;
}

TEST(FleetChurn, StormDrainsClean) {
  obs::Observability obs;
  Testbed bed(ChurnConfig(&obs));
  OpenLoopFleet fleet(bed, ChurnSpec());
  fleet.Start();
  bed.sim().RunUntil(Milliseconds(50));
  fleet.Stop();
  // Run to idle: the storm's capsule backlog on the shared link can take
  // far longer than any fixed deadline to drain.
  bed.sim().Run();

  EXPECT_GE(fleet.connects(), 90000u) << "storm did not reach ~100k cycles";
  EXPECT_EQ(fleet.connects(), fleet.disconnects());
  EXPECT_EQ(fleet.active_sessions(), 0u);
  EXPECT_EQ(fleet.SweepGraveyard(), 0u) << "initiators still draining";

  // The target forgot nobody: every session slot was freed and recycled.
  EXPECT_EQ(bed.target().live_sessions(), 0u);

  // Every scheduler reaped every tenant, and the arenas recycled every
  // slot they ever carved (live + free == capacity, live == 0).
  for (int i = 0; i < bed.config().num_ssds; ++i) {
    core::GimbalSwitch* sw = bed.gimbal_switch(i);
    EXPECT_NE(sw, nullptr);
    if (sw == nullptr) continue;
    const core::DrrScheduler& drr = sw->scheduler();
    EXPECT_EQ(drr.tenant_count(), 0u) << "ssd " << i;
    EXPECT_EQ(drr.queued_total(), 0u) << "ssd " << i;
    EXPECT_EQ(drr.tenant_arena().size(), 0u) << "ssd " << i;
    EXPECT_EQ(drr.tenant_arena().capacity(),
              drr.tenant_arena().free_count())
        << "orphaned arena slots on ssd " << i;
  }

  // Ledger balance across the whole storm (admit == terminal everywhere).
  EXPECT_TRUE(bed.checker().CheckDrained());
}

TEST(DrrScheduler, DisconnectReapsWeightedTenant) {
  // Regression: the service weight used to live in a side map that
  // Disconnect never erased, so a weighted tenant leaked an entry per
  // churn cycle. Weights now ride in the arena slot and are reaped with
  // it.
  core::GimbalParams params;
  core::WriteCostEstimator cost(params);
  core::DrrScheduler drr(params, cost);
  for (TenantId t = 1; t <= 1000; ++t) {
    drr.SetTenantWeight(t, 4.0);
    EXPECT_EQ(drr.TenantWeight(t), 4.0);
    drr.Disconnect(t);
  }
  EXPECT_EQ(drr.tenant_count(), 0u);
  EXPECT_EQ(drr.tenant_arena().size(), 0u);
  EXPECT_EQ(drr.tenant_arena().capacity(), drr.tenant_arena().free_count());
  // A reaped tenant's weight reverts to the default.
  EXPECT_EQ(drr.TenantWeight(1), 1.0);
}

TEST(Slo, MetricsAppearInJsonExport) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 64ull << 20;
  Testbed bed(cfg);

  FleetSpec fs;
  fs.sessions = 16;
  fs.rates.dist = RateDist::kUniform;
  fs.rates.mean_iops = 2000.0;
  fs.seed = 5;
  fs.slo.read_p99 = Microseconds(1);  // absurdly tight: every window violates
  fs.slo.read_p999 = Microseconds(2);
  fs.slo.write_p99 = Microseconds(1);
  fs.slo.window = Milliseconds(1);
  OpenLoopFleet fleet(bed, fs);
  fleet.Start();
  bed.sim().RunUntil(Milliseconds(20));
  fleet.Stop();
  bed.sim().RunUntil(bed.sim().now() + Milliseconds(5));

  EXPECT_GT(fleet.slo().windows(), 0u);
  EXPECT_GT(fleet.slo().windows_violated(), 0u);
  EXPECT_GT(fleet.slo().time_in_violation(), 0u);

  obs::MetricsRegistry reg;
  fleet.ExportSlo(reg);
  const std::string json = reg.ToJson();
  for (const obs::MetricDef* def :
       {&obs::schema::kSloWindows, &obs::schema::kSloWindowsViolated,
        &obs::schema::kSloReadP99, &obs::schema::kSloReadP999,
        &obs::schema::kSloTimeInViolation, &obs::schema::kSloReadLatency}) {
    EXPECT_NE(json.find(def->name), std::string::npos)
        << "metric " << def->name << " missing from JSON export";
  }
}

TEST(FleetStats, WorkerCarriesNoHistogram) {
  // Every session records into the fleet's one WorkerStats; a histogram
  // per session (two were ~30 KiB) must not creep back into the worker.
  EXPECT_LE(sizeof(OpenLoopWorker), 1024u);
}

void ExpectSameHistogram(const LatencyHistogram& a, const LatencyHistogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.p50(), b.p50());
  EXPECT_EQ(a.p999(), b.p999());
}

TEST(FleetStats, ChurnTotalsAreConsistent) {
  Testbed bed(ChurnConfig(nullptr));
  FleetSpec fs = ChurnSpec();
  fs.sessions = 500;
  fs.rates.mean_iops = 2000.0;
  fs.session_lifetime_mean = Milliseconds(5);
  OpenLoopFleet fleet(bed, fs);
  fleet.Start();
  bed.sim().RunUntil(Milliseconds(20));

  // Reading the totals mid-run changes nothing.
  const OpenLoopFleet::Totals mid = fleet.TotalStats();
  const OpenLoopFleet::Totals again = fleet.TotalStats();
  EXPECT_EQ(mid.stats.read_ios, again.stats.read_ios);
  EXPECT_EQ(mid.stats.write_ios, again.stats.write_ios);
  EXPECT_EQ(mid.stats.total_bytes(), again.stats.total_bytes());
  EXPECT_EQ(mid.stats.failed_ios, again.stats.failed_ios);
  EXPECT_EQ(mid.dropped, again.dropped);
  ExpectSameHistogram(mid.stats.read_latency, again.stats.read_latency);
  ExpectSameHistogram(mid.stats.write_latency, again.stats.write_latency);
  EXPECT_GT(mid.stats.total_ios(), 0u);
  EXPECT_GT(fleet.disconnects(), 0u) << "no session churned";

  bed.sim().RunUntil(Milliseconds(40));
  fleet.Stop();
  bed.sim().Run();
  EXPECT_EQ(fleet.SweepGraveyard(), 0u);

  // The histograms hold exactly the counted completions.
  const OpenLoopFleet::Totals end = fleet.TotalStats();
  EXPECT_GT(end.stats.total_ios(), mid.stats.total_ios());
  EXPECT_GT(end.stats.write_ios, 0u);
  EXPECT_EQ(end.stats.read_latency.count(), end.stats.read_ios);
  EXPECT_EQ(end.stats.write_latency.count(), end.stats.write_ios);

  // The switches complete every IO; the clients count only those that
  // landed while their session was live, never more.
  uint64_t completions = 0;
  for (int i = 0; i < bed.config().num_ssds; ++i) {
    completions += bed.gimbal_switch(i)->stats().completions;
  }
  EXPECT_LE(end.stats.total_ios(), completions);
}

}  // namespace
}  // namespace gimbal::workload
