// Determinism golden tests (docs/SIMULATOR.md).
//
// Runs whole testbeds — a Fig-4-style interference scenario and a faulted
// scenario exercising stalls, media errors, link flaps, a device failure
// and a tenant crash — with the event tracer on, and hashes the full event
// trace (timestamp, event name, tenant, ssd, args) into one digest. For
// each seed the digest must be
//
//   * identical run-to-run (the simulation is deterministic), and
//   * identical between the timing-wheel event queue and the reference
//     binary heap (the hot-path overhaul changed no simulated result).
//
// Any ordering bug in the timing wheel, any stray RNG draw, or any event
// scheduled differently between the engines changes the digest. A testbed
// advanced in many RunUntil slices must also record the same trace as one
// advanced in a single call.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "obs/obs.h"
#include "sim/event_queue.h"
#include "workload/runner.h"

namespace gimbal {
namespace {

using workload::FioSpec;
using workload::Scheme;
using workload::SsdCondition;
using workload::Testbed;
using workload::TestbedConfig;

// Large enough that neither scenario ever drops events; a drop would only
// weaken the digest, but dropped() is hashed too, so check it anyway.
constexpr size_t kTraceLimit = 4u << 20;

uint64_t InterferenceDigest(sim::EventQueue::Impl impl, uint64_t seed) {
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.queue_impl = impl;
  cfg.obs = &obs;
  cfg.run_label = "determinism";
  Testbed bed(cfg);
  // Fig 4's shape, shrunk: a 4KB random-read victim sharing the SSD with a
  // 128KB write neighbour — exercises the DRR, pacing pokes, write staging
  // and the credit feedback loop.
  FioSpec victim;
  victim.io_bytes = 4096;
  victim.queue_depth = 32;
  victim.seed = seed;
  bed.AddWorker(victim);
  FioSpec neighbor;
  neighbor.io_bytes = 131072;
  neighbor.queue_depth = 8;
  neighbor.read_ratio = 0.0;
  neighbor.seed = seed + 1000;
  bed.AddWorker(neighbor);
  bed.Run(Milliseconds(10), Milliseconds(30));
  EXPECT_EQ(obs.tracer.dropped(), 0u);
  return obs.tracer.Digest();
}

uint64_t FaultedDigest(sim::EventQueue::Impl impl, uint64_t seed) {
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.queue_impl = impl;
  cfg.obs = &obs;
  cfg.run_label = "determinism_faults";
  cfg.fault_seed = seed;
  cfg.retry.io_timeout = Milliseconds(2);
  cfg.retry.keepalive_interval = Milliseconds(1);
  cfg.target.session_timeout = Milliseconds(5);
  cfg.faults.stalls.push_back(
      {0, Milliseconds(10), Milliseconds(18), Microseconds(500)});
  cfg.faults.media_errors.push_back(
      {0, Milliseconds(20), Milliseconds(28), 0.1, Microseconds(200)});
  cfg.faults.link_flaps.push_back(
      {Milliseconds(24), Milliseconds(27), 0.05, Microseconds(10)});
  cfg.faults.failures.push_back({0, Milliseconds(30), Milliseconds(34)});
  Testbed bed(cfg);
  for (int i = 0; i < 2; ++i) {
    FioSpec spec;
    spec.io_bytes = 4096;
    spec.queue_depth = 8;
    spec.seed = seed + 100 * static_cast<uint64_t>(i + 1);
    bed.AddWorker(spec, 0);
  }
  // One tenant crashes mid-run: exercises timeout timers, the keepalive
  // and the target's session reaper on top of the fault windows.
  fabric::Initiator& crasher = bed.workers()[0]->initiator();
  bed.faults().ScheduleTenantCrash(Milliseconds(22), crasher.tenant(),
                                   [&crasher]() { crasher.Crash(); });
  for (auto& w : bed.workers()) w->Start();
  bed.sim().RunUntil(Milliseconds(45));
  for (auto& w : bed.workers()) w->Stop();
  for (auto& ini : bed.initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  bed.sim().Run();
  EXPECT_EQ(obs.tracer.dropped(), 0u);
  return obs.tracer.Digest();
}

// Multi-SSD testbed: every pipeline and the client domain share one event
// queue and one fabric link per direction. Dense loads every SSD with a
// victim and a write neighbour; sparse runs one queue-depth-1 tenant on one
// of three SSDs, so the other pipelines idle for long stretches.
uint64_t MultiSsdDigest(sim::EventQueue::Impl impl, uint64_t seed,
                       bool sparse = false) {
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  TestbedConfig cfg;
  cfg.num_ssds = 3;  // < target cores (4): one pipeline per core
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.queue_impl = impl;
  cfg.obs = &obs;
  cfg.run_label = "determinism_sharded";
  Testbed bed(cfg);
  if (sparse) {
    FioSpec lone;
    lone.io_bytes = 131072;
    lone.queue_depth = 1;
    lone.seed = seed;
    bed.AddWorker(lone, 0);
  } else {
    for (int s = 0; s < cfg.num_ssds; ++s) {
      FioSpec victim;
      victim.io_bytes = 4096;
      victim.queue_depth = 16;
      victim.seed = seed + static_cast<uint64_t>(s);
      bed.AddWorker(victim, s);
      FioSpec neighbor;
      neighbor.io_bytes = 131072;
      neighbor.queue_depth = 4;
      neighbor.read_ratio = 0.0;
      neighbor.seed = seed + 1000 + static_cast<uint64_t>(s);
      bed.AddWorker(neighbor, s);
    }
  }
  bed.Run(Milliseconds(5), Milliseconds(15));
  EXPECT_EQ(obs.tracer.dropped(), 0u);
  return obs.tracer.Digest();
}

// The faulted multi-SSD variant: per-SSD fault RNG streams, link-flap draws
// on the shared link, a device failure on one SSD and a tenant crash timer
// on the client side.
uint64_t MultiSsdFaultedDigest(sim::EventQueue::Impl impl, uint64_t seed) {
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  TestbedConfig cfg;
  cfg.num_ssds = 2;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.queue_impl = impl;
  cfg.obs = &obs;
  cfg.run_label = "determinism_sharded_faults";
  cfg.fault_seed = seed;
  cfg.retry.io_timeout = Milliseconds(2);
  cfg.retry.keepalive_interval = Milliseconds(1);
  cfg.target.session_timeout = Milliseconds(5);
  cfg.faults.stalls.push_back(
      {0, Milliseconds(8), Milliseconds(14), Microseconds(500)});
  cfg.faults.media_errors.push_back(
      {1, Milliseconds(12), Milliseconds(20), 0.1, Microseconds(200)});
  cfg.faults.link_flaps.push_back(
      {Milliseconds(16), Milliseconds(19), 0.05, Microseconds(10)});
  cfg.faults.failures.push_back({0, Milliseconds(22), Milliseconds(26)});
  Testbed bed(cfg);
  for (int s = 0; s < cfg.num_ssds; ++s) {
    FioSpec spec;
    spec.io_bytes = 4096;
    spec.queue_depth = 8;
    spec.seed = seed + 100 * static_cast<uint64_t>(s + 1);
    bed.AddWorker(spec, s);
  }
  fabric::Initiator& crasher = bed.workers()[0]->initiator();
  bed.faults().ScheduleTenantCrash(Milliseconds(18), crasher.tenant(),
                                   [&crasher]() { crasher.Crash(); });
  for (auto& w : bed.workers()) w->Start();
  bed.sim().RunUntil(Milliseconds(32));
  for (auto& w : bed.workers()) w->Stop();
  for (auto& ini : bed.initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  bed.sim().Run();
  EXPECT_EQ(obs.tracer.dropped(), 0u);
  return obs.tracer.Digest();
}

class DeterminismGolden : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeterminismGolden, InterferenceTraceDigestIsStable) {
  const uint64_t seed = GetParam();
  const uint64_t wheel1 =
      InterferenceDigest(sim::EventQueue::Impl::kTimingWheel, seed);
  const uint64_t wheel2 =
      InterferenceDigest(sim::EventQueue::Impl::kTimingWheel, seed);
  EXPECT_EQ(wheel1, wheel2) << "timing wheel not deterministic, seed "
                            << seed;
  const uint64_t heap =
      InterferenceDigest(sim::EventQueue::Impl::kReferenceHeap, seed);
  EXPECT_EQ(wheel1, heap)
      << "timing wheel and reference heap diverged, seed " << seed;
}

TEST_P(DeterminismGolden, FaultedTraceDigestIsStable) {
  const uint64_t seed = GetParam();
  const uint64_t wheel1 =
      FaultedDigest(sim::EventQueue::Impl::kTimingWheel, seed);
  const uint64_t wheel2 =
      FaultedDigest(sim::EventQueue::Impl::kTimingWheel, seed);
  EXPECT_EQ(wheel1, wheel2) << "timing wheel not deterministic, seed "
                            << seed;
  const uint64_t heap =
      FaultedDigest(sim::EventQueue::Impl::kReferenceHeap, seed);
  EXPECT_EQ(wheel1, heap)
      << "timing wheel and reference heap diverged, seed " << seed;
}

TEST_P(DeterminismGolden, ShardedTraceDigestIsStable) {
  const uint64_t seed = GetParam();
  const uint64_t wheel1 =
      MultiSsdDigest(sim::EventQueue::Impl::kTimingWheel, seed);
  const uint64_t wheel2 =
      MultiSsdDigest(sim::EventQueue::Impl::kTimingWheel, seed);
  EXPECT_EQ(wheel1, wheel2) << "multi-SSD wheel not deterministic, seed "
                            << seed;
  const uint64_t heap =
      MultiSsdDigest(sim::EventQueue::Impl::kReferenceHeap, seed);
  EXPECT_EQ(wheel1, heap)
      << "multi-SSD timing wheel and reference heap diverged, seed " << seed;
}

TEST_P(DeterminismGolden, ShardedFaultedTraceDigestIsStable) {
  const uint64_t seed = GetParam();
  const uint64_t wheel1 =
      MultiSsdFaultedDigest(sim::EventQueue::Impl::kTimingWheel, seed);
  const uint64_t wheel2 =
      MultiSsdFaultedDigest(sim::EventQueue::Impl::kTimingWheel, seed);
  EXPECT_EQ(wheel1, wheel2) << "multi-SSD wheel not deterministic, seed "
                            << seed;
  const uint64_t heap =
      MultiSsdFaultedDigest(sim::EventQueue::Impl::kReferenceHeap, seed);
  EXPECT_EQ(wheel1, heap)
      << "multi-SSD timing wheel and reference heap diverged, seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismGolden,
                         ::testing::Values(1u, 7u, 42u));

// Wheel == heap on the 3-SSD bed, sparse and dense traffic, three seeds.
// The suite keeps the name it had when multi-SSD beds ran on a sharded
// epoch engine, so its cases stay trackable across commits.
struct MatrixParam {
  uint64_t seed;
  bool sparse;
};

std::string Name(const MatrixParam& p) {
  return "seed" + std::to_string(p.seed) + (p.sparse ? "_sparse" : "_dense");
}
// The name generator alone is not enough: gtest also prints the parameter
// next to the name, and a struct with padding would print as a byte dump.
void PrintTo(const MatrixParam& p, std::ostream* os) { *os << Name(p); }

class AdaptiveEpochMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(AdaptiveEpochMatrix, ShardedHeapScheduleEqualsWheelSchedule) {
  const MatrixParam p = GetParam();
  const uint64_t wheel =
      MultiSsdDigest(sim::EventQueue::Impl::kTimingWheel, p.seed, p.sparse);
  const uint64_t heap =
      MultiSsdDigest(sim::EventQueue::Impl::kReferenceHeap, p.seed, p.sparse);
  EXPECT_EQ(wheel, heap)
      << "reference heap diverged from the timing wheel, seed " << p.seed
      << (p.sparse ? " (sparse)" : " (dense)");
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, AdaptiveEpochMatrix,
    ::testing::Values(MatrixParam{1u, true}, MatrixParam{7u, true},
                      MatrixParam{42u, true}, MatrixParam{1u, false},
                      MatrixParam{7u, false}, MatrixParam{42u, false}),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      return Name(info.param);
    });

// A traced 2-SSD testbed advanced in 200 RunUntil slices records the same
// trace and runs the same events as one RunUntil over the same window:
// RunUntil has no per-call work that could reorder, drop or duplicate
// trace events.
struct TraceRun {
  uint64_t digest = 0;
  size_t trace_events = 0;
  uint64_t sim_events = 0;
};

TraceRun SlicedRun(int slices) {
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  TestbedConfig cfg;
  cfg.num_ssds = 2;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.obs = &obs;
  cfg.run_label = "determinism_sliced";
  Testbed bed(cfg);
  for (int s = 0; s < cfg.num_ssds; ++s) {
    FioSpec victim;
    victim.io_bytes = 4096;
    victim.queue_depth = 16;
    victim.seed = 5 + static_cast<uint64_t>(s);
    bed.AddWorker(victim, s);
    FioSpec neighbor;
    neighbor.io_bytes = 131072;
    neighbor.queue_depth = 4;
    neighbor.read_ratio = 0.0;
    neighbor.seed = 1005 + static_cast<uint64_t>(s);
    bed.AddWorker(neighbor, s);
  }
  for (auto& w : bed.workers()) w->Start();
  const Tick window = Milliseconds(10);
  for (int i = 1; i <= slices; ++i) bed.sim().RunUntil(window * i / slices);
  EXPECT_EQ(obs.tracer.dropped(), 0u);
  return TraceRun{obs.tracer.Digest(), obs.tracer.size(),
                  bed.sim().events_executed()};
}

TEST(DeterminismGolden, SlicedRunUntilMatchesOneRunUntil) {
  const TraceRun one = SlicedRun(1);
  const TraceRun sliced = SlicedRun(200);
  EXPECT_GT(one.trace_events, 0u);
  EXPECT_EQ(sliced.digest, one.digest);
  EXPECT_EQ(sliced.trace_events, one.trace_events);
  EXPECT_EQ(sliced.sim_events, one.sim_events);
}

// Digests must also *differ* when the workload differs — a constant hash
// would pass the equality tests above while checking nothing.
TEST(DeterminismGolden, DigestDiscriminatesDifferentRuns) {
  const uint64_t a =
      InterferenceDigest(sim::EventQueue::Impl::kTimingWheel, 1);
  const uint64_t b =
      InterferenceDigest(sim::EventQueue::Impl::kTimingWheel, 2);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace gimbal
