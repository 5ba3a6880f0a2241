// Adaptive-epoch matrix for the sharded engine (docs/SIMULATOR.md).
//
// When exactly one shard holds pending events and no cross-shard send is
// buffered, the engine runs that shard's uniform sub-epochs back to back
// instead of taking a full synchronization round at every T + W - 1
// boundary. The contract this suite pins down:
//
//   * digests and epoch counts are identical on both event-queue engines,
//     for sparse and dense cross-shard traffic, across seeds;
//   * coarsening changes how many *synchronization rounds* run, never the
//     schedule: forcing a full barrier per uniform epoch
//     (TestbedConfig::uniform_epochs) reproduces the same digest;
//   * coarsening actually pays: on sparse traffic the adaptive run
//     executes strictly fewer synchronization rounds than the uniform run.
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

constexpr size_t kTraceLimit = 4u << 20;

struct ShardRun {
  uint64_t digest = 0;
  uint64_t epochs = 0;
};

// Sparse: one queue-depth-1 tenant on one of three SSDs — long stretches
// where a single shard owns every pending event. Dense: every SSD loaded
// with a victim + write neighbour, so cross-shard sends buffer in nearly
// every epoch.
ShardRun RunSharded(sim::EventQueue::Impl impl, uint64_t seed, bool sparse,
                    bool uniform_epochs) {
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  TestbedConfig cfg;
  cfg.num_ssds = 3;  // < target cores (4): one pipeline per core shard
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.queue_impl = impl;
  cfg.uniform_epochs = uniform_epochs;
  cfg.obs = &obs;
  cfg.run_label = sparse ? "adaptive_sparse" : "adaptive_dense";
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
  ShardRun out;
  out.digest = obs.tracer.Digest();
  EXPECT_NE(bed.engine(), nullptr) << "testbed unexpectedly unsharded";
  if (bed.engine() != nullptr) out.epochs = bed.engine()->epochs();
  return out;
}

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
  const ShardRun wheel = RunSharded(sim::EventQueue::Impl::kTimingWheel,
                                    p.seed, p.sparse, false);
  const ShardRun heap = RunSharded(sim::EventQueue::Impl::kReferenceHeap,
                                   p.seed, p.sparse, false);
  EXPECT_EQ(wheel.digest, heap.digest)
      << "reference heap diverged from the timing wheel, seed " << p.seed
      << (p.sparse ? " (sparse)" : " (dense)");
  // The epoch chop is a pure function of queue states, so even the
  // barrier count is engine invariant.
  EXPECT_EQ(wheel.epochs, heap.epochs) << "epoch count changed with engine";
}

TEST_P(AdaptiveEpochMatrix, ShardedAdaptiveScheduleEqualsUniformSchedule) {
  const MatrixParam p = GetParam();
  const ShardRun adaptive = RunSharded(sim::EventQueue::Impl::kTimingWheel,
                                       p.seed, p.sparse, false);
  const ShardRun uniform = RunSharded(sim::EventQueue::Impl::kTimingWheel,
                                      p.seed, p.sparse, true);
  EXPECT_EQ(adaptive.digest, uniform.digest)
      << "coarsening changed the schedule, seed " << p.seed
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

TEST(AdaptiveEpochMatrix, ShardedCoarseningReducesBarriersOnSparseTraffic) {
  const ShardRun adaptive =
      RunSharded(sim::EventQueue::Impl::kTimingWheel, 1u, true, false);
  const ShardRun uniform =
      RunSharded(sim::EventQueue::Impl::kTimingWheel, 1u, true, true);
  EXPECT_LT(adaptive.epochs, uniform.epochs)
      << "coarsening did not reduce the synchronization-round count";
}

}  // namespace
}  // namespace gimbal
