// Conservative-lookahead epoch scheduler over per-shard simulators.
//
// A sharded testbed partitions the event space structurally: shard 0 owns
// the client domain (initiators, workers, KV layer, crash timers) and each
// further shard owns one target core together with every SSD pipeline
// mapped onto it (GimbalSwitch/DRR/token bucket, device model, per-core
// FifoResource). Within a shard, events execute exactly as on the serial
// engine — same EventQueue, same (when, seq) ordering contract.
//
// Shards only interact through the fabric: an initiator-to-target
// submission or a target-to-client completion always crosses the modeled
// network and therefore arrives at least NetworkConfig::base_latency after
// it was sent. That minimum is the engine's *lookahead* W, and it makes a
// conservative PDES protocol safe (docs/SIMULATOR.md):
//
//   epoch:    every shard runs its events up to the uniform horizon
//             E = T + W - 1 (T = earliest pending event anywhere); no
//             cross-shard send issued at t >= T can deliver at or
//             before E.
//   barrier:  cross-shard sends buffered during the epoch are folded
//             into the shared link in one canonical order and injected
//             into their destination shards; they all deliver strictly
//             after E.
//
// Adaptive coarsening: an epoch barrier is only *useful* when it has
// sends to replay or when several shards need a common horizon. Right
// after a barrier every outbox is empty, so whenever exactly one shard
// holds pending events the engine runs that shard's uniform sub-epochs
// back to back, calling the barrier hook at each quiet sub-boundary
// (replay is a no-op there) and stopping only once the shard buffers a
// cross-shard send. The executed schedule, the barrier-hook call sequence
// and hence the stitched trace are bit-identical to the uniform engine's;
// only the number of full synchronization rounds (epochs()) drops. On
// sparse cross-shard traffic this collapses most barriers
// (tests/shard_adaptive_test.cc pins both the digest identity and the
// reduction).
//
// Determinism: every epoch steps its active shards one after another in
// index order, horizons and the coarsening decision are pure functions of
// queue states at the barrier, and the barrier replays buffered sends in a
// canonical (send_time, source shard, issue order) order, so the full
// event trace is a pure function of the configuration and seed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/time.h"
#include "sim/simulator.h"

namespace gimbal::sim {

class ShardedEngine : public Simulator::Engine {
 public:
  struct Config {
    Tick lookahead = 0;  // min cross-shard latency; must be > 0
    EventQueue::Impl impl = EventQueue::Impl::kTimingWheel;
    // Coarsen single-shard stretches into one synchronization round (see
    // file comment). The executed schedule is identical either way; false
    // forces a full barrier per uniform epoch, which the adaptive-epoch
    // tests use as the A side of their A/B digest comparison.
    bool adaptive = true;
  };

  ShardedEngine(int num_shards, const Config& config);
  ~ShardedEngine() override;

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  Simulator& shard(int i) { return *shards_[i]; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // Runs at every epoch barrier (no shard stepping) and at every quiet
  // sub-epoch boundary inside a coarsened epoch. The testbed hooks the
  // network's cross-shard replay and its trace batch marks here. Keep it
  // cheap: it runs once per uniform epoch, which is the engine's
  // synchronization constant factor.
  void set_barrier_fn(std::function<void()> fn) { barrier_fn_ = std::move(fn); }

  // Runs once at the end of every EngineRunUntil / EngineRunToIdle, after
  // the final barrier. The testbed defers per-epoch observability work
  // (trace stitching) here, so it is paid per Run, not per epoch.
  void set_run_end_fn(std::function<void()> fn) {
    run_end_fn_ = std::move(fn);
  }

  // Coarsening probe: returns true while cross-shard sends sit buffered in
  // the fabric's outboxes. A coarsened epoch must stop at the first
  // sub-epoch that buffers a send — the destination shard gains an event
  // at send + W and the single-shard premise breaks. Coarsening stays off
  // until this is set; the testbed wires it to fabric::Network.
  void set_pending_sends_fn(std::function<bool()> fn) {
    pending_sends_fn_ = std::move(fn);
  }

  // Simulator::Engine: shard 0 delegates its Run()/RunUntil() here, so
  // `testbed.sim().RunUntil(t)` drives the whole sharded testbed.
  void EngineRunUntil(Tick deadline) override;
  void EngineRunToIdle() override;

  // Full synchronization rounds (replay barriers) so far. Coarsening makes
  // this *smaller* for the same run, never changes the schedule.
  uint64_t epochs() const { return epochs_; }

  // Shard context of the currently-executing event, or -1 / nullptr when
  // no shard event is running (between epochs, or a plain unsharded
  // simulator).
  static int CurrentShard();
  static Simulator* CurrentSim();

 private:
  static constexpr Tick kNone = -1;

  // Computes the uniform horizon for the next epoch from the shards' queue
  // states; returns false when no event is pending at or before
  // `deadline` (kNone = no deadline). Also notes whether exactly one shard
  // holds events, which is what arms coarsening in RunEpoch.
  bool ComputeEpoch(Tick deadline);
  void RunEpoch(Tick deadline);
  // Steps shard `i` up to the current epoch end with its shard context set.
  void Step(int i);
  // Runs the single live shard's uniform sub-epochs back to back until it
  // buffers a send, drains, or passes `deadline`.
  void RunCoarse(Tick deadline);
  void Barrier();
  void RunEnd();

  std::vector<std::unique_ptr<Simulator>> shards_;
  Tick lookahead_;
  bool adaptive_;
  std::function<void()> barrier_fn_;
  std::function<void()> run_end_fn_;
  std::function<bool()> pending_sends_fn_;
  uint64_t epochs_ = 0;

  // Epoch state, recomputed at every barrier.
  std::vector<int> active_;  // shard indices with events in this epoch
  Tick epoch_end_ = 0;
  int sole_live_ = -1;  // the only shard with pending events, or -1
};

}  // namespace gimbal::sim
