// Fabric network model for NVMe-oF/RDMA traffic.
//
// Models the storage node's NIC as a full-duplex shared link: messages
// serialize on the direction's bandwidth and then experience a fixed
// propagation/switching latency. Capsules are 64 B; RDMA data moves in
// messages of the IO's size (§2.1's five-step request flow is built from
// these primitives by the target).
//
// Two execution modes share one visible contract:
//
//   * Plain (default): Send() acquires the direction's FifoResource
//     immediately, exactly as before the sharded engine existed.
//   * Sharded (ConfigureSharded): Send() buffers the message in a
//     per-source-shard outbox, and at every epoch barrier ReplayPending()
//     folds all buffered messages into the shared link in one canonical
//     order — (send time, source shard, per-shard issue order) — keeping
//     per-direction FIFO serialization state across epochs. Deliveries
//     land on the destination shard's queue at
//     serialization end + base_latency, which the engine's lookahead
//     guarantees is never in any shard's past (docs/SIMULATOR.md).
//
// Because the canonical replay order is a pure function of simulated
// times and shard structure, the resulting schedule is bit-identical for
// any worker-thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "sim/resource.h"
#include "sim/shard.h"
#include "sim/simulator.h"

namespace gimbal::check {
class InvariantChecker;
}  // namespace gimbal::check

namespace gimbal::fabric {

struct NetworkConfig {
  double bandwidth_bps = 100e9 / 8;       // 100 Gbps, in bytes/sec
  Tick base_latency = Microseconds(5);    // NIC + switch + propagation
};

enum class Direction { kClientToTarget, kTargetToClient };

constexpr uint32_t kCapsuleBytes = 64;      // command/completion capsule
constexpr uint32_t kRdmaControlBytes = 16;  // RDMA_READ request header

class Network {
 public:
  Network(sim::Simulator& sim, NetworkConfig config = {})
      : sim_(sim), config_(config), c2t_(sim), t2c_(sim) {}

  // Deliver a `bytes`-sized message in `dir`; `deliver` runs after
  // serialization on the shared link plus the base latency. `ssd`
  // identifies the target-side pipeline the message belongs to — it picks
  // the destination shard in sharded mode (client-to-target lands on the
  // pipeline's shard; target-to-client always lands on the client shard)
  // and is ignored in plain mode. During a scheduled link flap
  // (docs/FAULTS.md) the message may be silently dropped — recovery is
  // the initiator's per-IO timeout — or delayed.
  void Send(Direction dir, int ssd, uint64_t bytes, sim::EventFn deliver) {
    if (!ssd_sims_.empty()) {
      BufferSend(dir, ssd, bytes, std::move(deliver));
      return;
    }
    Tick fault_delay = 0;
    if (faults_) {
      const fault::FaultInjector::LinkFault lf =
          faults_->OnLinkMessage(sim_.now());
      if (lf.drop) {
        ++messages_dropped_;
        return;
      }
      fault_delay = lf.extra_delay;
    }
    if (rack()) {
      SendRackPlain(dir, node_of(ssd), bytes,
                    config_.base_latency + fault_delay, std::move(deliver));
      return;
    }
    sim::FifoResource& link =
        dir == Direction::kClientToTarget ? c2t_ : t2c_;
    bytes_sent_ += bytes;
    // Serialize on the link, then the base latency elapses off-link; the
    // deferred form hands `deliver` through unwrapped so the schedule
    // path stays allocation-free.
    link.AcquireDeferred(TransferTime(bytes, config_.bandwidth_bps),
                         config_.base_latency + fault_delay,
                         std::move(deliver));
  }

  // Compatibility form for direct unit-test use; routes like ssd 0.
  void Send(Direction dir, uint64_t bytes, sim::EventFn deliver) {
    Send(dir, 0, bytes, std::move(deliver));
  }

  // Enter sharded mode: client-to-target messages for pipeline i deliver
  // onto `ssd_sims[i]`, target-to-client messages onto `client_sim`.
  // `client_sim` must be the engine's shard 0.
  void ConfigureSharded(sim::Simulator* client_sim,
                        std::vector<sim::Simulator*> ssd_sims,
                        int num_shards) {
    client_sim_ = client_sim;
    ssd_sims_ = std::move(ssd_sims);
    outbox_.resize(static_cast<size_t>(num_shards));
  }

  // Fold every buffered cross-shard message into the shared link in
  // canonical order and schedule its delivery. Runs on the control thread
  // at epoch barriers, while all shards are quiescent. Returns the number
  // of messages replayed.
  //
  // The replay is a k-way merge over the per-source outboxes (each is
  // time-sorted: shard clocks are monotone within an epoch) with link
  // frontiers held in locals for the whole batch and uplink byte
  // accounting folded per (batch, node) rather than per message — the
  // conservation invariant is still checked against the post-batch sums.
  size_t ReplayPending();

  // True while buffered cross-shard sends await replay. The sharded
  // engine's coarsening probe: a coarsened epoch must end at the first
  // sub-epoch that buffers a send (sim/shard.h). Called only on the
  // control thread while no shard is stepping, so it may read every
  // outbox.
  bool has_pending() const {
    for (const auto& box : outbox_) {
      if (!box.empty()) return true;
    }
    return false;
  }

  // Route every message through `faults` (null detaches).
  void set_fault_injector(fault::FaultInjector* faults) { faults_ = faults; }

  // --- Rack topology (docs/SIMULATOR.md) -----------------------------------
  // Place the pipelines on `num_nodes` target nodes behind a shared ToR
  // uplink: `node_of[ssd]` is the node pipeline `ssd` lives on. A message
  // serializes on the shared uplink and then on the destination node's
  // access link (access link first, uplink second target-to-client), then
  // the base latency elapses. Call before any Send; composes with
  // ConfigureSharded in either order.
  void ConfigureRack(std::vector<int> node_of, int num_nodes,
                     double uplink_bps);
  bool rack() const { return num_nodes_ > 0; }
  int nodes() const { return num_nodes_; }
  int node_of(int ssd) const {
    return rack() ? node_of_[static_cast<size_t>(ssd)] : 0;
  }

  // Register a node outage window [fail_at, recover_at) (recover_at 0 =
  // never recovers): every message to or from the node whose *send time*
  // falls inside the window is dropped. Down-ness is a pure function of
  // (node, send time), so sharded replay on the control thread makes the
  // same drop decisions at any worker-thread count.
  void AddNodeOutage(int node, Tick fail_at, Tick recover_at);
  bool NodeDown(int node, Tick when) const;

  // Fires the rack.uplink.conservation check on every uplink crossing.
  void AttachChecker(check::InvariantChecker* chk) { chk_ = chk; }

  const NetworkConfig& config() const { return config_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  double uplink_bps() const { return uplink_bps_; }
  uint64_t uplink_bytes() const { return uplink_bytes_total_; }
  uint64_t node_uplink_bytes(int node) const {
    return node_uplink_bytes_[static_cast<size_t>(node)];
  }
  // Messages dropped because a node was down (separate from link flaps).
  uint64_t node_drops() const { return node_drops_; }
  // Total uplink serialization time ever scheduled (utilization numerator).
  Tick uplink_busy_time() const { return uplink_busy_accum_; }

 private:
  struct PendingSend {
    Tick when = 0;
    Direction dir = Direction::kClientToTarget;
    int node = 0;
    uint64_t bytes = 0;
    sim::Simulator* dest = nullptr;
    sim::EventFn deliver;
  };

  void BufferSend(Direction dir, int ssd, uint64_t bytes,
                  sim::EventFn deliver);
  // Plain-mode rack path: chain uplink and node access link FifoResources.
  void SendRackPlain(Direction dir, int node, uint64_t bytes, Tick extra,
                     sim::EventFn deliver);
  // Per-node uplink byte accounting + the conservation check.
  void AccountUplink(int node, uint64_t bytes);

  sim::Simulator& sim_;
  NetworkConfig config_;
  sim::FifoResource c2t_;
  sim::FifoResource t2c_;
  uint64_t bytes_sent_ = 0;
  uint64_t messages_dropped_ = 0;
  fault::FaultInjector* faults_ = nullptr;  // null = fault-free link

  // Sharded mode state. Outboxes are per source shard (single writer
  // during an epoch; drained at the barrier). busy_until_ carries each
  // direction's FIFO serialization frontier across epochs — the replay
  // equivalent of the FifoResources' internal queues.
  sim::Simulator* client_sim_ = nullptr;
  std::vector<sim::Simulator*> ssd_sims_;  // empty = plain mode
  std::vector<std::vector<PendingSend>> outbox_;
  Tick busy_until_[2] = {0, 0};

  // Rack mode state (num_nodes_ == 0 = flat single-node fabric). Indexed
  // [direction][...] with 0 = client-to-target, 1 = target-to-client.
  std::vector<int> node_of_;  // pipeline -> node
  int num_nodes_ = 0;
  double uplink_bps_ = 0;
  struct Outage {
    int node;
    Tick fail_at;
    Tick recover_at;  // 0 = never
  };
  std::vector<Outage> outages_;
  // Plain-mode resources: one shared uplink + one access link per node,
  // per direction.
  std::unique_ptr<sim::FifoResource> uplink_res_[2];
  std::vector<std::unique_ptr<sim::FifoResource>> node_res_[2];
  // Sharded-mode serialization frontiers (replay equivalents of the above;
  // persist across epoch barriers like busy_until_).
  Tick uplink_busy_[2] = {0, 0};
  std::vector<Tick> node_busy_[2];
  // Uplink accounting (rack.uplink.* metrics + conservation invariant).
  uint64_t uplink_bytes_total_ = 0;
  std::vector<uint64_t> node_uplink_bytes_;
  // Replay scratch: per-node byte deltas for the current batch plus the
  // touched-node list used to reset them (kept as members so barriers
  // don't allocate).
  std::vector<uint64_t> uplink_delta_;
  std::vector<int> touched_nodes_;
  uint64_t node_drops_ = 0;
  Tick uplink_busy_accum_ = 0;
  check::InvariantChecker* chk_ = nullptr;
};

}  // namespace gimbal::fabric
