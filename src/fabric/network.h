// Fabric network model for NVMe-oF/RDMA traffic.
//
// Models the storage node's NIC as a full-duplex shared link: messages
// serialize on the direction's bandwidth and then experience a fixed
// propagation/switching latency. Capsules are 64 B; RDMA data moves in
// messages of the IO's size (§2.1's five-step request flow is built from
// these primitives by the target).
//
// Every link is a FIFO serialization frontier computed at Send() time:
// a message starts at the later of its send time and the frontier,
// occupies the link for its transfer time, and its delivery is scheduled
// straight away at frontier + base latency (+ any link-fault delay). Sends
// therefore serialize in issue order, and each message costs one event —
// its delivery. On a rack the same arithmetic runs store-and-forward over
// the shared ToR uplink and the node's access link (docs/SIMULATOR.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault.h"
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
      : sim_(sim), config_(config) {}

  // Deliver a `bytes`-sized message in `dir`; `deliver` runs after
  // serialization on the shared link plus the base latency. `ssd`
  // identifies the target-side pipeline the message belongs to, which on
  // a rack picks the node's access link. During a scheduled link flap
  // (docs/FAULTS.md) the message may be silently dropped — recovery is
  // the initiator's per-IO timeout — or delayed.
  void Send(Direction dir, int ssd, uint64_t bytes, sim::EventFn deliver);

  // Compatibility form for direct unit-test use; routes like ssd 0.
  void Send(Direction dir, uint64_t bytes, sim::EventFn deliver) {
    Send(dir, 0, bytes, std::move(deliver));
  }

  // Route every message through `faults` (null detaches).
  void set_fault_injector(fault::FaultInjector* faults) { faults_ = faults; }

  // --- Rack topology (docs/SIMULATOR.md) -----------------------------------
  // Place the pipelines on `num_nodes` target nodes behind a shared ToR
  // uplink: `node_of[ssd]` is the node pipeline `ssd` lives on. A message
  // serializes on the shared uplink and then on the destination node's
  // access link (access link first, uplink second target-to-client), then
  // the base latency elapses. Call before any Send.
  void ConfigureRack(std::vector<int> node_of, int num_nodes,
                     double uplink_bps);
  bool rack() const { return num_nodes_ > 0; }
  int nodes() const { return num_nodes_; }
  int node_of(int ssd) const {
    return rack() ? node_of_[static_cast<size_t>(ssd)] : 0;
  }

  // Register a node outage window [fail_at, recover_at) (recover_at 0 =
  // never recovers): every message to or from the node whose *send time*
  // falls inside the window is dropped.
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
  // Serialize `t` ticks on the link whose frontier is `busy`, starting no
  // earlier than `ready`; returns (and records) the serialization end.
  static Tick Occupy(Tick& busy, Tick ready, Tick t) {
    busy = std::max(ready, busy) + t;
    return busy;
  }
  // Per-node uplink byte accounting + the conservation check.
  void AccountUplink(int node, uint64_t bytes);

  sim::Simulator& sim_;
  NetworkConfig config_;
  uint64_t bytes_sent_ = 0;
  uint64_t messages_dropped_ = 0;
  fault::FaultInjector* faults_ = nullptr;  // null = fault-free link

  // Serialization frontiers, indexed [direction] with 0 = client-to-target
  // and 1 = target-to-client: the flat link, and on a rack the shared
  // uplink plus one access link per node.
  Tick link_busy_[2] = {0, 0};
  Tick uplink_busy_[2] = {0, 0};
  std::vector<Tick> node_busy_[2];

  // Rack mode state (num_nodes_ == 0 = flat single-node fabric).
  std::vector<int> node_of_;  // pipeline -> node
  int num_nodes_ = 0;
  double uplink_bps_ = 0;
  struct Outage {
    int node;
    Tick fail_at;
    Tick recover_at;  // 0 = never
  };
  std::vector<Outage> outages_;
  // Uplink accounting (rack.uplink.* metrics + conservation invariant).
  uint64_t uplink_bytes_total_ = 0;
  std::vector<uint64_t> node_uplink_bytes_;
  uint64_t node_drops_ = 0;
  Tick uplink_busy_accum_ = 0;
  check::InvariantChecker* chk_ = nullptr;
};

}  // namespace gimbal::fabric
