#include "fabric/network.h"

#include <algorithm>
#include <cassert>

#include "check/invariants.h"
#include "core/params.h"

namespace gimbal::fabric {

void Network::Send(Direction dir, int ssd, uint64_t bytes,
                   sim::EventFn deliver) {
  const Tick now = sim_.now();
  Tick fault_delay = 0;
  if (faults_) {
    const fault::FaultInjector::LinkFault lf = faults_->OnLinkMessage(now);
    if (lf.drop) {
      ++messages_dropped_;
      return;
    }
    fault_delay = lf.extra_delay;
  }
  const int d = dir == Direction::kClientToTarget ? 0 : 1;
  const Tick link_t = TransferTime(bytes, config_.bandwidth_bps);
  Tick finish;
  if (rack()) {
    const int node = node_of(ssd);
    if (NodeDown(node, now)) {
      ++node_drops_;
      return;
    }
    AccountUplink(node, bytes);
    // Store-and-forward: client-to-target crosses the ToR uplink first,
    // then the node's access link; target-to-client the reverse.
    const Tick uplink_t = TransferTime(bytes, uplink_bps_);
    Tick& uplink = uplink_busy_[d];
    Tick& access = node_busy_[d][static_cast<size_t>(node)];
    if (dir == Direction::kClientToTarget) {
      finish = Occupy(access, Occupy(uplink, now, uplink_t), link_t);
    } else {
      finish = Occupy(uplink, Occupy(access, now, link_t), uplink_t);
    }
  } else {
    finish = Occupy(link_busy_[d], now, link_t);
  }
  bytes_sent_ += bytes;
  sim_.At(finish + config_.base_latency + fault_delay, std::move(deliver));
}

void Network::ConfigureRack(std::vector<int> node_of, int num_nodes,
                            double uplink_bps) {
  assert(num_nodes > 0);
  assert(uplink_bps > 0);
  node_of_ = std::move(node_of);
  num_nodes_ = num_nodes;
  uplink_bps_ = uplink_bps;
  for (auto& busy : node_busy_) busy.assign(static_cast<size_t>(num_nodes), 0);
  node_uplink_bytes_.assign(static_cast<size_t>(num_nodes), 0);
}

void Network::AddNodeOutage(int node, Tick fail_at, Tick recover_at) {
  assert(rack() && node >= 0 && node < num_nodes_);
  outages_.push_back(Outage{node, fail_at, recover_at});
}

bool Network::NodeDown(int node, Tick when) const {
  for (const Outage& o : outages_) {
    if (o.node == node && when >= o.fail_at &&
        (o.recover_at == 0 || when < o.recover_at)) {
      return true;
    }
  }
  return false;
}

void Network::AccountUplink(int node, uint64_t bytes) {
  uplink_bytes_total_ += bytes;
  uplink_busy_accum_ += TransferTime(bytes, uplink_bps_);
  if (!(GIMBAL_MUT(kUplinkLeak) && node == 0)) {
    node_uplink_bytes_[static_cast<size_t>(node)] += bytes;
  }
  if (chk_) {
    uint64_t sum = 0;
    for (uint64_t v : node_uplink_bytes_) sum += v;
    chk_->OnRackUplink(node, bytes, sum, uplink_bytes_total_);
  }
}

}  // namespace gimbal::fabric
