#include "fabric/network.h"

#include <algorithm>
#include <cassert>

#include "check/invariants.h"
#include "core/params.h"

namespace gimbal::fabric {

void Network::ConfigureRack(std::vector<int> node_of, int num_nodes,
                            double uplink_bps) {
  assert(num_nodes > 0);
  assert(uplink_bps > 0);
  node_of_ = std::move(node_of);
  num_nodes_ = num_nodes;
  uplink_bps_ = uplink_bps;
  for (int d = 0; d < 2; ++d) {
    uplink_res_[d] = std::make_unique<sim::FifoResource>(sim_);
    node_res_[d].clear();
    for (int n = 0; n < num_nodes; ++n) {
      node_res_[d].push_back(std::make_unique<sim::FifoResource>(sim_));
    }
    node_busy_[d].assign(static_cast<size_t>(num_nodes), 0);
  }
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

void Network::SendRackPlain(Direction dir, int node, uint64_t bytes,
                            Tick extra, sim::EventFn deliver) {
  if (NodeDown(node, sim_.now())) {
    ++node_drops_;
    return;
  }
  bytes_sent_ += bytes;
  AccountUplink(node, bytes);
  const Tick uplink_t = TransferTime(bytes, uplink_bps_);
  const Tick link_t = TransferTime(bytes, config_.bandwidth_bps);
  const int d = dir == Direction::kClientToTarget ? 0 : 1;
  sim::FifoResource& uplink = *uplink_res_[d];
  sim::FifoResource& link = *node_res_[d][static_cast<size_t>(node)];
  // Client-to-target crosses the ToR uplink first, then the node's access
  // link; target-to-client the reverse. The second stage runs inside the
  // first stage's completion, so the tandem keeps FIFO order per stage.
  auto chain = [](sim::FifoResource& first, Tick first_t,
                  sim::FifoResource* second, Tick second_t, Tick extra_t,
                  sim::EventFn done) {
    first.AcquireDeferred(
        first_t, 0,
        [second, second_t, extra_t, done = std::move(done)]() mutable {
          second->AcquireDeferred(second_t, extra_t, std::move(done));
        });
  };
  if (dir == Direction::kClientToTarget) {
    chain(uplink, uplink_t, &link, link_t, extra, std::move(deliver));
  } else {
    chain(link, link_t, &uplink, uplink_t, extra, std::move(deliver));
  }
}

void Network::BufferSend(Direction dir, int ssd, uint64_t bytes,
                         sim::EventFn deliver) {
  int src = sim::ShardedEngine::CurrentShard();
  Tick when;
  if (src < 0) {
    // Control context (e.g. a Shutdown() between runs): attribute to the
    // client shard at its current time.
    src = 0;
    when = client_sim_->now();
  } else {
    when = sim::ShardedEngine::CurrentSim()->now();
  }
  assert(ssd >= 0 && ssd < static_cast<int>(ssd_sims_.size()));
  sim::Simulator* dest = dir == Direction::kClientToTarget
                             ? ssd_sims_[static_cast<size_t>(ssd)]
                             : client_sim_;
  outbox_[static_cast<size_t>(src)].push_back(
      PendingSend{when, dir, node_of(ssd), bytes, dest, std::move(deliver)});
}

size_t Network::ReplayPending() {
  // Canonical order: (send time, source shard, per-shard issue order).
  // Each outbox is already time-sorted — a shard's clock is monotone
  // within an epoch — so an in-place k-way merge over the outboxes with a
  // lowest-source-index tie break visits exactly that order without
  // materializing or sorting a combined batch (the old path moved every
  // ~120-byte closure twice and stable_sorted them each barrier).
  int nonempty = 0;
  std::vector<PendingSend>* only = nullptr;
  for (auto& box : outbox_) {
    if (!box.empty()) {
      ++nonempty;
      only = &box;
    }
  }
  if (nonempty == 0) return 0;

  // Link frontiers live in locals for the whole batch; written back below.
  Tick busy[2] = {busy_until_[0], busy_until_[1]};
  Tick up_busy[2] = {uplink_busy_[0], uplink_busy_[1]};
  if (rack() && uplink_delta_.size() != node_uplink_bytes_.size()) {
    uplink_delta_.assign(node_uplink_bytes_.size(), 0);
  }
  touched_nodes_.clear();

  size_t replayed = 0;
  auto replay_one = [&](PendingSend& p) {
    Tick fault_delay = 0;
    if (faults_) {
      // Link-fault draws happen here, in canonical replay order on the
      // control thread, so the fault RNG stream is thread-count invariant.
      const fault::FaultInjector::LinkFault lf = faults_->OnLinkMessage(p.when);
      if (lf.drop) {
        ++messages_dropped_;
        return;
      }
      fault_delay = lf.extra_delay;
    }
    const int d = p.dir == Direction::kClientToTarget ? 0 : 1;
    if (rack()) {
      // Rack replay: fold into the shared uplink and the node's access
      // link, in traversal order, with per-stage FIFO frontiers that
      // persist across barriers — the replay equivalent of the plain
      // path's chained FifoResources. Byte accounting accumulates into
      // the per-batch delta applied after the loop.
      if (NodeDown(p.node, p.when)) {
        ++node_drops_;
        return;
      }
      bytes_sent_ += p.bytes;
      uplink_bytes_total_ += p.bytes;
      uplink_busy_accum_ += TransferTime(p.bytes, uplink_bps_);
      if (std::find(touched_nodes_.begin(), touched_nodes_.end(), p.node) ==
          touched_nodes_.end()) {
        touched_nodes_.push_back(p.node);
      }
      if (!(GIMBAL_MUT(kUplinkLeak) && p.node == 0)) {
        uplink_delta_[static_cast<size_t>(p.node)] += p.bytes;
      }
      const Tick uplink_t = TransferTime(p.bytes, uplink_bps_);
      const Tick link_t = TransferTime(p.bytes, config_.bandwidth_bps);
      Tick& uplink_busy = up_busy[d];
      Tick& link_busy = node_busy_[d][static_cast<size_t>(p.node)];
      Tick finish;
      if (p.dir == Direction::kClientToTarget) {
        const Tick f1 = std::max(p.when, uplink_busy) + uplink_t;
        uplink_busy = f1;
        finish = std::max(f1, link_busy) + link_t;
        link_busy = finish;
      } else {
        const Tick f1 = std::max(p.when, link_busy) + link_t;
        link_busy = f1;
        finish = std::max(f1, uplink_busy) + uplink_t;
        uplink_busy = finish;
      }
      p.dest->At(finish + config_.base_latency + fault_delay,
                 std::move(p.deliver));
      ++replayed;
      return;
    }
    bytes_sent_ += p.bytes;
    // Fold into the per-direction FIFO link — the replay equivalent of the
    // plain path's FifoResource::AcquireDeferred: serialize back-to-back
    // from the later of the send time and the link frontier, then the base
    // latency elapses off-link. The frontier persists across barriers.
    const Tick start = std::max(p.when, busy[d]);
    const Tick finish = start + TransferTime(p.bytes, config_.bandwidth_bps);
    busy[d] = finish;
    p.dest->At(finish + config_.base_latency + fault_delay,
               std::move(p.deliver));
    ++replayed;
  };

  if (nonempty == 1) {
    // Common case: a coarsened epoch ends with one shard's sends buffered.
    for (PendingSend& p : *only) replay_one(p);
    only->clear();
  } else {
    // K-way merge; k is the shard count, so a linear scan per pop beats a
    // heap for the handful of sources a testbed has. Strict `<` with an
    // ascending source scan gives the lowest source index on time ties.
    std::vector<size_t> cur(outbox_.size(), 0);
    for (;;) {
      int best = -1;
      Tick best_when = 0;
      for (size_t s = 0; s < outbox_.size(); ++s) {
        if (cur[s] >= outbox_[s].size()) continue;
        const Tick w = outbox_[s][cur[s]].when;
        if (best < 0 || w < best_when) {
          best = static_cast<int>(s);
          best_when = w;
        }
      }
      if (best < 0) break;
      replay_one(outbox_[static_cast<size_t>(best)][cur[static_cast<size_t>(
          best)]++]);
    }
    for (auto& box : outbox_) box.clear();
  }

  busy_until_[0] = busy[0];
  busy_until_[1] = busy[1];
  uplink_busy_[0] = up_busy[0];
  uplink_busy_[1] = up_busy[1];
  if (!touched_nodes_.empty()) {
    // Apply the batch's per-node deltas, then run the conservation check
    // once per touched node against the post-batch totals — the same
    // violation the per-message check would have raised (a leaked byte
    // leaves the sums unequal forever), at a fraction of the cost.
    for (int n : touched_nodes_) {
      node_uplink_bytes_[static_cast<size_t>(n)] +=
          uplink_delta_[static_cast<size_t>(n)];
    }
    if (chk_) {
      uint64_t sum = 0;
      for (uint64_t v : node_uplink_bytes_) sum += v;
      for (int n : touched_nodes_) {
        chk_->OnRackUplink(n, uplink_delta_[static_cast<size_t>(n)], sum,
                           uplink_bytes_total_);
      }
    }
    for (int n : touched_nodes_) uplink_delta_[static_cast<size_t>(n)] = 0;
  }
  return replayed;
}

}  // namespace gimbal::fabric
