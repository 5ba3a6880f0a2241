// Tests for the NVMe-oF fabric: network serialization, the five-step
// request flow through the target, initiator flow-control modes, and the
// baseline policies in isolation (NULL device).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "baselines/flashfq_policy.h"
#include "baselines/parda_policy.h"
#include "baselines/reflex_policy.h"
#include "fabric/initiator.h"
#include "fabric/network.h"
#include "fabric/target.h"
#include "ssd/null_device.h"
#include "workload/runner.h"

namespace gimbal {
namespace {

using fabric::Direction;
using fabric::Network;

TEST(Network, BaseLatencyDominatesSmallMessages) {
  sim::Simulator sim;
  Network net(sim);
  Tick arrival = -1;
  net.Send(Direction::kClientToTarget, 64, [&]() { arrival = sim.now(); });
  sim.Run();
  // 64B at 12.5 GB/s ~ 5ns serialization + 5us base.
  EXPECT_GE(arrival, Microseconds(5));
  EXPECT_LT(arrival, Microseconds(6));
}

TEST(Network, LargeMessageSerializationCost) {
  sim::Simulator sim;
  Network net(sim);
  Tick arrival = -1;
  net.Send(Direction::kTargetToClient, 1 << 20, [&]() { arrival = sim.now(); });
  sim.Run();
  // 1 MiB at 12.5 GB/s ~ 84us + 5us base.
  EXPECT_GT(arrival, Microseconds(80));
  EXPECT_LT(arrival, Microseconds(100));
}

TEST(Network, SharedLinkSerializes) {
  sim::Simulator sim;
  Network net(sim);
  Tick first = -1, second = -1;
  net.Send(Direction::kClientToTarget, 1 << 20, [&]() { first = sim.now(); });
  net.Send(Direction::kClientToTarget, 1 << 20, [&]() { second = sim.now(); });
  sim.Run();
  EXPECT_GT(second, first + Microseconds(70));  // queued behind the first
}

TEST(Network, DirectionsAreIndependent) {
  sim::Simulator sim;
  Network net(sim);
  Tick up = -1, down = -1;
  net.Send(Direction::kClientToTarget, 1 << 20, [&]() { up = sim.now(); });
  net.Send(Direction::kTargetToClient, 1 << 20, [&]() { down = sim.now(); });
  sim.Run();
  // Full duplex: both complete around the same time.
  EXPECT_NEAR(static_cast<double>(up), static_cast<double>(down), 1000.0);
}

// The tests below compute delivery times by hand. Links run at 1 byte/ns
// and the rack uplink at 0.5 byte/ns; TransferTime rounds up by one tick,
// so 1000 B takes 1001 ns on a link and 2001 ns on the uplink, and 4000 B
// takes 4001 and 8001.
fabric::NetworkConfig HandNet() {
  fabric::NetworkConfig cfg;
  cfg.bandwidth_bps = 1e9;
  cfg.base_latency = Microseconds(5);
  return cfg;
}

TEST(Network, SameTickSendsFromTwoPipelinesSerializeInIssueOrder) {
  sim::Simulator sim;
  Network net(sim, HandNet());
  std::vector<std::pair<int, Tick>> got;  // (tag, delivery time)
  auto send = [&](Direction dir, int ssd, uint64_t bytes, int tag) {
    net.Send(dir, ssd, bytes, [&got, &sim, tag]() {
      got.emplace_back(tag, sim.now());
    });
  };
  // Two pipelines complete at the same tick; pipeline 1's event was
  // scheduled first, so it takes the target-to-client link first.
  sim.At(1000, [&]() { send(Direction::kTargetToClient, 1, 4000, 1); });
  sim.At(1000, [&]() { send(Direction::kTargetToClient, 0, 2000, 0); });
  // The other direction has a link of its own.
  sim.At(1000, [&]() { send(Direction::kClientToTarget, 0, 1000, 2); });
  sim.Run();
  // ssd 1: 1000 + 4001 = 5001 on the link, + 5000 base = 10001.
  // ssd 0: starts at the frontier 5001, + 2001 = 7002, + 5000 = 12002.
  // c2t:   1000 + 1001 = 2001, + 5000 = 7001.
  const std::vector<std::pair<int, Tick>> want = {
      {2, 7001}, {1, 10001}, {0, 12002}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(net.bytes_sent(), 7000u);
}

TEST(Network, RackStoresAndForwardsOverUplinkAndAccessLink) {
  sim::Simulator sim;
  Network net(sim, HandNet());
  net.ConfigureRack({0, 1}, 2, 5e8);
  Tick big = -1, small = -1;
  // Client to target: the uplink first, then the node's access link.
  net.Send(Direction::kClientToTarget, 0, 4000, [&]() { big = sim.now(); });
  net.Send(Direction::kClientToTarget, 1, 1000, [&]() { small = sim.now(); });
  sim.Run();
  // big:   uplink 0 -> 8001, node 0 access 8001 -> 12002, + 5000 = 17002.
  // small: uplink 8001 -> 10002 (behind big), node 1 access 10002 -> 11003,
  //        + 5000 = 16003: it overtakes big on its own access link.
  EXPECT_EQ(big, 17002);
  EXPECT_EQ(small, 16003);

  // Target to client, the reverse: access link first, then the uplink.
  const Tick t0 = sim.now();
  net.Send(Direction::kTargetToClient, 0, 4000, [&]() { big = sim.now(); });
  net.Send(Direction::kTargetToClient, 1, 1000, [&]() { small = sim.now(); });
  sim.Run();
  // big:   node 0 access t0 -> t0+4001, uplink -> t0+12002, + 5000.
  // small: node 1 access t0 -> t0+1001, then waits for big on the uplink:
  //        t0+12002 -> t0+14003, + 5000.
  EXPECT_EQ(big, t0 + 17002);
  EXPECT_EQ(small, t0 + 19003);
  EXPECT_EQ(net.uplink_bytes(), 10000u);
  EXPECT_EQ(net.node_uplink_bytes(0), 8000u);
  EXPECT_EQ(net.node_uplink_bytes(1), 2000u);
}

TEST(Network, NodeOutageDropIsDecidedAtSendTime) {
  sim::Simulator sim;
  Network net(sim, HandNet());
  net.ConfigureRack({0, 1}, 2, 5e8);
  net.AddNodeOutage(1, 10000, 20000);
  std::vector<std::pair<int, Tick>> got;
  auto send_at = [&](Tick at, Direction dir, int ssd, int tag) {
    sim.At(at, [&, dir, ssd, tag]() {
      net.Send(dir, ssd, 1000, [&got, &sim, tag]() {
        got.emplace_back(tag, sim.now());
      });
    });
  };
  send_at(9999, Direction::kClientToTarget, 1, 0);   // before: delivered
  send_at(10000, Direction::kClientToTarget, 1, 1);  // window opens: drop
  send_at(12000, Direction::kTargetToClient, 1, 2);  // from the node: drop
  send_at(15000, Direction::kClientToTarget, 0, 3);  // other node: delivered
  send_at(19999, Direction::kClientToTarget, 1, 4);  // last tick: drop
  send_at(20000, Direction::kClientToTarget, 1, 5);  // recovered: delivered
  sim.Run();
  // 0: uplink 9999 -> 12000, access 12000 -> 13001, + 5000 = 18001 — it
  //    lands inside the outage, but was sent before it.
  // 3: uplink 15000 -> 17001, access 17001 -> 18002, + 5000 = 23002.
  // 5: uplink 20000 -> 22001, access 22001 -> 23002, + 5000 = 28002.
  const std::vector<std::pair<int, Tick>> want = {
      {0, 18001}, {3, 23002}, {5, 28002}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(net.node_drops(), 3u);
  EXPECT_EQ(net.uplink_bytes(), 3000u);
}

// ---------------------------------------------------------------------------
// Target + Initiator round trips
// ---------------------------------------------------------------------------

struct FabricRig {
  sim::Simulator sim;
  Network net{sim};
  fabric::Target target;
  ssd::NullDevice* null_dev = nullptr;

  explicit FabricRig(fabric::TargetConfig cfg = {})
      : target(sim, net, cfg) {
    auto dev = std::make_unique<ssd::NullDevice>(sim);
    null_dev = dev.get();
    owned_dev_ = std::move(dev);
    target.AddPipeline(
        std::make_unique<baselines::FcfsPolicy>(sim, *null_dev));
  }

 private:
  std::unique_ptr<ssd::BlockDevice> owned_dev_;
};

TEST(FabricRoundTrip, ReadLatencyComposition) {
  FabricRig rig;
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1);
  Tick e2e = -1;
  init.Submit(IoType::kRead, 0, 4096, IoPriority::kNormal,
              [&](const IoCompletion&, Tick lat) { e2e = lat; });
  rig.sim.Run();
  // capsule (5us) + submit cpu + null dev (2us) + complete cpu + staging +
  // data+capsule back (5us + ~0.3us serialization) ~= 15-20us.
  EXPECT_GT(e2e, Microseconds(12));
  EXPECT_LT(e2e, Microseconds(25));
}

TEST(FabricRoundTrip, WritePaysRdmaReadTrip) {
  FabricRig rig;
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1);
  Tick read_lat = -1, write_lat = -1;
  init.Submit(IoType::kRead, 0, 65536, IoPriority::kNormal,
              [&](const IoCompletion&, Tick lat) { read_lat = lat; });
  rig.sim.Run();
  init.Submit(IoType::kWrite, 0, 65536, IoPriority::kNormal,
              [&](const IoCompletion&, Tick lat) { write_lat = lat; });
  rig.sim.Run();
  // The write's payload needs an extra control+data round trip.
  EXPECT_GT(write_lat, read_lat);
}

TEST(FabricRoundTrip, CompletionCarriesTenant) {
  FabricRig rig;
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 7);
  IoCompletion got;
  init.Submit(IoType::kRead, 4096, 4096, IoPriority::kHigh,
              [&](const IoCompletion& c, Tick) { got = c; });
  rig.sim.Run();
  EXPECT_EQ(got.tenant, 7u);
  EXPECT_EQ(got.length, 4096u);
  EXPECT_EQ(got.type, IoType::kRead);
}

TEST(FabricRoundTrip, ManyOutstandingAllComplete) {
  FabricRig rig;
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1);
  int done = 0;
  for (int i = 0; i < 500; ++i) {
    init.Submit(IoType::kRead, static_cast<uint64_t>(i) * 4096, 4096,
                IoPriority::kNormal,
                [&](const IoCompletion&, Tick) { ++done; });
  }
  rig.sim.Run();
  EXPECT_EQ(done, 500);
  EXPECT_EQ(init.inflight(), 0u);
}

// The local queue owns no buffer until the first Submit: an open-loop
// fleet keeps tens of thousands of mostly idle sessions connected.
TEST(FabricRoundTrip, IdleInitiatorOwnsNoQueueBuffer) {
  FabricRig rig;
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1,
                         fabric::ThrottleMode::kCredit, {}, {},
                         fabric::ConnectMode::kCapsule);
  rig.sim.Run();  // connect capsule delivered
  EXPECT_EQ(init.queue_capacity(), 0u);
  int done = 0;
  init.Submit(IoType::kRead, 0, 4096, IoPriority::kNormal,
              [&](const IoCompletion&, Tick) { ++done; });
  rig.sim.Run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(init.queued(), 0u);
  EXPECT_EQ(init.queue_capacity(), 1u);  // kept for the next IO
  init.Shutdown();  // takes the queue over, buffer and all
  EXPECT_EQ(init.queue_capacity(), 0u);
  rig.sim.Run();
}

TEST(FabricRoundTrip, AddedCostSlowsPipeline) {
  fabric::TargetConfig slow;
  slow.added_cost = Microseconds(50);
  FabricRig fast_rig, slow_rig(slow);
  auto run = [](FabricRig& rig) {
    fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1);
    Tick e2e = 0;
    init.Submit(IoType::kRead, 0, 4096, IoPriority::kNormal,
                [&](const IoCompletion&, Tick lat) { e2e = lat; });
    rig.sim.Run();
    return e2e;
  };
  EXPECT_GT(run(slow_rig), run(fast_rig) + Microseconds(45));
}

TEST(Initiator, CreditThrottleLimitsInflight) {
  FabricRig rig;
  // Credit mode with no Gimbal switch: the FCFS policy grants no credit
  // updates, so the initial credit (8) caps inflight.
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1,
                         fabric::ThrottleMode::kCredit);
  for (int i = 0; i < 64; ++i) {
    init.Submit(IoType::kRead, 0, 4096, IoPriority::kNormal, nullptr);
  }
  EXPECT_LE(init.inflight(), 8u);
  EXPECT_EQ(init.queued(), 64u - init.inflight());
  rig.sim.Run();
  EXPECT_EQ(init.inflight(), 0u);
  EXPECT_EQ(init.queued(), 0u);
}

TEST(Initiator, PardaWindowShrinksUnderHighLatency) {
  baselines::PardaParams pp;
  pp.latency_threshold = Microseconds(10);  // absurdly tight on purpose
  pp.epoch = Microseconds(50);
  FabricRig rig;
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1,
                         fabric::ThrottleMode::kParda, pp);
  for (int i = 0; i < 2000; ++i) {
    init.Submit(IoType::kRead, 0, 4096, IoPriority::kNormal, nullptr);
  }
  rig.sim.Run();
  // Observed latency (~15us) >> threshold (10us): window collapses.
  EXPECT_LT(init.parda_window(), 8.0);
}

TEST(Initiator, PardaWindowGrowsUnderLowLatency) {
  baselines::PardaParams pp;
  pp.latency_threshold = Milliseconds(2);
  pp.epoch = Microseconds(50);
  FabricRig rig;
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1,
                         fabric::ThrottleMode::kParda, pp);
  for (int i = 0; i < 2000; ++i) {
    init.Submit(IoType::kRead, 0, 4096, IoPriority::kNormal, nullptr);
  }
  rig.sim.Run();
  EXPECT_GT(init.parda_window(), 8.0);
}

// ---------------------------------------------------------------------------
// Baseline policies on a NULL device
// ---------------------------------------------------------------------------

TEST(ReflexPolicy, EnforcesTokenRate) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(1));
  baselines::ReflexParams rp;
  rp.token_rate = 10000;  // 10K 4K-reads/sec
  baselines::ReflexPolicy policy(sim, dev, rp);
  uint64_t done = 0;
  policy.set_completion_fn(
      [&](const IoRequest&, const IoCompletion&) { ++done; });
  for (int i = 0; i < 1000; ++i) {
    IoRequest r;
    r.id = static_cast<uint64_t>(i) + 1;
    r.tenant = 1;
    r.type = IoType::kRead;
    r.length = 4096;
    policy.OnRequest(r);
  }
  sim.RunUntil(Milliseconds(100));
  // 100ms at 10K IOPS ~ 1000 IOs; allow bucket burst slack.
  EXPECT_GT(done, 800u);
  EXPECT_LE(done, 1000u);
}

TEST(ReflexPolicy, WritesCostMoreTokens) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(1));
  baselines::ReflexParams rp;
  rp.token_rate = 9000;
  rp.write_cost = 9.0;
  baselines::ReflexPolicy policy(sim, dev, rp);
  uint64_t reads = 0, writes = 0;
  policy.set_completion_fn([&](const IoRequest& r, const IoCompletion&) {
    (r.type == IoType::kRead ? reads : writes)++;
  });
  for (int i = 0; i < 2000; ++i) {
    IoRequest r;
    r.id = static_cast<uint64_t>(i) + 1;
    r.tenant = (i % 2) ? 1 : 2;
    r.type = (i % 2) ? IoType::kRead : IoType::kWrite;
    r.length = 4096;
    policy.OnRequest(r);
  }
  sim.RunUntil(Milliseconds(100));
  // Token costs are 1 vs 9: reads complete ~9x as fast.
  ASSERT_GT(writes, 0u);
  EXPECT_GT(reads, 4 * writes);
}

TEST(FlashFqPolicy, ThrottledDispatchBoundsOutstanding) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(100));
  baselines::FlashFqParams fp;
  fp.depth = 4;
  baselines::FlashFqPolicy policy(sim, dev, fp);
  policy.set_completion_fn([](const IoRequest&, const IoCompletion&) {});
  for (int i = 0; i < 100; ++i) {
    IoRequest r;
    r.id = static_cast<uint64_t>(i) + 1;
    r.tenant = 1;
    r.type = IoType::kRead;
    r.length = 4096;
    policy.OnRequest(r);
  }
  EXPECT_LE(dev.inflight(), 4u);
  sim.Run();
}

TEST(FlashFqPolicy, FairBetweenEqualFlows) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(50));
  baselines::FlashFqPolicy policy(sim, dev);
  uint64_t per_tenant[3] = {0, 0, 0};
  policy.set_completion_fn([&](const IoRequest& r, const IoCompletion&) {
    ++per_tenant[r.tenant];
  });
  // Tenant 1 floods; tenant 2 offers the same; SFQ serves them equally.
  for (int i = 0; i < 400; ++i) {
    for (TenantId t : {1u, 2u}) {
      IoRequest r;
      r.id = static_cast<uint64_t>(i * 2 + t);
      r.tenant = t;
      r.type = IoType::kRead;
      r.length = 4096;
      policy.OnRequest(r);
    }
  }
  sim.RunUntil(Milliseconds(10));
  ASSERT_GT(per_tenant[1], 0u);
  double ratio = static_cast<double>(per_tenant[1]) /
                 static_cast<double>(per_tenant[2]);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(FlashFqPolicy, SizeWeightedVirtualTime) {
  // A flow of large IOs should get ~the same *bytes*, not the same IOPS.
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(50));
  baselines::FlashFqPolicy policy(sim, dev);
  uint64_t bytes[3] = {0, 0, 0};
  policy.set_completion_fn([&](const IoRequest& r, const IoCompletion&) {
    bytes[r.tenant] += r.length;
  });
  for (int i = 0; i < 600; ++i) {
    IoRequest small;
    small.id = static_cast<uint64_t>(i) * 2 + 1;
    small.tenant = 1;
    small.type = IoType::kRead;
    small.length = 4096;
    policy.OnRequest(small);
    if (i % 8 == 0) {
      IoRequest big;
      big.id = static_cast<uint64_t>(i) * 2 + 2;
      big.tenant = 2;
      big.type = IoType::kRead;
      big.length = 32768;
      policy.OnRequest(big);
    }
  }
  sim.RunUntil(Milliseconds(8));
  ASSERT_GT(bytes[2], 0u);
  double ratio =
      static_cast<double>(bytes[1]) / static_cast<double>(bytes[2]);
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.6);
}

}  // namespace
}  // namespace gimbal
