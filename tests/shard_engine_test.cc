// Unit tests for sim::ShardedEngine on bare shards (docs/SIMULATOR.md).
//
// The testbed suites (shard_adaptive_test.cc, determinism_test.cc, the
// sharded goldens) pin the engine through whole-run digests. This suite
// pins the schedule itself on a few hand-placed events, with a
// stand-in for the fabric: a send made inside a shard event is buffered
// and the barrier hook injects it into its destination shard at
// send time + lookahead, which is what fabric::Network does.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "sim/shard.h"

namespace gimbal {
namespace {

using sim::EventQueue;
using sim::ShardedEngine;
using sim::Simulator;

constexpr Tick kLookahead = 10;

struct Fire {
  int shard;
  Tick at;
  bool operator==(const Fire& o) const {
    return shard == o.shard && at == o.at;
  }
  friend std::ostream& operator<<(std::ostream& os, const Fire& f) {
    return os << "shard " << f.shard << " @ " << f.at;
  }
};

// Engine plus a fabric stand-in and a log of every event it executes.
class Harness {
 public:
  Harness(int shards, bool adaptive,
          EventQueue::Impl impl = EventQueue::Impl::kTimingWheel)
      : engine_(shards, MakeConfig(adaptive, impl)) {
    engine_.set_barrier_fn([this] {
      barrier_times_.push_back(engine_.shard(0).now());
      for (auto& [when, dst] : outbox_) {
        engine_.shard(dst).At(when + kLookahead, [this, dst] { Log(dst); });
      }
      outbox_.clear();
    });
    engine_.set_pending_sends_fn([this] { return !outbox_.empty(); });
    engine_.set_run_end_fn([this] { ++run_ends_; });
  }

  ShardedEngine& engine() { return engine_; }
  Simulator& shard(int i) { return engine_.shard(i); }

  // Schedules an event on shard `i` at `t` that logs itself.
  void Mark(int i, Tick t) {
    shard(i).At(t, [this, i] { Log(i); });
  }
  // Schedules an event on shard `src` at `t` that logs itself and sends
  // to shard `dst`; the delivery logs on arrival.
  void SendAt(int src, Tick t, int dst) {
    shard(src).At(t, [this, src, dst] {
      Log(src);
      Send(src, dst);
    });
  }
  // Buffers a send from shard `src` at its current time, as the fabric
  // does for an event running on `src` or for a control-context call.
  void Send(int src, int dst) { outbox_.emplace_back(shard(src).now(), dst); }
  // Schedules `n` events on shard `i`, `gap` ticks apart from `t`, each
  // scheduling the next from inside the previous one.
  void Chain(int i, Tick t, int n, Tick gap) {
    if (n == 0) return;
    shard(i).At(t, [this, i, t, n, gap] {
      Log(i);
      Chain(i, t + gap, n - 1, gap);
    });
  }

  const std::vector<Fire>& log() const { return log_; }
  const std::vector<Tick>& barrier_times() const { return barrier_times_; }
  int run_ends() const { return run_ends_; }

 private:
  static ShardedEngine::Config MakeConfig(bool adaptive,
                                          EventQueue::Impl impl) {
    ShardedEngine::Config c;
    c.lookahead = kLookahead;
    c.impl = impl;
    c.adaptive = adaptive;
    return c;
  }
  void Log(int i) { log_.push_back({i, shard(i).now()}); }

  ShardedEngine engine_;
  std::vector<std::pair<Tick, int>> outbox_;  // (send time, destination)
  std::vector<Fire> log_;
  std::vector<Tick> barrier_times_;
  int run_ends_ = 0;
};

TEST(ShardedEngine, StepsActiveShardsInIndexOrderWithinAnEpoch) {
  Harness h(3, /*adaptive=*/false);
  h.Mark(2, 3);
  h.Mark(1, 5);
  h.Mark(0, 7);
  h.shard(0).Run();
  // All three fall inside the first epoch [3, 3 + W - 1]; each shard runs
  // to the epoch end before the next index starts, whatever the times.
  const std::vector<Fire> want = {{0, 7}, {1, 5}, {2, 3}};
  EXPECT_EQ(h.log(), want);
  EXPECT_EQ(h.engine().epochs(), 2u);  // the opening barrier + one epoch
}

TEST(ShardedEngine, EpochHorizonIsEarliestEventPlusLookaheadMinusOne) {
  Harness same(2, /*adaptive=*/false);
  same.Mark(0, 0);
  same.Mark(1, kLookahead - 1);
  same.shard(0).Run();
  EXPECT_EQ(same.engine().epochs(), 2u) << "t = W - 1 is inside epoch [0, W-1]";

  Harness next(2, /*adaptive=*/false);
  next.Mark(0, 0);
  next.Mark(1, kLookahead);
  next.shard(0).Run();
  EXPECT_EQ(next.engine().epochs(), 3u) << "t = W needs a second epoch";
  const std::vector<Fire> want = {{0, 0}, {1, kLookahead}};
  EXPECT_EQ(next.log(), want);
}

TEST(ShardedEngine, IdleShardsAdvanceToEachEpochEnd) {
  Harness h(3, /*adaptive=*/false);
  h.Mark(0, 0);
  h.Mark(1, 25);
  std::vector<Tick> idle_clock;
  h.engine().set_barrier_fn(
      [&] { idle_clock.push_back(h.shard(2).now()); });
  h.shard(0).Run();
  // Shard 2 never holds an event, yet its clock tracks every epoch end:
  // 0 at the opening barrier, then 0 + W - 1, then 25 + W - 1.
  const std::vector<Tick> want = {0, kLookahead - 1, 25 + kLookahead - 1};
  EXPECT_EQ(idle_clock, want);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(h.shard(i).now(), 25 + kLookahead - 1);
}

TEST(ShardedEngine, ShardZeroRunUntilDrivesEveryShardToTheDeadline) {
  Harness h(3, /*adaptive=*/true);
  h.Mark(1, 50);
  h.shard(0).RunUntil(40);
  EXPECT_TRUE(h.log().empty()) << "event past the deadline ran";
  for (int i = 0; i < 3; ++i) EXPECT_EQ(h.shard(i).now(), 40) << "shard " << i;

  h.shard(0).RunUntil(60);
  const std::vector<Fire> want = {{1, 50}};
  EXPECT_EQ(h.log(), want);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(h.shard(i).now(), 60) << "shard " << i;
  EXPECT_EQ(h.run_ends(), 2) << "run-end hook fires once per RunUntil";
}

TEST(ShardedEngine, CurrentShardNamesTheExecutingShard) {
  Harness h(3, /*adaptive=*/false);
  std::vector<int> seen_shard;
  std::vector<Simulator*> seen_sim;
  for (int i = 0; i < 3; ++i) {
    h.shard(i).At(i, [&] {
      seen_shard.push_back(ShardedEngine::CurrentShard());
      seen_sim.push_back(ShardedEngine::CurrentSim());
    });
  }
  EXPECT_EQ(ShardedEngine::CurrentShard(), -1);
  h.shard(0).Run();
  const std::vector<int> want_shard = {0, 1, 2};
  const std::vector<Simulator*> want_sim = {&h.shard(0), &h.shard(1),
                                            &h.shard(2)};
  EXPECT_EQ(seen_shard, want_shard);
  EXPECT_EQ(seen_sim, want_sim);
  EXPECT_EQ(ShardedEngine::CurrentShard(), -1) << "context leaked past Run";
  EXPECT_EQ(ShardedEngine::CurrentSim(), nullptr);
}

TEST(ShardedEngine, BarrierReplaysCrossShardSendsAfterTheEpoch) {
  Harness h(2, /*adaptive=*/false);
  h.SendAt(0, 0, 1);
  h.SendAt(1, 3, 0);
  h.shard(0).Run();
  // Both sends leave in epoch [0, W-1] and deliver at send + W, strictly
  // after that epoch's end.
  const std::vector<Fire> want = {
      {0, 0}, {1, 3}, {0, 3 + kLookahead}, {1, 0 + kLookahead}};
  EXPECT_EQ(h.log(), want);
  EXPECT_EQ(h.run_ends(), 1);
}

TEST(ShardedEngine, CoarseningKeepsTheScheduleAndBarrierHookCalls) {
  Harness uniform(3, /*adaptive=*/false);
  Harness adaptive(3, /*adaptive=*/true);
  for (Harness* h : {&uniform, &adaptive}) {
    h->Chain(0, 0, 10, 2 * kLookahead);
    h->shard(0).Run();
  }
  EXPECT_EQ(adaptive.log(), uniform.log());
  ASSERT_EQ(uniform.log().size(), 10u);
  // The hook runs at every uniform epoch boundary either way, so the
  // fabric's trace batch marks land in the same places.
  EXPECT_EQ(adaptive.barrier_times(), uniform.barrier_times());
  // Only the full synchronization rounds drop: the opening barrier and one
  // coarsened epoch, instead of one round per event.
  EXPECT_EQ(uniform.engine().epochs(), 11u);
  EXPECT_EQ(adaptive.engine().epochs(), 2u);
  const Tick end = 9 * 2 * kLookahead + kLookahead - 1;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(uniform.shard(i).now(), end) << "shard " << i;
    EXPECT_EQ(adaptive.shard(i).now(), end) << "shard " << i;
  }
}

TEST(ShardedEngine, CoarseningStopsAtTheFirstBufferedSend) {
  Harness uniform(2, /*adaptive=*/false);
  Harness adaptive(2, /*adaptive=*/true);
  for (Harness* h : {&uniform, &adaptive}) {
    h->Chain(0, 0, 3, 2 * kLookahead);  // t = 0, 20, 40
    h->SendAt(0, 50, 1);                // delivers on shard 1 at 60
    h->Mark(0, 70);                     // the epoch after [60, 69]
    h->shard(0).Run();
  }
  // The coarsened stretch ends at the epoch holding the send (end 59), so
  // shard 1 is back in a full epoch before its delivery at 60.
  const std::vector<Fire> want = {{0, 0},  {0, 20}, {0, 40},
                                  {0, 50}, {1, 60}, {0, 70}};
  EXPECT_EQ(uniform.log(), want);
  EXPECT_EQ(adaptive.log(), want);
  EXPECT_EQ(adaptive.barrier_times(), uniform.barrier_times());
  EXPECT_LT(adaptive.engine().epochs(), uniform.engine().epochs());
}

TEST(ShardedEngine, HeapShardsRunTheSameSchedule) {
  Harness wheel(3, /*adaptive=*/true, EventQueue::Impl::kTimingWheel);
  Harness heap(3, /*adaptive=*/true, EventQueue::Impl::kReferenceHeap);
  for (Harness* h : {&wheel, &heap}) {
    h->Chain(0, 0, 4, 3 * kLookahead);
    h->Chain(2, 5, 4, kLookahead / 2);
    h->SendAt(1, 7, 2);
    h->SendAt(2, 7, 0);
    h->shard(0).Run();
  }
  EXPECT_EQ(heap.log(), wheel.log());
  EXPECT_EQ(heap.barrier_times(), wheel.barrier_times());
  EXPECT_EQ(heap.engine().epochs(), wheel.engine().epochs());
}

TEST(ShardedEngine, RunWithNoEventsOnlyTakesTheOpeningBarrier) {
  Harness h(4, /*adaptive=*/true);
  h.shard(0).Run();
  EXPECT_TRUE(h.log().empty());
  EXPECT_EQ(h.engine().epochs(), 1u);
  EXPECT_EQ(h.run_ends(), 1);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(h.shard(i).now(), 0);
}

TEST(ShardedEngine, SendBufferedBetweenRunsIsReplayedBeforeTheFirstEpoch) {
  Harness h(2, /*adaptive=*/true);
  h.shard(0).RunUntil(30);
  // A send issued from control context between runs (as a Shutdown()
  // capsule is) must land at 30 + W even though shard 1 has nothing else
  // pending; the opening barrier injects it before any shard advances.
  h.Send(0, 1);
  h.shard(0).Run();
  const std::vector<Fire> want = {{1, 30 + kLookahead}};
  EXPECT_EQ(h.log(), want);
}

}  // namespace
}  // namespace gimbal
