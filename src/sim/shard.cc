#include "sim/shard.h"

#include <algorithm>
#include <cassert>

namespace gimbal::sim {

namespace {
thread_local int tls_shard = -1;
thread_local Simulator* tls_sim = nullptr;
}  // namespace

int ShardedEngine::CurrentShard() { return tls_shard; }
Simulator* ShardedEngine::CurrentSim() { return tls_sim; }

ShardedEngine::ShardedEngine(int num_shards, const Config& config)
    : lookahead_(config.lookahead), adaptive_(config.adaptive) {
  assert(num_shards >= 1);
  assert(lookahead_ > 0 && "conservative lookahead requires a positive "
                           "minimum cross-shard latency");
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Simulator>(config.impl));
  }
  shards_[0]->set_engine(this);
  active_.reserve(static_cast<size_t>(num_shards));
}

ShardedEngine::~ShardedEngine() { shards_[0]->set_engine(nullptr); }

void ShardedEngine::Step(int i) {
  Simulator* s = shards_[static_cast<size_t>(i)].get();
  tls_shard = i;
  tls_sim = s;
  s->StepUntil(epoch_end_);
  tls_shard = -1;
  tls_sim = nullptr;
}

bool ShardedEngine::ComputeEpoch(Tick deadline) {
  Tick earliest = kNone;
  sole_live_ = -1;
  int live_shards = 0;
  const int n = num_shards();
  for (int i = 0; i < n; ++i) {
    EventQueue& q = shards_[static_cast<size_t>(i)]->queue();
    if (q.empty()) continue;
    ++live_shards;
    sole_live_ = i;
    const Tick t = q.next_time();
    if (earliest == kNone || t < earliest) earliest = t;
  }
  if (live_shards != 1) sole_live_ = -1;
  if (earliest == kNone || (deadline != kNone && earliest > deadline)) {
    return false;
  }
  // Uniform conservative bound: any shard may send to any other, and no
  // send issued at or after `earliest` can deliver inside the epoch.
  epoch_end_ = earliest + lookahead_ - 1;
  if (deadline != kNone) epoch_end_ = std::min(epoch_end_, deadline);
  return true;
}

// Coarsened epoch: exactly one shard holds events and (right after a
// barrier) no send is buffered, so nothing can influence that shard until
// one of its own sends completes a round trip. Run its uniform sub-epochs
// back to back. Each quiet sub-boundary still runs the barrier hook —
// replay is a no-op there, but the testbed's trace batch marks must land
// exactly where the uniform engine would have put them, which is what
// keeps the stitched trace byte-identical. Stop at the first sub-epoch
// that buffers a send: its delivery seeds another shard at send + W, and
// the engine returns to normal epochs.
void ShardedEngine::RunCoarse(Tick deadline) {
  Simulator* s = shards_[static_cast<size_t>(sole_live_)].get();
  for (;;) {
    Step(sole_live_);
    if (pending_sends_fn_()) break;
    EventQueue& q = s->queue();
    if (q.empty()) break;
    const Tick t = q.next_time();
    if (deadline != kNone && t > deadline) break;
    if (barrier_fn_) barrier_fn_();  // quiet sub-epoch close
    epoch_end_ = t + lookahead_ - 1;
    if (deadline != kNone) epoch_end_ = std::min(epoch_end_, deadline);
  }
  // Idle shards advance to the (final) epoch end exactly as RunEpoch's
  // uniform path would have advanced them sub-epoch by sub-epoch.
  const int n = num_shards();
  for (int i = 0; i < n; ++i) {
    if (i == sole_live_) continue;
    Simulator* idle = shards_[static_cast<size_t>(i)].get();
    if (idle->now() < epoch_end_) idle->StepUntil(epoch_end_);
  }
}

void ShardedEngine::RunEpoch(Tick deadline) {
  if (adaptive_ && sole_live_ >= 0 && pending_sends_fn_) {
    RunCoarse(deadline);
    return;
  }
  active_.clear();
  const int n = num_shards();
  for (int i = 0; i < n; ++i) {
    Simulator* s = shards_[static_cast<size_t>(i)].get();
    if (!s->queue().empty() && s->queue().next_time() <= epoch_end_) {
      active_.push_back(i);
    } else if (s->now() < epoch_end_) {
      // Idle shard: advance its clock directly so injected deliveries and
      // later control-context At() calls see a consistent `now`.
      s->StepUntil(epoch_end_);
    }
  }
  for (int i : active_) Step(i);
}

void ShardedEngine::Barrier() {
  ++epochs_;
  if (barrier_fn_) barrier_fn_();
}

void ShardedEngine::RunEnd() {
  if (run_end_fn_) run_end_fn_();
}

void ShardedEngine::EngineRunUntil(Tick deadline) {
  // Replay sends buffered from control context (e.g. a Shutdown() between
  // runs) before the first epoch: running an epoch first could advance a
  // shard's clock past the buffered send's delivery time.
  Barrier();
  while (ComputeEpoch(deadline)) {
    RunEpoch(deadline);
    Barrier();
  }
  for (auto& s : shards_) {
    if (s->now() < deadline) s->StepUntil(deadline);
  }
  RunEnd();
}

void ShardedEngine::EngineRunToIdle() {
  Barrier();  // see EngineRunUntil
  while (ComputeEpoch(kNone)) {
    RunEpoch(kNone);
    Barrier();
  }
  // A coarsened final epoch can leave the live shard ahead of the rest;
  // equalize on the furthest clock so control-context sends issued after
  // this run (e.g. Shutdown capsules) deliver in every shard's future,
  // exactly as the uniform-epoch engine left things.
  Tick latest = 0;
  for (auto& s : shards_) latest = std::max(latest, s->now());
  for (auto& s : shards_) {
    if (s->now() < latest) s->StepUntil(latest);
  }
  RunEnd();
}

}  // namespace gimbal::sim
