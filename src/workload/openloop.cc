#include "workload/openloop.h"

#include <cassert>

namespace gimbal::workload {

OpenLoopWorker::OpenLoopWorker(sim::Simulator& sim,
                               fabric::Initiator& initiator,
                               OpenLoopSpec spec, WorkerStats& stats)
    : sim_(sim),
      initiator_(initiator),
      spec_(spec),
      rng_(spec.seed),
      // The MMPP dwell machine draws from its own stream so burst phase is
      // a property of the seed, not of how many IOs happened to arrive.
      arrival_(spec.arrival, spec.seed ^ 0x6275727374ULL),
      stats_(stats) {
  assert(spec_.region_bytes >= spec_.io_bytes && "region not set");
  assert(spec_.offered_iops > 0);
  seq_cursor_ = rng_.NextBounded(spec_.region_bytes / spec_.io_bytes);
}

void OpenLoopWorker::Start() {
  if (running_) return;
  running_ = true;
  ScheduleArrival();
}

void OpenLoopWorker::ScheduleArrival() {
  const Tick gap = arrival_.NextGap(spec_.offered_iops, sim_.now(), rng_);
  arrival_timer_ = sim_.After(gap, [this]() {
    if (!running_) return;
    Arrive();
    ScheduleArrival();
  });
}

void OpenLoopWorker::Arrive() {
  if (outstanding_ >= spec_.max_outstanding) {
    // The system is hopelessly behind the offered load; shedding arrivals
    // keeps memory bounded (the latency histogram already shows the
    // explosion by this point).
    ++stats_.dropped;
    return;
  }
  IoType type =
      rng_.NextBool(spec_.read_ratio) ? IoType::kRead : IoType::kWrite;
  const uint64_t slots = spec_.region_bytes / spec_.io_bytes;
  uint64_t slot =
      spec_.sequential ? (seq_cursor_++ % slots) : rng_.NextBounded(slots);
  ++outstanding_;
  initiator_.Submit(
      type, spec_.region_offset + slot * spec_.io_bytes, spec_.io_bytes,
      spec_.priority, [this](const IoCompletion& cpl, Tick e2e) {
        --outstanding_;
        if (running_) stats_.Record(cpl, e2e);
        if (sample_) sample_(cpl.tenant, cpl, e2e);
      });
}

}  // namespace gimbal::workload
