#include "workload/fio.h"

#include <cassert>

namespace gimbal::workload {

FioWorker::FioWorker(sim::Simulator& sim, fabric::Initiator& initiator,
                     FioSpec spec)
    : sim_(sim), initiator_(initiator), spec_(spec), rng_(spec.seed) {
  assert(spec_.region_bytes >= spec_.io_bytes && "region not set");
  // Sequential workers start at a seed-dependent position so concurrent
  // sequential streams do not all hammer the same LBAs (fio's per-job file
  // offsets behave the same way).
  seq_cursor_ = rng_.NextBounded(spec_.region_bytes / spec_.io_bytes);
}

void FioWorker::Start() {
  if (running_) return;
  running_ = true;
  for (uint32_t i = 0; i < spec_.queue_depth; ++i) ScheduleNext();
}

uint64_t FioWorker::NextOffset(IoType /*type*/) {
  const uint64_t slots = spec_.region_bytes / spec_.io_bytes;
  uint64_t slot = spec_.sequential ? (seq_cursor_++ % slots)
                                   : rng_.NextBounded(slots);
  return spec_.region_offset + slot * spec_.io_bytes;
}

void FioWorker::ScheduleNext() {
  if (!running_) return;
  if (spec_.rate_cap_bps <= 0) {
    IssueOne();
    return;
  }
  // Rate cap: space issues so that the average byte rate stays at the cap.
  Tick now = sim_.now();
  Tick gap = TransferTime(spec_.io_bytes, spec_.rate_cap_bps);
  Tick when = next_allowed_ < now ? now : next_allowed_;
  next_allowed_ = when + gap;
  if (when <= now) {
    IssueOne();
  } else {
    sim_.After(when - now, [this]() {
      if (running_) IssueOne();
    });
  }
}

void FioWorker::IssueOne() {
  IoType type = rng_.NextBool(spec_.read_ratio) ? IoType::kRead
                                                : IoType::kWrite;
  ++outstanding_;
  initiator_.Submit(type, NextOffset(type), spec_.io_bytes, spec_.priority,
                    [this](const IoCompletion& cpl, Tick e2e) {
                      OnDone(cpl, e2e);
                    });
}

void FioWorker::OnDone(const IoCompletion& cpl, Tick e2e) {
  --outstanding_;
  stats_.Record(cpl, e2e);
  // A dead connection rejects every resubmission instantly; looping on it
  // would spin the event queue forever. Transient failures (media errors,
  // fail-fast drains) keep the closed loop going.
  if (!cpl.ok() && initiator_.shutdown()) {
    running_ = false;
    return;
  }
  ScheduleNext();
}

}  // namespace gimbal::workload
