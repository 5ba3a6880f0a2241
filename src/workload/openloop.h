// Open-loop workload driver: IOs arrive on an arrival process at an
// offered rate independent of completions (unlike FioWorker's closed
// loop). This is the right tool for latency-vs-offered-load curves — a
// closed loop self-throttles at the knee and hides the latency explosion.
//
// The arrival process defaults to Poisson (draw-for-draw identical to the
// original generator) and can be modulated per ArrivalSpec: MMPP burst
// storms and a diurnal sinusoid, sampled exactly by thinning
// (workload/arrivals.h). Large populations of workers with heavy-tailed
// per-session rates are orchestrated by the OpenLoopFleet
// (workload/fleet.h), which owns one OpenLoopWorker per live session and
// one WorkerStats that all of them record into.
#pragma once

#include <cstdint>
#include <functional>

#include "common/histogram.h"
#include "common/rng.h"
#include "fabric/initiator.h"
#include "workload/arrivals.h"
#include "workload/fio.h"

namespace gimbal::workload {

struct OpenLoopSpec {
  double offered_iops = 10'000;   // mean arrival rate
  double read_ratio = 1.0;
  uint32_t io_bytes = 4096;
  bool sequential = false;
  IoPriority priority = IoPriority::kNormal;
  uint64_t region_offset = 0;
  uint64_t region_bytes = 0;      // 0 = whole device (set by caller)
  uint32_t max_outstanding = 4096;  // sanity cap; beyond it arrivals drop
  uint64_t seed = 1;
  // Rate modulation over the base process; the default is pure Poisson.
  ArrivalSpec arrival;
};

// Records completions and shed arrivals into a caller-owned WorkerStats
// (which must outlive the worker), so many workers can share one record.
class OpenLoopWorker {
 public:
  // Per-completion hook (fleet SLO tracking): tenant, completion,
  // client-observed e2e latency. Fires for every completion, ok or not,
  // after the stats update — including completions after Stop().
  using SampleFn =
      std::function<void(TenantId, const IoCompletion&, Tick e2e)>;

  OpenLoopWorker(sim::Simulator& sim, fabric::Initiator& initiator,
                 OpenLoopSpec spec, WorkerStats& stats);

  void Start();
  // Stops the arrival process and cancels the pending arrival timer, so a
  // stopped worker leaves nothing in the event queue that references it —
  // the fleet reclaims workers mid-run relying on exactly this. IOs that
  // complete after Stop() are not recorded into the stats.
  void Stop() {
    running_ = false;
    arrival_timer_.Cancel();
  }
  bool running() const { return running_; }

  void set_sample_fn(SampleFn fn) { sample_ = std::move(fn); }

  uint32_t outstanding() const { return outstanding_; }
  const OpenLoopSpec& spec() const { return spec_; }

 private:
  void ScheduleArrival();
  void Arrive();

  sim::Simulator& sim_;
  fabric::Initiator& initiator_;
  OpenLoopSpec spec_;
  Rng rng_;
  ArrivalProcess arrival_;
  sim::TimerHandle arrival_timer_;
  WorkerStats& stats_;
  SampleFn sample_;
  bool running_ = false;
  uint32_t outstanding_ = 0;
  uint64_t seq_cursor_ = 0;
};

}  // namespace gimbal::workload
