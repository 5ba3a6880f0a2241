// fio-style synthetic workload driver (§5.1).
//
// A FioWorker plays one tenant: a closed loop keeping `queue_depth` IOs
// outstanding against one Initiator, with the knobs the paper's fio
// configurations use — IO size, read/write mix, random/sequential pattern,
// optional rate cap (Fig 9's 200/60 MB/s workers). Latencies are recorded
// end-to-end as the client observes them, split by IO type.
#pragma once

#include <cstdint>
#include <memory>

#include "common/histogram.h"
#include "common/rng.h"
#include "fabric/initiator.h"
#include "nvme/types.h"
#include "sim/simulator.h"

namespace gimbal::workload {

struct FioSpec {
  double read_ratio = 1.0;        // fraction of IOs that are reads
  uint32_t io_bytes = 4096;
  bool sequential = false;        // LBA pattern
  uint32_t queue_depth = 32;
  IoPriority priority = IoPriority::kNormal;
  double rate_cap_bps = 0;        // 0 = unlimited
  uint64_t region_offset = 0;     // byte range this worker touches
  uint64_t region_bytes = 0;      // 0 = whole device (set by the testbed)
  uint64_t seed = 1;
};

struct WorkerStats {
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t read_ios = 0;
  uint64_t write_ios = 0;
  // IOs that terminated with a non-ok status (docs/FAULTS.md); excluded
  // from the byte totals and latency histograms.
  uint64_t failed_ios = 0;
  // Open-loop arrivals shed at max_outstanding (closed loops never shed).
  uint64_t dropped = 0;
  LatencyHistogram read_latency;
  LatencyHistogram write_latency;

  uint64_t total_bytes() const { return read_bytes + write_bytes; }
  uint64_t total_ios() const { return read_ios + write_ios; }
  void Reset() { *this = WorkerStats{}; }
  // Counts one completion with its client-observed e2e latency.
  void Record(const IoCompletion& cpl, Tick e2e) {
    if (!cpl.ok()) {
      ++failed_ios;
    } else if (cpl.type == IoType::kRead) {
      read_bytes += cpl.length;
      ++read_ios;
      read_latency.Record(e2e);
    } else {
      write_bytes += cpl.length;
      ++write_ios;
      write_latency.Record(e2e);
    }
  }
};

class FioWorker {
 public:
  FioWorker(sim::Simulator& sim, fabric::Initiator& initiator, FioSpec spec);

  // Begin the closed loop; idempotent.
  void Start();
  // Stop issuing new IOs (outstanding ones drain naturally).
  void Stop() { running_ = false; }
  bool running() const { return running_; }

  WorkerStats& stats() { return stats_; }
  const FioSpec& spec() const { return spec_; }
  fabric::Initiator& initiator() { return initiator_; }

 private:
  void IssueOne();
  void OnDone(const IoCompletion& cpl, Tick e2e);
  uint64_t NextOffset(IoType type);
  // Rate cap bookkeeping: earliest time the next IO may be issued.
  void ScheduleNext();

  sim::Simulator& sim_;
  fabric::Initiator& initiator_;
  FioSpec spec_;
  Rng rng_;
  WorkerStats stats_;
  bool running_ = false;
  uint32_t outstanding_ = 0;
  uint64_t seq_cursor_ = 0;
  Tick next_allowed_ = 0;  // rate cap pacing
};

}  // namespace gimbal::workload
