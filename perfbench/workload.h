// The benchmark's workload interface and the probes the Testbed-based
// workloads share.
//
// A run builds the workload's world (Setup), then advances it in rounds of
// a fixed simulated length. The first window_rounds() rounds are the
// simulated window: every simulated metric and every per-layer counter
// covers exactly those rounds, so they are a pure function of the seed.
// Host-time metrics cover every round of the timed window.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/gimbal_switch.h"
#include "harness.h"
#include "obs/obs.h"
#include "workload/runner.h"

namespace perfbench {

// Simulated end-to-end figures of the simulated window.
struct SimFigures {
  uint64_t ops = 0;
  uint64_t bytes = 0;  // client payload
  Tick window = 0;     // simulated length
  uint64_t reads = 0, writes = 0;  // latency sample counts
  double read_p50_us = 0, read_p999_us = 0;
  double write_p50_us = 0, write_p999_us = 0;
};

// Client-side ledger of a closed-loop workload: every operation completes
// exactly once with an ok status, the current round's operation count, and
// the simulated window's latency samples and payload.
class OpLedger {
 public:
  explicit OpLedger(const char* workload) : workload_(workload) {}

  // Advance to the next round; samples are kept while `record` holds.
  void StartRound(bool record) {
    record_ = record;
    round_ops_ = 0;
  }
  bool recording() const { return record_; }
  uint64_t round_ops() const { return round_ops_; }

  // Id of a newly issued operation.
  uint64_t Issue() {
    outstanding_.insert(++issued_);
    return issued_;
  }
  // Operation `id` completed; Fail on a non-ok status or a second completion.
  void Complete(uint64_t id, gimbal::IoStatus status, bool read,
                uint64_t bytes, Tick latency);
  // After the drain: every issued operation completed.
  void CheckAllCompleted() const;

  SimFigures Figures(Tick window);
  // Mean simulated latency of the window's operations, in microseconds.
  double MeanUs() const;
  uint64_t window_ops() const { return window_ops_; }

 private:
  const char* workload_;
  std::unordered_set<uint64_t> outstanding_;
  uint64_t issued_ = 0, completed_ = 0, round_ops_ = 0;
  bool record_ = false;
  Samples reads_, writes_;
  uint64_t window_ops_ = 0, window_bytes_ = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Build the world: testbed construction, device conditioning, KV load,
  // tenant bring-up and the simulated warm-up. Traced runs pass the
  // program's Observability and the benchmark's span log; untraced runs
  // pass nulls.
  virtual void Setup(uint64_t seed, gimbal::obs::Observability* obs,
                     SpanLog* spans) = 0;
  virtual void Teardown() = 0;

  // Rounds in the simulated window.
  virtual int window_rounds() const = 0;
  // Advance one round; latency samples are kept while `record` holds.
  // Returns the client operations completed in the round.
  virtual uint64_t RunRound(bool record) = 0;

  // Stop issuing, run to idle and check the outputs (Fail on a violation).
  virtual void DrainAndCheck() = 0;
  virtual SimFigures Figures() = 0;

  // Traced runs: snapshot counters at the start of the simulated window,
  // then read the per-layer metrics right after its last round.
  // `window_host_ns` is the host time of the same window untraced.
  virtual void BeginWindow() = 0;
  virtual void Layers(LayerSheet& sheet, int64_t window_host_ns) = 0;
  // Traced runs: the standalone ssd/core loops, on this workload's own
  // request stream, after the world is torn down.
  virtual void Standalone(uint64_t seed, LayerSheet& sheet) {
    (void)seed;
    (void)sheet;
  }
};

std::unique_ptr<Workload> MakeFioFragMix();
std::unique_ptr<Workload> MakeKvYcsbRack();
std::unique_ptr<Workload> MakeFleetOpenloop();
std::unique_ptr<Workload> MakeSwitchPipeline();

// Counter snapshot of a Testbed, for the per-layer metrics every
// Testbed-based workload shares (sim, ssd, core switch, fabric, check, obs).
struct BedSnapshot {
  uint64_t events = 0;
  uint64_t epochs = 0;
  uint64_t net_bytes = 0;
  uint64_t uplink_bytes = 0;
  uint64_t checks = 0;
  uint64_t trace_events = 0;
  uint64_t gc_runs = 0;
  uint64_t read_pages = 0;
  uint64_t buffer_hit_pages = 0;
  uint64_t host_pages = 0;
  uint64_t gc_pages = 0;
  uint64_t pacing_stalls = 0;
  uint64_t congestion_signals = 0;
  Tick now = 0;

  static BedSnapshot Take(gimbal::workload::Testbed& bed,
                          gimbal::obs::Observability* obs);
};

// Fill the shared per-layer metrics from two snapshots over `ops` client
// operations with mean client latency `client_mean_us` (negative when a
// client operation is not one fabric IO, which leaves fabric.transit_us
// undefined). `obs` must be the testbed's session Observability, reset at
// the window start by ResetWindowMetrics.
void SharedLayers(LayerSheet& sheet, gimbal::workload::Testbed& bed,
                  gimbal::obs::Observability& obs, const BedSnapshot& a,
                  const BedSnapshot& b, uint64_t ops, double client_mean_us,
                  int64_t window_host_ns);

// Start the simulated window of a traced testbed: flush shard metrics into
// the session registry and reset the run's totals there.
void ResetWindowMetrics(gimbal::workload::Testbed& bed,
                        gimbal::obs::Observability& obs);

// Standalone per-IO host cost of the Gimbal stages and of the vanilla
// pipeline, on `stream` (Table 1a's quantity). Fills the core.*_ns_per_io
// metrics and core.gimbal_over_vanilla.
void CoreLoops(const std::vector<gimbal::IoRequest>& stream, uint32_t depth,
               LayerSheet& sheet);

}  // namespace perfbench
