// Tenant-scale open-loop traffic engine (ROADMAP item 3).
//
// Drives a large population of short-lived open-loop sessions — up to and
// beyond 100k concurrently — through a Testbed. Each live session is one
// seat: a fresh tenant id, a caller-owned Initiator (capsule connect, so
// mid-run bring-up is shard-safe), and an OpenLoopWorker whose offered
// rate comes from a heavy-tailed RatePlan (a handful of seats carry most
// of the load) modulated by a shared ArrivalSpec (burst storms, diurnal
// swing).
//
// Churn: with session_lifetime_mean > 0 every session lives an
// exponential lifetime, disconnects gracefully, and its seat immediately
// starts a replacement under a brand-new tenant id. A retired session
// moves to the graveyard until its last completion drains (the fabric may
// still deliver completions to its sink), then its memory is reclaimed by
// the periodic sweep — so steady-state memory is O(seats + draining), not
// O(sessions ever).
//
// Every session's completions feed the SloTracker (obs/slo.h); call
// Stop(), run the sim to idle, then ExportSlo() into a registry.
//
// Client-side stats are fleet-wide: every worker records into one
// WorkerStats the fleet owns, so a session carries no latency histogram
// (~2.6 KiB of memory in all, down the stack) and TotalStats() is a copy.
//
// All fleet activity — stagger timers, lifetime timers, RNG draws, the
// sweep — executes on the testbed's client-domain simulator (shard 0), so
// a sharded engine replays the exact same schedule at any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "obs/slo.h"
#include "workload/arrivals.h"
#include "workload/openloop.h"
#include "workload/runner.h"

namespace gimbal::workload {

struct FleetSpec {
  uint64_t sessions = 1000;     // concurrent seats
  RatePlan rates;               // per-seat offered rate (rank = seat)
  ArrivalSpec arrival;          // shared modulation (burst/diurnal)
  double read_ratio = 1.0;
  uint32_t io_bytes = 4096;
  uint32_t max_outstanding = 64;  // per session; beyond it arrivals shed
  // Exponential mean session lifetime; 0 = sessions live forever.
  Tick session_lifetime_mean = 0;
  // Bring-up is staggered uniformly over this span (a 100k-timer stampede
  // at t=0 is legal but pointless).
  Tick rampup = Milliseconds(1);
  uint64_t seed = 1;
  obs::SloSpec slo;             // latency objectives; default disabled
};

class OpenLoopFleet {
 public:
  // Sessions round-robin over the testbed's pipelines. The fleet must be
  // destroyed before the testbed (declare it after).
  OpenLoopFleet(Testbed& bed, FleetSpec spec);
  ~OpenLoopFleet();

  // Schedule the staggered bring-up; idempotent.
  void Start();

  // Retire every session (graceful disconnect, no replacements). Run the
  // sim to idle afterwards, then the graveyard drains to empty.
  void Stop();

  obs::SloTracker& slo() { return slo_; }
  // FinalizeWindows + Export into `reg` (call once, after the drain).
  void ExportSlo(obs::MetricsRegistry& reg);

  uint64_t connects() const { return connects_; }
  uint64_t disconnects() const { return disconnects_; }
  size_t active_sessions() const { return active_; }
  size_t draining_sessions() const { return graveyard_.size(); }

  // Cumulative stats over every session, live and dead: the completions
  // each session saw while it was live. A session stops recording when it
  // retires, so its in-flight tail and the queued IOs its disconnect
  // aborts are not here; the switch counters and the SloTracker (ok ones)
  // still see them. Shed arrivals (worker hit max_outstanding) are in
  // `dropped`.
  struct Totals {
    WorkerStats stats;
    uint64_t dropped = 0;
  };
  Totals TotalStats() const { return {stats_, stats_.dropped}; }

  // Reclaim graveyard sessions whose initiators have fully drained;
  // returns the number still draining. Runs automatically on a timer
  // while anything is parting; exposed for tests to assert emptiness.
  size_t SweepGraveyard();

 private:
  struct Session {
    std::unique_ptr<fabric::Initiator> init;
    std::unique_ptr<OpenLoopWorker> worker;
    sim::TimerHandle lifetime;
  };

  void StartSession(uint32_t seat);
  void EndSession(uint32_t seat, bool replace);
  void Retire(std::unique_ptr<Session> s);
  void ArmSweep();

  Testbed& bed_;
  FleetSpec spec_;
  Rng rng_;
  obs::SloTracker slo_;
  WorkerStats stats_;  // every session's worker records here
  std::vector<std::unique_ptr<Session>> seats_;
  std::vector<std::unique_ptr<Session>> graveyard_;
  sim::TimerHandle sweep_timer_;
  uint64_t connects_ = 0;
  uint64_t disconnects_ = 0;
  size_t active_ = 0;
  bool started_ = false;
  bool running_ = false;
};

}  // namespace gimbal::workload
