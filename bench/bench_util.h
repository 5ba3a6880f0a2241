// Shared helpers for the reproduction bench binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <cinttypes>

#include "common/histogram.h"
#include "common/time.h"
#include "obs/obs.h"
#include "sim/simulator.h"
#include "workload/fio.h"
#include "workload/report.h"
#include "workload/runner.h"

namespace gimbal::bench {

using workload::FioSpec;
using workload::FioWorker;
using workload::Scheme;
using workload::SsdCondition;
using workload::Table;
using workload::Testbed;
using workload::TestbedConfig;

// Observability sinks shared by every testbed the binary builds, or nullptr
// when the user asked for no machine-readable output (the default — the
// tracer's and registry's hot paths then cost one branch each).
inline obs::Observability* g_obs = nullptr;

inline obs::Observability* CurrentObs() { return g_obs; }

// --quick: shrink the run matrix/windows so the binary finishes in seconds
// (the golden-figure regression configs — docs/TESTING.md). Each bench
// decides what "quick" means for its own matrix; trends must survive, exact
// paper numbers need the full run.
inline bool g_quick = false;
inline bool Quick() { return g_quick; }

// --seed=N: shift every workload RNG seed so the same figure can be
// replayed under fresh randomness (golden runs pin the default).
inline uint64_t g_seed = 0;

// --queue=wheel|heap: event-queue engine for every testbed the binary
// builds. The heap is the ordering oracle; golden digests must match the
// wheel's bit-for-bit (docs/SIMULATOR.md).
inline sim::EventQueue::Impl g_queue = sim::EventQueue::Impl::kTimingWheel;

// Per-binary observability session. Construct first thing in main():
//
//   int main(int argc, char** argv) {
//     gimbal::bench::ObsSession obs(argc, argv);
//     ...
//
// Flags (see docs/OBSERVABILITY.md):
//   --metrics-out=PATH   write the final metrics snapshot (.csv => CSV,
//                        anything else => JSON)
//   --trace-out=PATH     enable the event tracer and write the trace
//                        (.jsonl => compact JSONL, anything else =>
//                        chrome://tracing JSON)
//   --trace-limit=N      cap the trace at N events (default 1M); events
//                        past the cap are counted, not stored
//
// Regression-harness flags (docs/TESTING.md):
//   --quick              shrink the bench to its golden-figure quick config
//   --seed=N             shift workload RNG seeds by N (default 0)
//   --queue=wheel|heap   event-queue engine (default wheel)
//   --digest-out=PATH    enable the tracer and write its FNV digest as
//                        16 hex chars; bit-identical across runs and
//                        wheel/heap for the same config
//
// Files are written when the session goes out of scope at the end of main.
class ObsSession {
 public:
  ObsSession(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (TakeValue(a, "--metrics-out=", &metrics_path_)) continue;
      if (TakeValue(a, "--trace-out=", &trace_path_)) continue;
      if (TakeValue(a, "--digest-out=", &digest_path_)) continue;
      if (a == "--quick") {
        g_quick = true;
        continue;
      }
      std::string seed;
      if (TakeValue(a, "--seed=", &seed)) {
        char* end = nullptr;
        g_seed = std::strtoull(seed.c_str(), &end, 10);
        if (end == seed.c_str() || *end != '\0') {
          std::fprintf(stderr, "warning: bad --seed '%s', keeping 0\n",
                       seed.c_str());
          g_seed = 0;
        }
        continue;
      }
      std::string queue;
      if (TakeValue(a, "--queue=", &queue)) {
        if (queue == "wheel") {
          g_queue = sim::EventQueue::Impl::kTimingWheel;
        } else if (queue == "heap") {
          g_queue = sim::EventQueue::Impl::kReferenceHeap;
        } else {
          std::fprintf(stderr, "warning: bad --queue '%s', keeping wheel\n",
                       queue.c_str());
        }
        continue;
      }
      std::string limit;
      if (TakeValue(a, "--trace-limit=", &limit)) {
        char* end = nullptr;
        const uint64_t n = std::strtoull(limit.c_str(), &end, 10);
        if (end == limit.c_str() || *end != '\0' || n == 0) {
          std::fprintf(stderr,
                       "warning: bad --trace-limit '%s', keeping %llu\n",
                       limit.c_str(),
                       static_cast<unsigned long long>(trace_limit_));
        } else {
          trace_limit_ = n;
        }
        continue;
      }
      std::fprintf(stderr, "warning: ignoring unknown flag '%s'\n", a.c_str());
    }
    if (metrics_path_.empty() && trace_path_.empty() && digest_path_.empty()) {
      return;
    }
    if (!digest_path_.empty() && trace_limit_ < (4u << 20)) {
      // The digest must cover every event a quick run emits; a truncated
      // trace would hash differently depending on unrelated flag order.
      trace_limit_ = 4u << 20;
    }
    if (!trace_path_.empty() || !digest_path_.empty()) {
      obs_.tracer.Enable(trace_limit_);
    }
    g_obs = &obs_;
  }

  ~ObsSession() {
    if (g_obs == &obs_) g_obs = nullptr;
    if (!metrics_path_.empty()) {
      WriteOut(metrics_path_, obs_.metrics.WriteFile(metrics_path_));
    }
    if (!trace_path_.empty()) {
      WriteOut(trace_path_, obs_.tracer.WriteFile(trace_path_));
    }
    if (!digest_path_.empty()) {
      if (obs_.tracer.dropped() > 0) {
        std::fprintf(stderr,
                     "error: trace overflowed (%zu dropped); digest of a "
                     "truncated trace is meaningless — raise --trace-limit\n",
                     obs_.tracer.dropped());
      }
      std::FILE* f = std::fopen(digest_path_.c_str(), "w");
      if (!f) {
        WriteOut(digest_path_, false);
      } else {
        std::fprintf(f, "%016" PRIx64 "\n", obs_.tracer.Digest());
        std::fclose(f);
      }
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  obs::Observability* obs() { return g_obs; }

 private:
  static bool TakeValue(const std::string& arg, const char* prefix,
                        std::string* out) {
    const size_t n = std::string::traits_type::length(prefix);
    if (arg.compare(0, n, prefix) != 0) return false;
    *out = arg.substr(n);
    return true;
  }

  static void WriteOut(const std::string& path, bool ok) {
    if (!ok) {
      std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    }
  }

  obs::Observability obs_;
  std::string metrics_path_;
  std::string trace_path_;
  std::string digest_path_;
  uint64_t trace_limit_ = obs::EventTracer::kDefaultLimit;
};

// Bandwidth in MB/s a worker achieved over the measurement window.
inline double WorkerMBps(FioWorker& w, Tick window) {
  return BytesToMiB(w.stats().total_bytes()) / ToSec(window);
}

inline double AggregateMBps(Testbed& bed) {
  uint64_t bytes = 0;
  for (auto& w : bed.workers()) bytes += w->stats().total_bytes();
  return BytesToMiB(bytes) / ToSec(bed.measured());
}

// Merge latency histograms of a worker subset by IO type.
inline LatencyHistogram MergedLatency(Testbed& bed, IoType type,
                                      size_t first = 0,
                                      size_t count = SIZE_MAX) {
  LatencyHistogram all;
  auto& ws = bed.workers();
  for (size_t i = first; i < ws.size() && i - first < count; ++i) {
    all.Merge(type == IoType::kRead ? ws[i]->stats().read_latency
                                    : ws[i]->stats().write_latency);
  }
  return all;
}

// Default testbed for the microbenchmarks (§5.1-like): one SSD behind a
// SmartNIC target. Logical capacity is scaled so preconditioning stays
// cheap; all bandwidth targets are capacity-independent.
inline TestbedConfig MicroConfig(Scheme scheme, SsdCondition cond) {
  TestbedConfig cfg;
  cfg.scheme = scheme;
  cfg.condition = cond;
  cfg.ssd.logical_bytes = 512ull << 20;
  cfg.obs = CurrentObs();
  cfg.queue_impl = g_queue;
  return cfg;
}

// The paper's fio defaults (§5.1): QD 4 for 128 KiB, QD 32 for 4 KiB;
// reads random; 128 KiB writes sequential, 4 KiB writes random.
inline FioSpec PaperSpec(uint32_t io_bytes, bool is_write, uint64_t seed) {
  FioSpec s;
  s.io_bytes = io_bytes;
  s.read_ratio = is_write ? 0.0 : 1.0;
  s.queue_depth = io_bytes >= 128 * 1024 ? 4 : 32;
  s.sequential = is_write && io_bytes >= 128 * 1024;
  s.seed = seed + g_seed;
  return s;
}

}  // namespace gimbal::bench
