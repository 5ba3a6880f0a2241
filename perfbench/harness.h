// Shared plumbing of the benchmark: host clocks, exact latency samples,
// failure reporting, benchmark-side spans and the per-layer metric sheet.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/time.h"

namespace perfbench {

using gimbal::Tick;

// Host wall clock in nanoseconds (steady).
inline int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A fixed loop of the benchmark's own, run between the rounds of a timed
// window to gauge how fast the host is at that moment. The VM the reference figures come from changes speed by 20-35 %
// over seconds, as other guests load the cores and caches it shares; host
// times are scaled to the speed the loop has on that VM, so that they
// measure the program, not the neighbours (README.md, "How a run is
// timed"). The loop mixes what the simulator does: a chase through 2 MiB
// of nodes, hash lookups, a binary heap of timestamps and indirect calls.
class SpeedProbe {
 public:
  SpeedProbe();
  // Run the loop once; returns its host ns.
  int64_t Run();
  // The factor that brings a host time to the reference speed, for an
  // interval in which one Run() took `ns_per_run` on average.
  static double Scale(double ns_per_run);

 private:
  struct Node {
    uint32_t next, val;
  };
  using Event = std::pair<uint64_t, uint32_t>;
  std::vector<Node> nodes_;
  std::unordered_map<uint32_t, uint32_t> map_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  std::vector<std::function<uint32_t(uint32_t)>> calls_;
  uint32_t at_ = 0;
  uint64_t sink_ = 0;
};

// Report a failed build step, run step or output check and exit non-zero.
// Never prints a result line.
[[noreturn]] void Fail(const std::string& workload, const std::string& step,
                       const std::string& what);

// Check `cond`; on failure name the workload, the check and the evidence.
void Expect(bool cond, const std::string& workload, const std::string& check,
            const std::string& detail);

// Exact simulated latencies (ns) of one operation type.
class Samples {
 public:
  void Add(Tick t) { v_.push_back(t); }
  size_t size() const { return v_.size(); }
  double MeanUs() const;
  // Nearest-rank quantile in microseconds; sorts in place.
  double QuantileUs(double q);

 private:
  std::vector<Tick> v_;
};

// Quantile of a log-bucketed histogram, linearly interpolated inside the
// bucket that holds the rank (the histogram itself only reports bucket
// upper bounds). Microseconds.
double InterpolatedQuantileUs(const gimbal::LatencyHistogram& h, double q);

// Resident memory of this process, MiB: now, and the high-water mark.
double RssMib();
double PeakRssMib();

// Benchmark-side spans around calls into the program's layers. A span's
// self time is its host time minus that of the spans nested in it; async
// spans (a call to its callback) also carry simulated ticks. Only traced
// runs record: a null SpanLog* costs one branch at each site.
class SpanLog {
 public:
  void Begin(const char* name);
  void End();
  // An asynchronous span's simulated duration (call to completion).
  void Async(const char* name, Tick sim_ticks);
  // Host ns of the `name` spans, total and self.
  int64_t TotalNs(const std::string& name) const;
  uint64_t Count(const std::string& name) const;
  void PrintSummary() const;

 private:
  struct Agg {
    uint64_t n = 0;
    int64_t host_ns = 0;
    int64_t self_ns = 0;
    uint64_t async_n = 0;
    Tick sim_ticks = 0;
  };
  struct Open {
    const char* name;
    int64_t start;
    int64_t child_ns;
  };
  std::map<std::string, Agg> agg_;
  std::vector<Open> stack_;
};

// RAII span; inert when `log` is null.
class Span {
 public:
  Span(SpanLog* log, const char* name) : log_(log) {
    if (log_) log_->Begin(name);
  }
  ~Span() {
    if (log_) log_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
};

// Per-layer metric sheet of a traced run, in BENCHMARK.json order. Every
// metric is present on every workload; a layer the workload does not
// exercise reports 0 (README.md lists where each one is defined).
class LayerSheet {
 public:
  LayerSheet();
  void Set(const std::string& name, double value);
  const std::vector<std::pair<std::string, std::string>>& names() const {
    return names_;
  }
  double Get(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, std::string>> names_;  // name, unit
  std::map<std::string, double> values_;
};

}  // namespace perfbench
