#include "workload/trace.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace gimbal::workload {

Trace ParseTrace(const std::string& text) {
  Trace out;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    TraceRecord r;
    std::string type;
    long long at = 0, offset = 0, length = 0;
    if (!(ls >> at >> type >> offset >> length)) {
      throw std::runtime_error("trace parse error at line " +
                               std::to_string(lineno));
    }
    if (type != "R" && type != "W") {
      throw std::runtime_error("trace: bad IO type at line " +
                               std::to_string(lineno));
    }
    if (at < 0 || offset < 0 || length <= 0) {
      throw std::runtime_error("trace: negative field at line " +
                               std::to_string(lineno));
    }
    r.at = at;
    r.type = type == "R" ? IoType::kRead : IoType::kWrite;
    r.offset = static_cast<uint64_t>(offset);
    r.length = static_cast<uint32_t>(length);
    int prio;
    if (ls >> prio && prio >= 0 && prio < kNumPriorities) {
      r.priority = static_cast<IoPriority>(prio);
    }
    out.push_back(r);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.at < b.at;
                   });
  return out;
}

Trace GenerateBurstyTrace(const BurstySpec& spec) {
  Trace out;
  Rng rng(spec.seed);
  const uint64_t slots = spec.region_bytes / spec.io_bytes;
  Tick t = 0;
  while (t < spec.total) {
    Tick burst_end = std::min<Tick>(t + spec.burst_duration, spec.total);
    Tick at = t;
    while (at < burst_end) {
      TraceRecord r;
      r.at = at;
      r.type = rng.NextBool(spec.read_ratio) ? IoType::kRead : IoType::kWrite;
      r.offset = rng.NextBounded(slots) * spec.io_bytes;
      r.length = spec.io_bytes;
      out.push_back(r);
      at += static_cast<Tick>(
                rng.NextExponential(kNsPerSec / spec.burst_iops)) +
            1;
    }
    t = burst_end + spec.idle_duration;
  }
  return out;
}

TraceWorker::TraceWorker(sim::Simulator& sim, fabric::Initiator& initiator,
                         Trace trace, bool loop)
    : sim_(sim), initiator_(initiator), trace_(std::move(trace)),
      loop_(loop) {}

void TraceWorker::Start() {
  if (running_ || trace_.empty()) return;
  running_ = true;
  started_ = true;
  epoch_ = sim_.now();
  cursor_ = 0;
  ScheduleNext();
}

void TraceWorker::ScheduleNext() {
  if (!running_) return;
  if (cursor_ >= trace_.size()) {
    if (!loop_) {
      running_ = false;
      return;
    }
    epoch_ = sim_.now();
    cursor_ = 0;
  }
  const TraceRecord& r = trace_[cursor_];
  Tick when = epoch_ + r.at;
  Tick delay = when > sim_.now() ? when - sim_.now() : 0;
  sim_.After(delay, [this]() {
    if (!running_) return;
    const TraceRecord& rec = trace_[cursor_++];
    ++issued_;
    initiator_.Submit(rec.type, rec.offset, rec.length, rec.priority,
                      [this](const IoCompletion& cpl, Tick e2e) {
                        stats_.Record(cpl, e2e);
                      });
    ScheduleNext();
  });
}

}  // namespace gimbal::workload
