// fio_frag_mix: the paper's core scenario (§5.1). One JBOF node with two
// fragmented SSDs under Gimbal; each SSD serves the four fio classes as
// four closed-loop tenants driven through Initiator::Submit.
#include "common/rng.h"
#include "ssd/ssd.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace gimbal;

constexpr const char* kName = "fio_frag_mix";
constexpr int kSsds = 2;
constexpr Tick kWarmup = Milliseconds(1500);
constexpr Tick kRound = Milliseconds(10);
constexpr int kWindowRounds = 400;

struct FioClass {
  const char* name;
  IoType type;
  uint32_t bytes;
  bool sequential;
  uint32_t qd;
};

constexpr FioClass kClasses[] = {
    {"randread4k", IoType::kRead, 4096, false, 32},
    {"randread128k", IoType::kRead, 128 * 1024, false, 4},
    {"randwrite4k", IoType::kWrite, 4096, false, 32},
    {"seqwrite128k", IoType::kWrite, 128 * 1024, true, 4},
};
constexpr int kClassCount = 4;

// Reads and writes touch disjoint halves of the device, so no read is
// served from the write buffer and every read pays a NAND sense.
struct Region {
  uint64_t offset, bytes;
};
Region RegionFor(const FioClass& c, uint64_t capacity) {
  return c.type == IoType::kRead ? Region{0, capacity / 2}
                                 : Region{capacity / 2, capacity / 2};
}

uint64_t NextOffset(const FioClass& c, Region r, Rng& rng, uint64_t& cursor) {
  const uint64_t slots = r.bytes / c.bytes;
  uint64_t slot;
  if (c.sequential) {
    slot = cursor++ % slots;
  } else {
    slot = rng.NextBounded(slots);
  }
  return r.offset + slot * c.bytes;
}

class FioFragMix : public Workload {
 public:
  void Setup(uint64_t seed, obs::Observability* obs,
             SpanLog* spans) override {
    obs_ = obs;
    spans_ = spans;
    workload::TestbedConfig cfg = Config();
    cfg.obs = obs;
    {
      Span s(spans, "testbed.construct");
      const int64_t t0 = HostNs();
      bed_ = std::make_unique<workload::Testbed>(cfg);
      precondition_s_ = static_cast<double>(HostNs() - t0) / 1e9;
    }
    const uint64_t cap = cfg.ssd.logical_bytes;
    for (int ssd = 0; ssd < kSsds; ++ssd) {
      for (int c = 0; c < kClassCount; ++c) {
        Tenant t;
        t.cls = &kClasses[c];
        t.ssd = ssd;
        t.init = &bed_->AddInitiator(ssd);
        t.region = RegionFor(kClasses[c], cap);
        t.rng = Rng(seed * 0x9E3779B97F4A7C15ull + tenants_.size() + 1);
        t.cursor = t.rng.NextBounded(t.region.bytes / kClasses[c].bytes);
        tenants_.push_back(t);
      }
    }
    running_ = true;
    for (size_t i = 0; i < tenants_.size(); ++i) {
      for (uint32_t q = 0; q < tenants_[i].cls->qd; ++q) Issue(i);
    }
    Span s(spans, "sim.run_until");
    bed_->sim().RunUntil(bed_->sim().now() + kWarmup);
  }

  void Teardown() override {
    bed_.reset();
    tenants_.clear();
    ops_ = OpLedger(kName);
    min_read_ = INT64_MAX;
  }

  int window_rounds() const override { return kWindowRounds; }

  uint64_t RunRound(bool record) override {
    ops_.StartRound(record);
    Span s(spans_, "sim.run_until");
    bed_->sim().RunUntil(bed_->sim().now() + kRound);
    return ops_.round_ops();
  }

  void DrainAndCheck() override {
    running_ = false;
    ops_.StartRound(false);
    bed_->sim().Run();
    ops_.CheckAllCompleted();
    const double window_s = ToSec(kRound * kWindowRounds);
    double ssd_bytes[kSsds] = {};
    for (const Tenant& t : tenants_) {
      // Little's law for a closed loop: throughput x mean latency equals
      // the number of IOs kept outstanding.
      const double x = static_cast<double>(t.win_ops) / window_s;
      const double r = t.win_ops ? ToSec(t.win_lat) / t.win_ops : 0;
      const double n = x * r;
      Expect(std::abs(n - t.cls->qd) <= 0.05 * t.cls->qd, kName,
             "Little's law",
             std::string(t.cls->name) + " on ssd " + std::to_string(t.ssd) +
                 ": X*R = " + std::to_string(n) + ", queue depth " +
                 std::to_string(t.cls->qd));
      ssd_bytes[t.ssd] += static_cast<double>(t.win_bytes);
    }
    const ssd::SsdConfig sc = Config().ssd;
    const Tick floor = sc.read_latency + 2 * Config().net.base_latency;
    Expect(min_read_ >= floor, kName, "read latency floor",
           "fastest read " + std::to_string(min_read_) + " ns < NAND read + " +
               "2 x fabric latency = " + std::to_string(floor) + " ns");
    for (int s = 0; s < kSsds; ++s) {
      const double bps = ssd_bytes[s] / window_s;
      Expect(bps <= sc.channels * sc.channel_bw, kName, "channel bandwidth",
             "ssd " + std::to_string(s) + " moved " + std::to_string(bps) +
                 " B/s");
    }
    Expect(bed_->checker().ok(), kName, "invariant checker", "violations");
  }

  SimFigures Figures() override {
    return ops_.Figures(kRound * kWindowRounds);
  }

  void BeginWindow() override {
    if (obs_) ResetWindowMetrics(*bed_, *obs_);
    snap_ = BedSnapshot::Take(*bed_, obs_);
  }

  void Layers(LayerSheet& sheet, int64_t window_host_ns) override {
    const BedSnapshot end = BedSnapshot::Take(*bed_, obs_);
    SharedLayers(sheet, *bed_, *obs_, snap_, end, ops_.window_ops(),
                 ops_.MeanUs(), window_host_ns);
    sheet.Set("ssd.precondition_s", precondition_s_);
    LatencyHistogram device_reads;
    for (size_t i = 0; i < tenants_.size(); ++i) {
      const Tenant& t = tenants_[i];
      if (t.cls->type != IoType::kRead) continue;
      device_reads.Merge(
          obs_->metrics
              .GetHistogram(obs::schema::kDeviceLatency,
                            obs::Labels::TenantSsd(
                                static_cast<int32_t>(t.init->tenant()), t.ssd))
              .hist());
    }
    sheet.Set("ssd.device_read_p999_us",
              InterpolatedQuantileUs(device_reads, 0.999));
    const double window_s = ToSec(kRound * kWindowRounds);
    for (const Tenant& t : tenants_) {
      tenant_bps_.push_back(static_cast<double>(t.win_bytes) / window_s);
      class_ops_[t.cls - kClasses] += t.win_ops;
    }
  }

  void Standalone(uint64_t seed, LayerSheet& sheet) override {
    sheet.Set("ssd.host_ns_per_io", SsdLoop(seed));
    CoreLoops(Stream(seed), Depth(), sheet);
    // f-Util (§5.1): each tenant's bandwidth over its fair share of what
    // its class achieves with the SSD to itself.
    double standalone[kClassCount];
    workload::TestbedConfig cfg = Config();
    cfg.num_ssds = 1;
    const uint64_t cap = cfg.ssd.logical_bytes;
    for (int c = 0; c < kClassCount; ++c) {
      workload::FioSpec spec;
      spec.read_ratio = kClasses[c].type == IoType::kRead ? 1.0 : 0.0;
      spec.io_bytes = kClasses[c].bytes;
      spec.sequential = kClasses[c].sequential;
      spec.queue_depth = kClasses[c].qd;
      spec.region_offset = RegionFor(kClasses[c], cap).offset;
      spec.region_bytes = RegionFor(kClasses[c], cap).bytes;
      spec.seed = seed + static_cast<uint64_t>(c);
      standalone[c] = workload::StandaloneBandwidth(
          cfg, spec, Milliseconds(30), Milliseconds(60), kClassCount);
    }
    double futil_min = 1e300;
    for (size_t i = 0; i < tenant_bps_.size(); ++i) {
      const int c = static_cast<int>(i % kClassCount);
      futil_min = std::min(
          futil_min, workload::FUtil(tenant_bps_[i], standalone[c], kClassCount));
    }
    sheet.Set("core.futil_min", futil_min);
  }

 private:
  struct Tenant {
    const FioClass* cls = nullptr;
    int ssd = 0;
    fabric::Initiator* init = nullptr;
    Region region{};
    Rng rng;
    uint64_t cursor = 0;
    uint64_t win_ops = 0, win_bytes = 0;
    Tick win_lat = 0;
  };

  static workload::TestbedConfig Config() {
    workload::TestbedConfig cfg;
    cfg.num_ssds = kSsds;
    cfg.condition = workload::SsdCondition::kFragmented;
    cfg.scheme = workload::Scheme::kGimbal;
    return cfg;
  }

  static uint32_t Depth() {
    uint32_t d = 0;
    for (const FioClass& c : kClasses) d += c.qd;
    return d;
  }

  void Issue(size_t ti) {
    Tenant& t = tenants_[ti];
    const uint64_t offset = NextOffset(*t.cls, t.region, t.rng, t.cursor);
    const uint64_t id = ops_.Issue();
    const Tick start = bed_->sim().now();
    Span s(spans_, "fabric.submit");
    t.init->Submit(t.cls->type, offset, t.cls->bytes, IoPriority::kNormal,
                   [this, ti, id, start](const IoCompletion& cpl, Tick) {
                     Complete(ti, id, start, cpl);
                   });
  }

  void Complete(size_t ti, uint64_t id, Tick start, const IoCompletion& cpl) {
    Tenant& t = tenants_[ti];
    const Tick lat = bed_->sim().now() - start;
    if (spans_) spans_->Async("fabric.submit", lat);
    const bool read = t.cls->type == IoType::kRead;
    ops_.Complete(id, cpl.status, read, t.cls->bytes, lat);
    if (read && lat < min_read_) min_read_ = lat;
    if (ops_.recording()) {
      ++t.win_ops;
      t.win_bytes += t.cls->bytes;
      t.win_lat += lat;
    }
    if (running_) Issue(ti);
  }

  // The fio mix straight on one fragmented SSD model: host ns per IO of
  // Ssd::Submit and the events it schedules.
  double SsdLoop(uint64_t seed) {
    sim::Simulator sim;
    ssd::SsdConfig sc = Config().ssd;
    ssd::Ssd dev(sim, sc);
    dev.PreconditionFragmented(3.0, 42);
    struct Loop {
      const FioClass* cls;
      Region region;
      Rng rng;
      uint64_t cursor;
    };
    std::vector<Loop> loops;
    for (int c = 0; c < kClassCount; ++c) {
      loops.push_back({&kClasses[c], RegionFor(kClasses[c], sc.logical_bytes),
                       Rng(seed + 77 + static_cast<uint64_t>(c)), 0});
    }
    constexpr uint64_t kOps = 150'000;
    uint64_t done = 0, issued = 0;
    std::function<void(size_t)> issue = [&](size_t i) {
      Loop& l = loops[i];
      ssd::DeviceIo io;
      io.cookie = ++issued;
      io.type = l.cls->type;
      io.offset = NextOffset(*l.cls, l.region, l.rng, l.cursor);
      io.length = l.cls->bytes;
      dev.Submit(io, [&, i](const ssd::DeviceCompletion&) {
        ++done;
        if (issued < kOps) issue(i);
      });
    };
    const int64_t t0 = HostNs();
    for (size_t i = 0; i < loops.size(); ++i) {
      for (uint32_t q = 0; q < loops[i].cls->qd; ++q) issue(i);
    }
    sim.Run();
    const int64_t dt = HostNs() - t0;
    if (done != issued) Fail(kName, "ssd loop", "device lost an IO");
    return static_cast<double>(dt) / static_cast<double>(done);
  }

  // The per-SSD request stream the switch sees: the four classes in the
  // proportions the simulated window completed them.
  std::vector<IoRequest> Stream(uint64_t seed) const {
    Rng rng(seed ^ 0x5eedf10ull);
    uint64_t total = 0;
    for (uint64_t n : class_ops_) total += n;
    std::vector<IoRequest> stream(100'000);
    const uint64_t cap = Config().ssd.logical_bytes;
    uint64_t cursors[kClassCount] = {};
    for (size_t i = 0; i < stream.size(); ++i) {
      uint64_t pick = rng.NextBounded(total);
      int c = 0;
      while (pick >= class_ops_[c]) pick -= class_ops_[c++];
      IoRequest& r = stream[i];
      r.id = i + 1;
      r.tenant = static_cast<TenantId>(c + 1);
      r.type = kClasses[c].type;
      r.length = kClasses[c].bytes;
      r.offset = NextOffset(kClasses[c], RegionFor(kClasses[c], cap), rng,
                            cursors[c]);
    }
    return stream;
  }

  obs::Observability* obs_ = nullptr;
  SpanLog* spans_ = nullptr;
  std::unique_ptr<workload::Testbed> bed_;
  std::vector<Tenant> tenants_;
  OpLedger ops_{kName};
  bool running_ = false;
  Tick min_read_ = INT64_MAX;
  double precondition_s_ = 0;
  BedSnapshot snap_;
  std::vector<double> tenant_bps_;
  uint64_t class_ops_[kClassCount] = {};
};

}  // namespace

std::unique_ptr<Workload> MakeFioFragMix() {
  return std::make_unique<FioFragMix>();
}

}  // namespace perfbench
