// switch_pipeline: Gimbal's data path alone (the paper's Table 1a
// quantity). A closed loop of 64 identical tenants calls
// core::GimbalSwitch::OnRequest through the IoPolicy interface over a NULL
// device: no fabric and no SSD model, so the core layer does most of the
// host work.
#include <algorithm>

#include "check/invariants.h"
#include "common/rng.h"
#include "obs/schema.h"
#include "ssd/null_device.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace gimbal;

constexpr const char* kName = "switch_pipeline";
constexpr int kTenants = 64;
constexpr int kGroups = 32;
constexpr uint32_t kDepth = 4;  // per tenant
constexpr uint64_t kCapacity = 1ull << 30;
constexpr Tick kDeviceLatency = Microseconds(2);
constexpr Tick kWarmup = Milliseconds(700);
constexpr Tick kRound = Milliseconds(10);
constexpr int kWindowRounds = 30;

// Every tenant cycles through the same multiset of operations. Tenants come
// in groups that share one seeded order, so the tenants of a group ask for
// identical service. The order matters: with one virtual slot per tenant,
// how many of a tenant's requests share a slot depends on the sizes that
// follow each other, so tenants with different orders get different
// service.
struct Op {
  IoType type;
  uint32_t bytes;
};
constexpr Op kCycle[] = {
    {IoType::kRead, 4096},         {IoType::kRead, 4096},
    {IoType::kRead, 4096},         {IoType::kRead, 4096},
    {IoType::kRead, 128 * 1024},   {IoType::kWrite, 4096},
    {IoType::kWrite, 4096},        {IoType::kWrite, 128 * 1024},
};
constexpr size_t kCycleLen = sizeof(kCycle) / sizeof(kCycle[0]);

class SwitchPipeline : public Workload {
 public:
  void Setup(uint64_t seed, obs::Observability* obs,
             SpanLog* spans) override {
    obs_ = obs;
    spans_ = spans;
    Span s(spans, "core.construct");
    sim_ = std::make_unique<sim::Simulator>();
    dev_ = std::make_unique<ssd::NullDevice>(*sim_, kCapacity, kDeviceLatency);
    chk_ = std::make_unique<check::InvariantChecker>();
    chk_->AttachSim(sim_.get());
    sw_ = std::make_unique<core::GimbalSwitch>(*sim_, *dev_, params_);
    sw_->AttachChecker(chk_.get(), 0);
    if (obs) {
      obs->metrics.set_run("gimbal");
      sw_->AttachObservability(obs, 0);
    }
    sw_->set_completion_fn([this](const IoRequest& req,
                                  const IoCompletion& cpl) {
      Complete(req, cpl);
    });
    Rng rng(seed * 0x9E3779B97F4A7C15ull);
    for (auto& order : orders_) {
      for (size_t i = 0; i < kCycleLen; ++i) order[i] = i;
      for (size_t i = kCycleLen - 1; i > 0; --i) {
        std::swap(order[i], order[rng.NextBounded(i + 1)]);
      }
    }
    tenants_.clear();
    tenants_.resize(kTenants);
    for (int t = 0; t < kTenants; ++t) {
      tenants_[static_cast<size_t>(t)].rng =
          Rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(t) + 1);
    }
    running_ = true;
    for (int t = 0; t < kTenants; ++t) {
      for (uint32_t q = 0; q < kDepth; ++q) Issue(t);
    }
    Span r(spans, "sim.run_until");
    sim_->RunUntil(kWarmup);
  }

  void Teardown() override {
    sw_.reset();
    chk_.reset();
    dev_.reset();
    sim_.reset();
    ops_ = OpLedger(kName);
  }

  int window_rounds() const override { return kWindowRounds; }

  uint64_t RunRound(bool record) override {
    ops_.StartRound(record);
    Span s(spans_, "sim.run_until");
    sim_->RunUntil(sim_->now() + kRound);
    return ops_.round_ops();
  }

  void DrainAndCheck() override {
    running_ = false;
    ops_.StartRound(false);
    sim_->Run();
    ops_.CheckAllCompleted();
    // DRR fairness: identical backlogged tenants get equal service within
    // the deficit bound (one quantum plus one worst-case weighted request)
    // plus what a tenant can have in flight at either window edge.
    uint64_t spread = 0, lo = UINT64_MAX;
    for (int g = 0; g < kGroups; ++g) {
      uint64_t glo = UINT64_MAX, ghi = 0;
      for (int t = g; t < kTenants; t += kGroups) {
        glo = std::min(glo, tenants_[static_cast<size_t>(t)].win_bytes);
        ghi = std::max(ghi, tenants_[static_cast<size_t>(t)].win_bytes);
      }
      spread = std::max(spread, ghi - glo);
      lo = std::min(lo, glo);
    }
    const double bound =
        2.0 * (params_.drr_quantum +
               kMaxTransferBytes * params_.write_cost_worst) +
        2.0 * kDepth * kMaxTransferBytes;
    std::printf("drr service spread within groups: %llu bytes (bound %.0f), "
                "least served tenant %llu bytes\n",
                static_cast<unsigned long long>(spread), bound,
                static_cast<unsigned long long>(lo));
    Expect(static_cast<double>(spread) <= bound, kName, "DRR fairness",
           "service spread " + std::to_string(spread) + " bytes > bound " +
               std::to_string(bound));
    Expect(chk_->ok(), kName, "invariant checker", "violations");
  }

  SimFigures Figures() override {
    return ops_.Figures(kRound * kWindowRounds);
  }

  void BeginWindow() override {
    obs_->metrics.ResetRun(obs_->metrics.run());
    events0_ = sim_->events_executed();
    checks0_ = chk_->checks_run();
    trace0_ = obs_->tracer.size() + obs_->tracer.dropped();
    stats0_ = sw_->stats();
  }

  void Layers(LayerSheet& sheet, int64_t window_host_ns) override {
    const double n = static_cast<double>(ops_.window_ops());
    const double events =
        static_cast<double>(sim_->events_executed() - events0_);
    sheet.Set("sim.events_per_op", events / n);
    sheet.Set("sim.host_ns_per_event",
              static_cast<double>(window_host_ns) / events);
    const core::GimbalSwitch::SwitchStats& s = sw_->stats();
    sheet.Set("core.pacing_stalls_per_kop",
              1e3 * static_cast<double>(s.pacing_stalls - stats0_.pacing_stalls) / n);
    sheet.Set("core.congestion_signals_per_kop",
              1e3 * static_cast<double>(s.congestion_signals -
                                        stats0_.congestion_signals) / n);
    double target = 0, device = 0, count = 0;
    for (int t = 1; t <= kTenants; ++t) {
      const obs::Labels l = obs::Labels::TenantSsd(t, 0);
      const obs::Histogram& th =
          obs_->metrics.GetHistogram(obs::schema::kTargetLatency, l);
      const obs::Histogram& dh =
          obs_->metrics.GetHistogram(obs::schema::kDeviceLatency, l);
      target += th.mean() * static_cast<double>(th.count());
      device += dh.mean() * static_cast<double>(dh.count());
      count += static_cast<double>(th.count());
    }
    sheet.Set("core.target_queue_us",
              count > 0 ? (target - device) / count / 1e3 : 0);
    sheet.Set("check.checks_per_op",
              static_cast<double>(chk_->checks_run() - checks0_) / n);
    sheet.Set("obs.trace_events_per_op",
              static_cast<double>(obs_->tracer.size() +
                                  obs_->tracer.dropped() - trace0_) / n);
  }

  void Standalone(uint64_t seed, LayerSheet& sheet) override {
    std::vector<IoRequest> stream(100'000);
    Rng rng(seed ^ 0x5317c4ull);
    for (size_t i = 0; i < stream.size(); ++i) {
      const Op& op = kCycle[rng.NextBounded(kCycleLen)];
      IoRequest& r = stream[i];
      r.id = i + 1;
      r.tenant = static_cast<TenantId>(1 + i % kTenants);
      r.type = op.type;
      r.length = op.bytes;
      r.offset = rng.NextBounded(kCapacity / op.bytes) * op.bytes;
    }
    CoreLoops(stream, kTenants * kDepth, sheet);
  }

 private:
  struct Tenant {
    Rng rng;  // offsets
    size_t next = 0;
    uint64_t win_bytes = 0;
  };

  void Issue(int t) {
    Tenant& tn = tenants_[static_cast<size_t>(t)];
    const Op& op = kCycle[orders_[t % kGroups][tn.next++ % kCycleLen]];
    IoRequest req;
    req.id = ops_.Issue();
    req.tenant = static_cast<TenantId>(t + 1);
    req.type = op.type;
    req.length = op.bytes;
    req.offset = tn.rng.NextBounded(kCapacity / op.bytes) * op.bytes;
    req.client_submit = req.target_arrival = sim_->now();
    // The benchmark stands in for the NVMe-oF target, so it reports the
    // admission the checker's conservation ledger expects from it.
    chk_->OnTargetAdmit(req.tenant, 0);
    Span s(spans_, "core.on_request");
    sw_->OnRequest(req);
  }

  void Complete(const IoRequest& req, const IoCompletion& cpl) {
    const Tick lat = sim_->now() - req.target_arrival;
    if (spans_) spans_->Async("core.on_request", lat);
    ops_.Complete(req.id, cpl.status, req.type == IoType::kRead, req.length,
                  lat);
    if (ops_.recording()) tenants_[req.tenant - 1].win_bytes += req.length;
    // The next request crosses the client boundary asynchronously, as it
    // would over the fabric, so OnRequest never re-enters the completion.
    if (running_) {
      const int t = static_cast<int>(req.tenant) - 1;
      sim_->After(0, [this, t]() { Issue(t); });
    }
  }

  obs::Observability* obs_ = nullptr;
  SpanLog* spans_ = nullptr;
  core::GimbalParams params_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<ssd::NullDevice> dev_;
  std::unique_ptr<check::InvariantChecker> chk_;
  std::unique_ptr<core::GimbalSwitch> sw_;
  size_t orders_[kGroups][kCycleLen] = {};
  std::vector<Tenant> tenants_;
  OpLedger ops_{kName};
  bool running_ = false;
  uint64_t events0_ = 0, checks0_ = 0, trace0_ = 0;
  core::GimbalSwitch::SwitchStats stats0_;
};

}  // namespace

std::unique_ptr<Workload> MakeSwitchPipeline() {
  return std::make_unique<SwitchPipeline>();
}

}  // namespace perfbench
