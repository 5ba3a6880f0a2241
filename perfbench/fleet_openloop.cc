// fleet_openloop: tenant scale and churn. An OpenLoopFleet of tens of
// thousands of concurrent sessions (Poisson arrivals, Pareto per-session
// rates, exponential lifetimes) offers a 90/10 4 KiB read/write mix to two
// clean SSDs under Gimbal, below saturation so no arrival is shed.
#include <cmath>

#include "workload.h"
#include "workload/fleet.h"

namespace perfbench {
namespace {

using namespace gimbal;

constexpr const char* kName = "fleet_openloop";
constexpr int kSsds = 2;
constexpr uint64_t kSessions = 20'000;
constexpr double kMeanIops = 10.0;      // per session
constexpr double kParetoAlpha = 2.5;    // finite variance: the check below
constexpr double kMaxMultiple = 100.0;  // heaviest session: 100 x the mean
constexpr Tick kLifetime = Milliseconds(500);
constexpr Tick kRampup = Milliseconds(20);
constexpr Tick kWarmup = Milliseconds(30);
constexpr Tick kRound = Milliseconds(10);
constexpr int kWindowRounds = 80;

workload::FleetSpec Spec(uint64_t seed) {
  workload::FleetSpec s;
  s.sessions = kSessions;
  s.rates.dist = workload::RateDist::kPareto;
  s.rates.mean_iops = kMeanIops;
  s.rates.pareto_alpha = kParetoAlpha;
  s.rates.max_multiple = kMaxMultiple;
  s.read_ratio = 0.9;
  s.io_bytes = 4096;
  s.session_lifetime_mean = kLifetime;
  s.rampup = kRampup;
  s.seed = seed;
  return s;
}

// Mean and variance of one session's offered rate: a Pareto with the
// plan's mean, clamped at max_multiple x mean (workload::SessionRate).
void RateMoments(const workload::RatePlan& p, double* mean, double* var) {
  const double a = p.pareto_alpha;
  const double xm = p.mean_iops * (a - 1.0) / a;
  const double cap = p.mean_iops * p.max_multiple;
  const double tail = std::pow(xm / cap, a);
  const double m1 = a * xm / (a - 1.0) * (1.0 - std::pow(xm / cap, a - 1.0)) +
                    cap * tail;
  const double m2 =
      a * xm * xm / (a - 2.0) * (1.0 - std::pow(xm / cap, a - 2.0)) +
      cap * cap * tail;
  *mean = m1;
  *var = m2 - m1 * m1;
}

class FleetOpenloop : public Workload {
 public:
  void Setup(uint64_t seed, obs::Observability* obs,
             SpanLog* spans) override {
    obs_ = obs;
    spans_ = spans;
    workload::TestbedConfig cfg;
    cfg.num_ssds = kSsds;
    cfg.condition = workload::SsdCondition::kClean;
    cfg.scheme = workload::Scheme::kGimbal;
    cfg.obs = obs;
    {
      Span s(spans, "testbed.construct");
      const int64_t t0 = HostNs();
      bed_ = std::make_unique<workload::Testbed>(cfg);
      precondition_s_ = static_cast<double>(HostNs() - t0) / 1e9;
    }
    const double rss0 = RssMib();
    fleet_ = std::make_unique<workload::OpenLoopFleet>(*bed_, Spec(seed));
    fleet_->Start();
    {
      Span s(spans, "sim.run_until");
      bed_->sim().RunUntil(kRampup + kWarmup);
    }
    // Only the process's first bring-up grows RSS: later ones reuse the
    // memory the allocator kept from the ones torn down before.
    if (kib_per_session_ == 0) {
      kib_per_session_ = (RssMib() - rss0) * 1024.0 / kSessions;
    }
    recorded_rounds_ = 0;
  }

  void Teardown() override {
    fleet_.reset();
    bed_.reset();
  }

  int window_rounds() const override { return kWindowRounds; }

  uint64_t RunRound(bool record) override {
    if (record && recorded_rounds_ == 0) start_ = fleet_->TotalStats();
    const uint64_t before = SwitchCompletions();
    {
      Span s(spans_, "sim.run_until");
      bed_->sim().RunUntil(bed_->sim().now() + kRound);
    }
    if (record && ++recorded_rounds_ == kWindowRounds) {
      end_ = fleet_->TotalStats();
    }
    return SwitchCompletions() - before;
  }

  void DrainAndCheck() override {
    fleet_->Stop();
    bed_->sim().Run();
    const workload::OpenLoopFleet::Totals t = fleet_->TotalStats();
    Expect(t.dropped == 0, kName, "no arrival shed",
           std::to_string(t.dropped) + " arrivals shed");
    Expect(t.stats.failed_ios == 0, kName, "no failed IO",
           std::to_string(t.stats.failed_ios) + " IOs failed");
    uint64_t requests = 0, completions = 0;
    for (int i = 0; i < kSsds; ++i) {
      requests += bed_->gimbal_switch(i)->stats().requests;
      completions += bed_->gimbal_switch(i)->stats().completions;
    }
    // Every arrival that reached a switch completed there. The fleet's
    // client-side totals cannot be held to the same count: completions that
    // land after a session retired are not folded into them (CHANGES.md).
    Expect(requests == completions && t.stats.total_ios() <= completions,
           kName, "completions equal arrivals",
           std::to_string(requests) + " arrivals at the switches, " +
               std::to_string(completions) + " completed there, " +
               std::to_string(t.stats.total_ios()) + " at the clients");
    std::printf("fleet: %llu arrivals completed at the switches, %llu counted "
                "by the clients\n",
                static_cast<unsigned long long>(completions),
                static_cast<unsigned long long>(t.stats.total_ios()));
    // Window completions against the Poisson expectation of the spec:
    // Var = E (Poisson) + sessions x W^2 x Var(rate) (rate draws, counted
    // as if each seat drew once per window, which over-states it).
    double mean = 0, var = 0;
    RateMoments(Spec(0).rates, &mean, &var);
    const double w = ToSec(kRound * kWindowRounds);
    const double expect = kSessions * mean * w;
    const double sigma = std::sqrt(expect + kSessions * w * w * var);
    const double got = static_cast<double>(end_.stats.total_ios() -
                                           start_.stats.total_ios());
    Expect(std::abs(got - expect) <= 5 * sigma, kName, "Poisson arrivals",
           std::to_string(got) + " completions in the window, expected " +
               std::to_string(expect) + " +- 5 x " + std::to_string(sigma));
    Expect(fleet_->connects() == fleet_->disconnects() &&
               fleet_->active_sessions() == 0 &&
               fleet_->draining_sessions() == 0,
           kName, "connects equal disconnects",
           std::to_string(fleet_->connects()) + " connects, " +
               std::to_string(fleet_->disconnects()) + " disconnects");
    Expect(bed_->target().live_sessions() == 0, kName,
           "session table empty after drain",
           std::to_string(bed_->target().live_sessions()) + " sessions left");
    Expect(bed_->checker().ok(), kName, "invariant checker", "violations");
  }

  SimFigures Figures() override {
    SimFigures f;
    const workload::WorkerStats& a = start_.stats;
    const workload::WorkerStats& b = end_.stats;
    f.ops = b.total_ios() - a.total_ios();
    f.bytes = b.total_bytes() - a.total_bytes();
    f.window = kRound * kWindowRounds;
    const LatencyHistogram r = b.read_latency.Subtract(a.read_latency);
    const LatencyHistogram wr = b.write_latency.Subtract(a.write_latency);
    f.reads = r.count();
    f.writes = wr.count();
    f.read_p50_us = InterpolatedQuantileUs(r, 0.50);
    f.read_p999_us = InterpolatedQuantileUs(r, 0.999);
    f.write_p50_us = InterpolatedQuantileUs(wr, 0.50);
    f.write_p999_us = InterpolatedQuantileUs(wr, 0.999);
    client_mean_us_ =
        (r.mean() * r.count() + wr.mean() * wr.count()) / 1e3 /
        static_cast<double>(f.ops > 0 ? f.ops : 1);
    return f;
  }

  void BeginWindow() override {
    ResetWindowMetrics(*bed_, *obs_);
    snap_ = BedSnapshot::Take(*bed_, obs_);
  }

  void Layers(LayerSheet& sheet, int64_t window_host_ns) override {
    const BedSnapshot end = BedSnapshot::Take(*bed_, obs_);
    const SimFigures f = Figures();
    SharedLayers(sheet, *bed_, *obs_, snap_, end, f.ops, client_mean_us_,
                 window_host_ns);
    sheet.Set("ssd.precondition_s", precondition_s_);
    sheet.Set("workload.kib_per_session", kib_per_session_);
  }

  void Standalone(uint64_t seed, LayerSheet& sheet) override {
    // The switch's view of the fleet: 90/10 4 KiB over many tenants.
    Rng rng(seed ^ 0xf1ee7ull);
    std::vector<IoRequest> stream(100'000);
    for (size_t i = 0; i < stream.size(); ++i) {
      IoRequest& r = stream[i];
      r.id = i + 1;
      r.tenant = static_cast<TenantId>(1 + rng.NextBounded(kSessions / kSsds));
      r.type = rng.NextBool(0.9) ? IoType::kRead : IoType::kWrite;
      r.length = 4096;
      r.offset = rng.NextBounded(1ull << 17) * 4096;
    }
    CoreLoops(stream, 32, sheet);
  }

 private:
  uint64_t SwitchCompletions() {
    uint64_t n = 0;
    for (int i = 0; i < kSsds; ++i) {
      n += bed_->gimbal_switch(i)->stats().completions;
    }
    return n;
  }

  obs::Observability* obs_ = nullptr;
  SpanLog* spans_ = nullptr;
  std::unique_ptr<workload::Testbed> bed_;
  // Declared after the testbed it references; destroyed first.
  std::unique_ptr<workload::OpenLoopFleet> fleet_;
  int recorded_rounds_ = 0;
  workload::OpenLoopFleet::Totals start_, end_;
  double precondition_s_ = 0, kib_per_session_ = 0, client_mean_us_ = 0;
  BedSnapshot snap_;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetOpenloop() {
  return std::make_unique<FleetOpenloop>();
}

}  // namespace perfbench
