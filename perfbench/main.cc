// perfbench: one workload per process.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--git SHA]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md). The last line of standard output is the JSON result;
// a failed step or check exits non-zero without printing one.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Set-ups per end-to-end run: at least kMinSetups, and more until
// kSetupBudgetS of host time have passed; setup_s is their median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 20;
constexpr double kSetupBudgetS = 2.0;
constexpr size_t kTraceLimit = 1u << 18;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git = "unknown";
};

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) Fail("-", "arguments", "missing value for " + k);
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (k == "--git") {
      a.git = v;
    } else {
      Fail("-", "arguments", "unknown flag " + k);
    }
  }
  if (!(a.seconds > 0)) Fail(a.workload, "arguments", "--seconds must be > 0");
  return a;
}

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "fio_frag_mix") return MakeFioFragMix();
  if (name == "kv_ycsb_rack") return MakeKvYcsbRack();
  if (name == "fleet_openloop") return MakeFleetOpenloop();
  if (name == "switch_pipeline") return MakeSwitchPipeline();
  Fail(name, "arguments", "unknown workload");
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Host time of one round and of the speed probe run just before it.
struct RoundTime {
  int64_t work_ns, probe_ns;
  uint64_t ops;
};

// Host us per op at the probe's reference speed: the window is cut into
// slices of about kSliceNs of round time, each slice's host time is scaled
// by the probe runs inside it, and the scaled times are summed over the
// window. A sum, not a median of slices: the program's cost per op swings
// by 2x between slices as compactions and GC come and go, and that work is
// part of what is measured.
constexpr int64_t kSliceNs = 500'000'000;

double ScaledUsPerOp(const std::vector<RoundTime>& rounds) {
  int64_t work = 0, probe = 0;
  uint64_t ops = 0;
  for (const RoundTime& r : rounds) {
    work += r.work_ns;
    probe += r.probe_ns;
    ops += r.ops;
  }
  const size_t n = rounds.size();
  const size_t slices =
      std::clamp<size_t>(static_cast<size_t>(work / kSliceNs), 1, n);
  double scaled_ns = 0;
  std::vector<double> per_slice;
  for (size_t c = 0; c < slices; ++c) {
    int64_t w = 0, p = 0;
    uint64_t slice_ops = 0;
    const size_t lo = c * n / slices, hi = (c + 1) * n / slices;
    for (size_t i = lo; i < hi; ++i) {
      w += rounds[i].work_ns;
      p += rounds[i].probe_ns;
      slice_ops += rounds[i].ops;
    }
    const double scale =
        SpeedProbe::Scale(static_cast<double>(p) / static_cast<double>(hi - lo));
    scaled_ns += static_cast<double>(w) * scale;
    per_slice.push_back(static_cast<double>(w) / 1e3 * scale /
                        static_cast<double>(slice_ops));
  }
  const auto [lo, hi] = std::minmax_element(per_slice.begin(), per_slice.end());
  const double measured = static_cast<double>(work) / 1e3 / static_cast<double>(ops);
  const double scaled = scaled_ns / 1e3 / static_cast<double>(ops);
  std::printf("host us/op: %.4f measured, %.4f at reference speed (%zu"
              " slices: %.4f..%.4f); probe %.0f ns/run\n",
              measured, scaled, slices, *lo, *hi,
              static_cast<double>(probe) / static_cast<double>(n));
  return scaled;
}

// Run rounds until the simulated window is done and, unless `fixed`,
// `seconds` of host time have passed, each after one run of the speed
// probe. Returns host us per op over all of them at the probe's reference
// speed. `peak_mib` receives the process's resident high-water mark at the
// end of the simulated window, so it covers the same work on every host.
double Window(Workload& wl, const Args& a, bool fixed, SpeedProbe& probe,
              uint64_t* ops_total, double* peak_mib = nullptr) {
  const int64_t start = HostNs();
  std::vector<RoundTime> rounds;
  uint64_t ops = 0;
  for (int r = 0;; ++r) {
    const bool record = r < wl.window_rounds();
    if (!record && (fixed || HostNs() - start >= a.seconds * 1e9)) break;
    RoundTime rt;
    rt.probe_ns = probe.Run();
    const int64_t t0 = HostNs();
    rt.ops = wl.RunRound(record);
    rt.work_ns = HostNs() - t0;
    if (rt.ops == 0) Fail(a.workload, "run", "a round completed no operation");
    rounds.push_back(rt);
    ops += rt.ops;
    if (peak_mib && r + 1 == wl.window_rounds()) *peak_mib = PeakRssMib();
  }
  *ops_total = ops;
  return ScaledUsPerOp(rounds);
}

struct Metric {
  std::string name, unit;
  double value;
};

// The result line. Every check passed (a failed one exits before), so
// `correct` holds and no operation failed.
void PrintResult(uint64_t attempted, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": 0, "
              "\"metrics\": {",
              static_cast<unsigned long long>(attempted));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void EndToEnd(Workload& wl, const Args& a, SpeedProbe& probe) {
  std::vector<double> setup_s;
  const int64_t setups_start = HostNs();
  for (int i = 0; i < kMaxSetups; ++i) {
    if (i >= kMinSetups && HostNs() - setups_start >= kSetupBudgetS * 1e9) {
      break;
    }
    if (i > 0) wl.Teardown();
    const int64_t t0 = HostNs();
    wl.Setup(a.seed, nullptr, nullptr);
    setup_s.push_back(static_cast<double>(HostNs() - t0) / 1e9);
  }
  uint64_t ops = 0;
  double peak = 0;
  const double host_us_per_op =
      Window(wl, a, /*fixed=*/false, probe, &ops, &peak);
  wl.DrainAndCheck();
  const SimFigures f = wl.Figures();
  wl.Teardown();
  const double sim_s = gimbal::ToSec(f.window);
  std::printf("setup:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf(" s\n");
  std::printf("timed window: %llu ops; simulated window: "
              "%.3f s, %llu ops, %llu read / %llu write latency samples\n",
              static_cast<unsigned long long>(ops),
              sim_s, static_cast<unsigned long long>(f.ops),
              static_cast<unsigned long long>(f.reads),
              static_cast<unsigned long long>(f.writes));
  Expect(f.reads >= 10'000 && f.writes >= 10'000, a.workload,
         "p99.9 sample count", "needs 10000 reads and writes in the window");
  PrintResult(ops, {
      {"host_us_per_op", "us", host_us_per_op},
      {"setup_s", "s", Median(setup_s)},
      {"peak_rss_mib", "MiB", peak},
      {"sim_kiops", "kop/s", static_cast<double>(f.ops) / sim_s / 1e3},
      {"sim_mbps", "MB/s", static_cast<double>(f.bytes) / sim_s / 1e6},
      {"sim_read_p50_us", "us", f.read_p50_us},
      {"sim_read_p999_us", "us", f.read_p999_us},
      {"sim_write_p50_us", "us", f.write_p50_us},
      {"sim_write_p999_us", "us", f.write_p999_us},
  });
}

void Traced(Workload& wl, const Args& a, SpeedProbe& probe) {
  // Untraced reference over the same simulated window, for the overhead.
  uint64_t ops = 0;
  wl.Setup(a.seed, nullptr, nullptr);
  const double untraced = Window(wl, a, /*fixed=*/true, probe, &ops);
  const int64_t untraced_ns = static_cast<int64_t>(untraced * 1e3 * ops);
  wl.DrainAndCheck();
  wl.Teardown();

  // A bounded tracer: the program re-stitches its whole kept trace at the
  // end of every sharded run (once per round here), so the kept size sets
  // most of the traced cost. Events past the limit are still counted.
  gimbal::obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  SpanLog spans;
  LayerSheet sheet;
  wl.Setup(a.seed, &obs, &spans);
  wl.BeginWindow();
  uint64_t traced_ops = 0;
  const double traced = Window(wl, a, /*fixed=*/true, probe, &traced_ops);
  wl.Layers(sheet, untraced_ns);
  wl.DrainAndCheck();
  wl.Teardown();
  wl.Standalone(a.seed, sheet);
  sheet.Set("obs.traced_slowdown", untraced > 0 ? traced / untraced : 0);
  spans.PrintSummary();
  std::printf("tracing overhead: host_us_per_op %.4f untraced, %.4f traced\n",
              untraced, traced);
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : sheet.names()) {
    metrics.push_back({name, unit, sheet.Get(name)});
  }
  PrintResult(traced_ops, metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = Parse(argc, argv);
  std::unique_ptr<Workload> wl = Make(a.workload);
  std::printf("provenance: {\"workload\": \"%s\", \"seed\": %llu, "
              "\"git\": \"%s\", \"compiler\": \"%s %s\", \"build_type\": "
              "\"%s\", \"nproc\": %u, \"threads\": 1, \"trace\": %d}\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.git.c_str(),
#if defined(__clang__)
              "clang",
#else
              "gcc",
#endif
              __VERSION__, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency(), a.trace ? 1 : 0);
  // Built before any set-up, so its memory is part of every peak_rss_mib.
  SpeedProbe probe;
  if (a.trace) {
    Traced(*wl, a, probe);
  } else {
    EndToEnd(*wl, a, probe);
  }
  return 0;
}
