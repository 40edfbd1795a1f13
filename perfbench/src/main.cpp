// The repository benchmark: one workload per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--trace-out <file>]
//
// Untraced (--trace 0), it times passes over the workload's seeded inputs
// for --seconds and reports the end-to-end metrics. Traced (--trace 1), it
// times half the window untraced and half traced, then runs the reference
// searches and layer micro-timings, and reports the per-layer metrics. The
// last line of standard output is one JSON object; a wrong or incomplete
// search makes the exit code non-zero.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/stats.hpp"

using namespace perfbench;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string traceOut;
};

struct Declared {
  const char* name;
  const char* unit;
};

// Every metric the benchmark reports, with its unit; BENCHMARK.json lists
// the same names. A metric that does not apply to a workload reads 0.
constexpr Declared kEndToEnd[] = {
    {"solve_s", "s"},
    {"cpu_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// search_ms_tail is a per-layer metric: over a stream of ~1 ms searches, at
// the 99.95th percentile of ~19k of them, it moved by 4.2-9.9 ms across five
// seeds, far beyond any bound an end-to-end metric could carry.

constexpr Declared kPerLayer[] = {
    {"apps.maxclique.gen_ns_per_child", "ns"},
    {"apps.maxclique.bound_ns", "ns"},
    {"apps.uts.gen_ns_per_child", "ns"},
    {"apps.baseline.solve_s", "s"},
    {"skeletons.overhead_x", "x"},
    {"skeletons.ns_per_node", "ns"},
    {"skeletons.loop_ns_per_node", "ns"},
    {"skeletons.speedup", "x"},
    {"skeletons.work_inflation", "x"},
    {"engine.spinup_ms", "ms"},
    {"engine.drain_ms", "ms"},
    {"engine.empty_search_ms", "ms"},
    {"engine.nodes", "count"},
    {"engine.tasks", "count"},
    {"engine.prunes", "count"},
    {"engine.phase.working_frac", "frac"},
    {"engine.phase.popping_frac", "frac"},
    {"engine.phase.stealing_frac", "frac"},
    {"engine.phase.idle_frac", "frac"},
    {"engine.manager_ms", "ms"},
    {"engine.utilization_cv", "ratio"},
    {"runtime.workpool.push_pop_ns", "ns"},
    {"runtime.workpool.contended_push_pop_ns", "ns"},
    {"runtime.steals.local", "count"},
    {"runtime.steals.remote", "count"},
    {"runtime.steals.failed", "count"},
    {"runtime.steal_success_ratio", "frac"},
    {"runtime.tasks_per_steal", "ratio"},
    {"runtime.bound_broadcasts", "count"},
    {"util.archive.task_bytes", "bytes"},
    {"util.archive.roundtrip_ns", "ns"},
    {"transport.messages", "count"},
    {"transport.bytes", "bytes"},
    {"transport.frames", "count"},
    {"transport.inproc_rtt_us", "us"},
    {"transport.tcp_rtt_us", "us"},
    {"trace.overhead_frac", "frac"},
    {"search_ms_tail", "ms"},
    {"solve_s_median", "s"},
    {"failed_frac", "frac"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<clique_seq|uts_budget|kclique_dist> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        haveWorkload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        o.trace = t == "1";
      } else if (a == "--tiny") {
        o.tiny = true;
      } else if (a == "--trace-out") {
        o.traceOut = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!haveWorkload) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "clique_seq") return makeCliqueSeq();
  if (name == "uts_budget") return makeUtsBudget();
  if (name == "kclique_dist") return makeKCliqueDist();
  usage(("unknown workload " + name).c_str());
}

// CPUs this process may run on (what `nproc` prints).
int hostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

// This process's own resident high-water mark (VmHWM). Not ru_maxrss:
// Linux carries that across execve, so it would report the launcher's
// footprint whenever the launcher was the larger.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

struct Window {
  // One row per pass, one column per search of the pass, in input order.
  // Single precision keeps the bookkeeping that grows with the number of
  // passes small beside the library's own footprint (peak_rss_mb).
  std::vector<std::vector<float>> wallS;
  std::vector<std::vector<float>> cpuS;
  std::size_t searches = 0;
  std::size_t failed = 0;
};

// Passes back to back until `seconds` of them have run (at least one).
// Traced windows keep every search record; untraced ones keep only each
// search's wall and CPU time.
Window measure(Workload& w, double seconds, bool traced,
               std::vector<SearchRecord>* keepRecords) {
  Window win;
  ScopedSpan span(traced ? "window.traced" : "window.untraced");
  std::vector<SearchRecord> records;
  const std::uint64_t start = nowNs();
  do {
    ScopedSpan pass("pass");
    records.clear();
    w.runPass(records, traced);
    auto& wall = win.wallS.emplace_back();
    auto& cpu = win.cpuS.emplace_back();
    for (const auto& r : records) {
      wall.push_back(static_cast<float>(r.wallS));
      cpu.push_back(static_cast<float>(r.cpuS));
      win.failed += r.ok ? 0 : 1;
    }
    win.searches += records.size();
    if (keepRecords) {
      keepRecords->insert(keepRecords->end(), records.begin(), records.end());
    }
  } while (secondsSince(start) < seconds);
  return win;
}

// The time of one pass: each search's fastest time over the window's
// passes, summed over the pass's searches. On a shared 4-core host, slow
// regimes of 5-20 s and longer only ever add time: over ten runs of 30 s the
// sum of per-search medians spread by 17-22% (IQR/median) where this sum
// spread by 6-9%. `median` instead gives the per-search median, which also carries the
// search's own run-to-run jitter (solve_s_median).
double passSeconds(const std::vector<std::vector<float>>& perPass,
                   bool median = false) {
  double total = 0;
  std::vector<double> samples;
  for (std::size_t i = 0; i < perPass.front().size(); ++i) {
    samples.clear();
    for (const auto& pass : perPass) samples.push_back(pass.at(i));
    total += median ? yewpar::median(samples)
                    : *std::min_element(samples.begin(), samples.end());
  }
  return total;
}

// The per-search wall time at the highest percentile that still has at
// least ten samples beyond it (the maximum when there are ten or fewer).
double tailMs(const std::vector<std::vector<float>>& wallS, std::size_t* rank) {
  std::vector<double> ms;
  for (const auto& pass : wallS) {
    for (float s : pass) ms.push_back(static_cast<double>(s) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  const std::size_t i = ms.size() > 10 ? ms.size() - 11 : ms.size() - 1;
  *rank = i + 1;
  return ms[i];
}

void countMetrics(MetricMap& m, const std::vector<SearchRecord>& rs) {
  using yewpar::rt::prof::Phase;
  const double n = static_cast<double>(rs.size());
  auto mean = [&](auto f) {
    double s = 0;
    for (const auto& r : rs) s += static_cast<double>(f(r));
    return s / n;
  };
  m["engine.nodes"] = {mean([](auto& r) { return r.metrics.nodesProcessed; }), "count"};
  m["engine.tasks"] = {mean([](auto& r) { return r.metrics.tasksSpawned; }), "count"};
  m["engine.prunes"] = {mean([](auto& r) { return r.metrics.prunes; }), "count"};
  m["runtime.steals.local"] = {mean([](auto& r) { return r.metrics.localSteals; }), "count"};
  m["runtime.steals.remote"] = {mean([](auto& r) { return r.metrics.remoteSteals; }), "count"};
  m["runtime.steals.failed"] = {mean([](auto& r) { return r.metrics.failedSteals; }), "count"};
  m["runtime.bound_broadcasts"] = {mean([](auto& r) { return r.metrics.boundBroadcasts; }), "count"};
  m["transport.messages"] = {mean([](auto& r) { return r.metrics.networkMessages; }), "count"};
  m["transport.bytes"] = {mean([](auto& r) { return r.metrics.networkBytes; }), "bytes"};
  m["transport.frames"] = {mean([](auto& r) { return r.metrics.networkFrames; }), "count"};
  m["engine.manager_ms"] = {mean([](auto& r) { return r.managerMs; }), "ms"};
  m["engine.utilization_cv"] = {mean([](auto& r) { return r.utilizationCv; }), "ratio"};

  double replies = 0, failed = 0, stolen = 0;
  std::array<double, yewpar::rt::prof::kNumPhases> phase{};
  double phaseTotal = 0;
  for (const auto& r : rs) {
    replies += static_cast<double>(r.metrics.stealReplies);
    failed += static_cast<double>(r.metrics.failedSteals);
    stolen += static_cast<double>(r.metrics.tasksStolen());
    for (std::size_t p = 0; p < phase.size(); ++p) {
      phase[p] += static_cast<double>(r.phaseNs[p]);
      phaseTotal += static_cast<double>(r.phaseNs[p]);
    }
  }
  m["runtime.steal_success_ratio"] = {
      replies + failed > 0 ? replies / (replies + failed) : 0, "frac"};
  m["runtime.tasks_per_steal"] = {replies > 0 ? stolen / replies : 0, "ratio"};
  auto frac = [&](Phase p) {
    return phaseTotal > 0 ? phase[static_cast<std::size_t>(p)] / phaseTotal : 0;
  };
  m["engine.phase.working_frac"] = {frac(Phase::kWorking), "frac"};
  m["engine.phase.popping_frac"] = {frac(Phase::kPopping), "frac"};
  m["engine.phase.stealing_frac"] = {frac(Phase::kStealing), "frac"};
  m["engine.phase.idle_frac"] = {frac(Phase::kIdle), "frac"};

  std::vector<double> spinup, drain;
  for (const auto& r : rs) {
    if (r.spinupMs >= 0) spinup.push_back(r.spinupMs);
    if (r.drainMs >= 0) drain.push_back(r.drainMs);
  }
  if (!spinup.empty()) m["engine.spinup_ms"] = {yewpar::median(spinup), "ms"};
  if (!drain.empty()) m["engine.drain_ms"] = {yewpar::median(drain), "ms"};
}

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const MetricMap& m) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char num[64];
    std::snprintf(num, sizeof num, "%.10g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseArgs(argc, argv);
  auto workload = makeWorkload(opt.workload);
  const Layout layout = workload->layout();
  const int cpus = hostCpus();
  // Manager threads and the termination leader block in waits; only the
  // workers are busy, and one core stays free for everything else.
  if (layout.busyThreads() > cpus - 1) {
    std::fprintf(stderr,
                 "perfbench: %s needs %d busy workers but nproc is %d; "
                 "refusing a layout above nproc - 1\n",
                 opt.workload.c_str(), layout.busyThreads(), cpus);
    return 3;
  }

  try {
    Spans::get().enable(opt.trace);

    // The first multi-threaded searches after an idle gap run 2-2.6x slow;
    // about a second of load at the workload's own layout clears it.
    const double warmTarget = opt.tiny ? 0.1 : 1.0;
    const std::uint64_t warm0 = nowNs();
    {
      ScopedSpan span("warmup");
      while (secondsSince(warm0) < warmTarget) workload->warmUpOnce();
    }
    const double warmS = secondsSince(warm0);

    // Set-up is repeated (up to three times within 1.5 s) and the median
    // kept, so a short set-up is not one noisy sample.
    std::vector<double> setups;
    const std::uint64_t setupStart = nowNs();
    do {
      ScopedSpan span("setup");
      const std::uint64_t t0 = nowNs();
      workload->setUp(opt.seed, opt.tiny);
      setups.push_back(secondsSince(t0));
    } while (!opt.trace && setups.size() < 3 && secondsSince(setupStart) < 1.5);
    const double setupS = yewpar::median(setups);

    MetricMap m;
    std::size_t passes = 0, searches = 0, failed = 0;
    std::size_t tailRank = 0;
    bool plausible = true;
    if (!opt.trace) {
      const Window win = measure(*workload, opt.seconds, false, nullptr);
      passes = win.wallS.size();
      searches = win.searches;
      failed = win.failed;
      m["solve_s"] = {passSeconds(win.wallS), "s"};
      m["cpu_s"] = {passSeconds(win.cpuS), "s"};
      m["setup_s"] = {setupS, "s"};
      m["peak_rss_mb"] = {peakRssMb(), "MB"};
    } else {
      const Window plain = measure(*workload, opt.seconds / 2, false, nullptr);
      std::vector<SearchRecord> traced;
      const Window tr = measure(*workload, opt.seconds / 2, true, &traced);
      passes = plain.wallS.size() + tr.wallS.size();
      searches = plain.searches + tr.searches;
      failed = plain.failed + tr.failed;
      const double plainS = passSeconds(plain.wallS);
      // The layer ratios divide by one-shot reference timings, so they take
      // the per-search median, not the best of N.
      const double plainMedianS = passSeconds(plain.wallS, true);
      m["solve_s_median"] = {plainMedianS, "s"};
      m["search_ms_tail"] = {tailMs(plain.wallS, &tailRank), "ms"};
      m["trace.overhead_frac"] = {passSeconds(tr.wallS) / plainS - 1, "frac"};
      countMetrics(m, traced);
      try {
        ScopedSpan span("layers");
        workload->layerMetrics(m, plainMedianS, traced);
      } catch (const ImplausibleTiming& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        plausible = false;
      }
    }

    if (opt.trace) {
      m["failed_frac"] = {static_cast<double>(failed) /
                              static_cast<double>(searches),
                          "frac"};
    }
    // Metrics that do not apply to this workload read 0.
    const std::span<const Declared> declared =
        opt.trace ? std::span<const Declared>(kPerLayer)
                  : std::span<const Declared>(kEndToEnd);
    for (const auto& d : declared) {
      if (!m.count(d.name)) m[d.name] = {0.0, d.unit};
    }

    if (!opt.traceOut.empty() && opt.trace) Spans::get().write(opt.traceOut);

    std::printf("perfbench: workload=%s seed=%llu nproc=%d layout=%s:%dx%d "
                "busy_workers=%d warmup_s=%.3f setup_s=%.3f passes=%zu "
                "searches=%zu tail_rank=%zu failed=%zu\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), cpus,
                layout.skeleton, layout.localities, layout.workersPerLocality,
                layout.busyThreads(), warmS, setupS, passes, searches, tailRank,
                failed);
    const bool correct = failed == 0 && plausible;
    printResult(correct, searches, failed, m);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
