#pragma once

// Shared pieces of the repository benchmark: the harness interface each
// workload implements, bench-side spans, the generator wrapper that stamps
// the first and last generator construction of a search, and the helpers
// that keep layer timings honest (observable results, per-call costs over
// many calls, a plausibility floor).
//
// Everything here measures the library from outside: it calls public
// functions and reads the Outcome a search returns. Nothing under src/ is
// instrumented.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/metrics.hpp"
#include "runtime/profile.hpp"

namespace perfbench {

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double secondsSince(std::uint64_t t0) {
  return static_cast<double>(nowNs() - t0) * 1e-9;
}

// Process user+sys CPU seconds.
double cpuSeconds();

// Keeps `v` (and everything it points to) observable, so the compiler can
// neither drop the computation that produced it nor hoist it out of a loop.
template <typename T>
inline void keep(T const& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

// ---- metrics -----------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

// Ordered by name so output is stable.
using MetricMap = std::map<std::string, Metric>;

// Thrown (and turned into a failed, non-zero run) when a layer timing is
// below what the operation can physically cost: the sign of a loop the
// compiler removed, or of a clock that was read wrongly.
struct ImplausibleTiming : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Per-call cost in nanoseconds of `body(i)` over `calls` calls, repeated
// until at least `minSeconds` of timed work; the median of the repeats is
// returned. `floorNs` rejects results that are too small to be real.
double nsPerCall(const char* what, std::uint64_t calls, double minSeconds,
                 double floorNs, const std::function<void()>& batch);

// Median wall milliseconds of `search` over repeated calls on an input whose
// root has no children: the skeleton's fixed cost at the workload's layout.
double emptySearchMs(const std::function<void()>& search);

// ---- spans ---------------------------------------------------------------

// Bench-side trace: one span per layer call the benchmark makes, kept in
// memory and written as Chrome trace_event JSON at exit. Spans are recorded
// from the benchmark's main thread only; `parent` links a span to the one
// that caused it and `search` groups the spans of one search.
class Spans {
 public:
  struct Span {
    const char* name;
    std::uint64_t start;
    std::uint64_t end;
    int id;
    int parent;
    int search;
  };

  static Spans& get();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int newSearch() { return nextSearch_++; }
  int open(const char* name, int search);
  void close(int id);
  void write(const std::string& path) const;

 private:
  bool enabled_ = false;
  int nextSearch_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(const char* name, int search = -1)
      : id_(Spans::get().enabled() ? Spans::get().open(name, search) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) Spans::get().close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// ---- generator stamps ---------------------------------------------------

// First and last generator construction of a search (the last to within 16
// constructions), plus the number of constructions and children produced,
// collected from every worker thread
// without a shared cache line on the hot path: each thread claims its own
// padded slot for the current epoch. Disarmed, a generator pays one relaxed
// load.
class GenStamps {
 public:
  static constexpr int kSlots = 64;

  static void arm();     // new epoch, zeroed slots
  static void disarm();  // stop recording (slots keep their values)
  static bool armed() { return armed_.load(std::memory_order_relaxed); }

  static void onConstruct();
  static void onChild();

  struct Totals {
    std::uint64_t first = 0;  // earliest construction stamp
    std::uint64_t last = 0;   // latest construction stamp
    std::uint64_t constructs = 0;
    std::uint64_t children = 0;
  };
  static Totals collect();

 private:
  struct alignas(64) Slot {
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    std::uint64_t constructs = 0;
    std::uint64_t children = 0;
  };
  static Slot* mySlot();

  static std::atomic<bool> armed_;
  static std::atomic<std::uint32_t> epoch_;
  static std::atomic<int> nextSlot_;
  static std::array<Slot, kSlots> slots_;
};

// Wraps any node generator, stamping its construction and counting its
// children while GenStamps is armed. Space and Node are the wrapped
// generator's, so the search sees the same instance and the same tree.
template <typename G>
struct StampGen {
  using Space = typename G::Space;
  using Node = typename G::Node;

  G inner;

  StampGen(const Space& s, const Node& n) : inner(s, n) {
    if (GenStamps::armed()) GenStamps::onConstruct();
  }
  bool hasNext() const { return inner.hasNext(); }
  Node next() {
    if (GenStamps::armed()) GenStamps::onChild();
    return inner.next();
  }
};

// ---- per-search records --------------------------------------------------

struct SearchRecord {
  double wallS = 0;
  double cpuS = 0;  // process user+sys seconds, every thread of the search
  bool ok = true;
  yewpar::rt::MetricsSnapshot metrics;
  // Phase nanos summed over every worker of every rank, and the manager
  // threads' handler time; empty for the Sequential skeleton.
  std::array<std::uint64_t, yewpar::rt::prof::kNumPhases> phaseNs{};
  double managerMs = 0;
  double utilizationCv = 0;
  // Traced passes only: search() call to first generator construction, and
  // last construction to return.
  double spinupMs = -1;
  double drainMs = -1;
  std::uint64_t genConstructs = 0;
  std::uint64_t genChildren = 0;
};

// Folds an Outcome's counters and per-rank profiles into a record.
template <typename Out>
void fillRecord(SearchRecord& r, const Out& out) {
  using yewpar::rt::prof::Phase;
  r.metrics = out.metrics;
  if (out.profiles.empty()) return;
  // Imbalance over the whole team, across ranks: the population CV of
  // each worker's working time.
  std::vector<double> working;
  for (const auto& rank : out.profiles) {
    for (const auto& w : rank.workers) {
      for (std::size_t p = 0; p < r.phaseNs.size(); ++p) {
        r.phaseNs[p] += w.nanos[p];
      }
      working.push_back(static_cast<double>(w.get(Phase::kWorking)));
    }
    r.managerMs += static_cast<double>(rank.manager.get(Phase::kManager)) * 1e-6;
  }
  double mean = 0, var = 0;
  for (double x : working) mean += x;
  mean /= static_cast<double>(working.size());
  for (double x : working) var += (x - mean) * (x - mean);
  var /= static_cast<double>(working.size());
  r.utilizationCv = mean > 0 ? std::sqrt(var) / mean : 0;
}

// Times one search call, with generator stamps when `traced`.
template <typename F>
SearchRecord timedSearch(bool traced, const char* spanName, F&& search) {
  SearchRecord r;
  ScopedSpan span(spanName, Spans::get().newSearch());
  if (traced) GenStamps::arm();
  const double cpu0 = cpuSeconds();
  const std::uint64_t t0 = nowNs();
  search(r);
  const std::uint64_t t1 = nowNs();
  r.cpuS = cpuSeconds() - cpu0;
  r.wallS = static_cast<double>(t1 - t0) * 1e-9;
  if (traced) {
    GenStamps::disarm();
    const auto s = GenStamps::collect();
    r.genConstructs = s.constructs;
    r.genChildren = s.children;
    if (s.constructs > 0) {
      r.spinupMs = static_cast<double>(s.first - t0) * 1e-6;
      r.drainMs = static_cast<double>(t1 - s.last) * 1e-6;
    }
  }
  return r;
}

// skeletons.speedup and skeletons.work_inflation of the traced parallel
// searches against a Sequential reference pass that took `seqS` seconds and
// visited `seqNodes` nodes; `passS` is the untraced pass time
// (solve_s_median).
inline void speedupMetrics(MetricMap& m, double passS, double seqS,
                           double seqNodes, std::size_t searchesPerPass,
                           const std::vector<SearchRecord>& records) {
  double nodes = 0;
  for (const auto& r : records) {
    nodes += static_cast<double>(r.metrics.nodesProcessed);
  }
  const double nodesPerPass = nodes * static_cast<double>(searchesPerPass) /
                              static_cast<double>(records.size());
  m["skeletons.speedup"] = {seqS / passS, "x"};
  m["skeletons.work_inflation"] = {nodesPerPass / seqNodes, "x"};
}

// ---- the harness interface -----------------------------------------------

struct Layout {
  const char* skeleton;
  int localities;
  int workersPerLocality;
  int busyThreads() const { return localities * workersPerLocality; }
};

// One workload: seeded inputs, a pass over them, and the layer metrics only
// the traced run measures.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual Layout layout() const = 0;
  // Load at the workload's own layout on a fixed, seed-independent instance.
  virtual void warmUpOnce() = 0;
  // Generates the inputs from the seed and computes the reference answers
  // every search is checked against.
  virtual void setUp(std::uint64_t seed, bool tiny) = 0;
  // Searches every input once, appending one record per search.
  virtual void runPass(std::vector<SearchRecord>& out, bool traced) = 0;
  // Traced run only: reference searches and layer micro-timings. `passS`
  // is the untraced pass time (solve_s_median); `records` are the traced
  // searches.
  virtual void layerMetrics(MetricMap& m, double passS,
                            const std::vector<SearchRecord>& records) = 0;
};

std::unique_ptr<Workload> makeCliqueSeq();
std::unique_ptr<Workload> makeUtsBudget();
std::unique_ptr<Workload> makeKCliqueDist();

}  // namespace perfbench
