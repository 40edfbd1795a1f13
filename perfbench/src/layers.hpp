#pragma once

// Layer micro-timings for the traced run. Each calls one layer's public
// functions many times on inputs taken from the workload itself, keeps every
// result observable, and reports a per-call cost (see nsPerCall).

#include <thread>
#include <vector>

#include "apps/maxclique/maxclique.hpp"
#include "apps/uts/uts.hpp"
#include "common.hpp"
#include "core/skeletons/engine.hpp"
#include "runtime/workpool.hpp"
#include "util/archive.hpp"

namespace perfbench {

// Plausibility floors: a pool push+pop takes a lock and moves a task; an
// archive round trip allocates; a message round trip crosses threads.
inline constexpr double kPoolFloorNs = 5.0;
inline constexpr double kArchiveFloorNs = 5.0;

template <typename Node>
using Task = yewpar::detail::EngineTask<Node>;

// One push and one pop on the engine's default (depth) pool, moving the
// task through so no copy or allocation is timed.
template <typename Node>
double poolPushPopNs(const Node& sample) {
  auto pool = yewpar::rt::makeWorkpool<Task<Node>>(yewpar::rt::PoolPolicy::Depth);
  Task<Node> task{sample, 3};
  constexpr std::uint64_t kCalls = 20000;
  return nsPerCall("runtime.workpool.push_pop", kCalls, 0.05, kPoolFloorNs, [&] {
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      pool->push(std::move(task), static_cast<int>(i & 7));
      task = std::move(*pool->pop());
    }
    keep(task);
  });
}

// The same pair from `threads` threads on one shared pool: per-pair latency
// as each thread sees it while the others hammer the same lock.
template <typename Node>
double poolContendedPushPopNs(const Node& sample, int threads) {
  auto pool = yewpar::rt::makeWorkpool<Task<Node>>(yewpar::rt::PoolPolicy::Depth);
  constexpr std::uint64_t kCalls = 20000;
  return nsPerCall("runtime.workpool.contended_push_pop", kCalls, 0.1,
                   kPoolFloorNs, [&] {
    std::vector<std::thread> team;
    for (int t = 0; t < threads; ++t) {
      team.emplace_back([&] {
        Task<Node> task{sample, 3};
        for (std::uint64_t i = 0; i < kCalls; ++i) {
          pool->push(std::move(task), static_cast<int>(i & 7));
          // Another thread may have taken our task; any task will do.
          while (true) {
            if (auto got = pool->pop()) {
              task = std::move(*got);
              break;
            }
          }
        }
        keep(task);
      });
    }
    for (auto& t : team) t.join();
  });
}

struct ArchiveCost {
  double taskBytes = 0;
  double roundtripNs = 0;
};

// toBytes + fromBytes of one engine task, as a steal reply carries it.
template <typename Node>
ArchiveCost archiveCost(const std::vector<Node>& samples) {
  ArchiveCost c;
  double bytes = 0;
  for (const auto& n : samples) {
    bytes += static_cast<double>(yewpar::toBytes(Task<Node>{n, 3}).size());
  }
  c.taskBytes = bytes / static_cast<double>(samples.size());
  const std::uint64_t calls = samples.size();
  c.roundtripNs = nsPerCall("util.archive.roundtrip", calls, 0.05,
                            kArchiveFloorNs, [&] {
    std::int64_t sink = 0;
    for (const auto& n : samples) {
      auto back = yewpar::fromBytes<Task<Node>>(
          yewpar::toBytes(Task<Node>{n, 3}));
      sink += back.depth + back.node.getObj();
    }
    keep(sink);
  });
  return c;
}

// ---- app generators ------------------------------------------------------

struct GenCost {
  double nsPerChild = 0;      // construct + exhaust, per child produced
  double constructNs = 0;     // construction alone, per generator
  double nextNs = 0;          // per next() call
};

// Up to `want` nodes of the proof tree of `g`: DFS with the colour bound
// pruning against the known optimum, keeping every `stride`-th node.
std::vector<yewpar::apps::mc::Node> sampleCliqueNodes(
    const yewpar::apps::Graph& g, std::int64_t omega, std::size_t want,
    std::size_t stride);
GenCost cliqueGenCost(const yewpar::apps::Graph& g,
                      const std::vector<yewpar::apps::mc::Node>& nodes);
// mc::greedyColour + mc::upperBound per node: the colour bound.
double cliqueBoundNs(const yewpar::apps::Graph& g,
                     const std::vector<yewpar::apps::mc::Node>& nodes);

std::vector<yewpar::apps::uts::Node> sampleUtsNodes(
    const yewpar::apps::uts::Params& p,
    const std::vector<yewpar::apps::uts::Node>& roots, std::size_t want,
    std::size_t stride);
GenCost utsGenCost(const yewpar::apps::uts::Params& p,
                   const std::vector<yewpar::apps::uts::Node>& nodes);

// ---- transport ---------------------------------------------------------------

// Ping-pong round trip between two threads through InProcTransport (the
// simulated fabric behind ShapedTransport), in microseconds.
double inprocRttUs();
// The same over two TcpTransport ranks on loopback in this process.
double tcpRttUs();

// Fills every layer metric that does not depend on the app: workpool,
// archive and transport rows.
template <typename Node>
void runtimeLayerMetrics(MetricMap& m, const std::vector<Node>& samples,
                         int poolThreads) {
  m["runtime.workpool.push_pop_ns"] = {poolPushPopNs(samples.front()), "ns"};
  m["runtime.workpool.contended_push_pop_ns"] = {
      poolContendedPushPopNs(samples.front(), poolThreads), "ns"};
  const auto a = archiveCost(samples);
  m["util.archive.task_bytes"] = {a.taskBytes, "bytes"};
  m["util.archive.roundtrip_ns"] = {a.roundtripNs, "ns"};
  m["transport.inproc_rtt_us"] = {inprocRttUs(), "us"};
  m["transport.tcp_rtt_us"] = {tcpRttUs(), "us"};
}

}  // namespace perfbench
