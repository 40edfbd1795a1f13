#include "layers.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "runtime/transport/inproc.hpp"
#include "runtime/transport/shaping.hpp"
#include "runtime/transport/tcp.hpp"

namespace perfbench {

using namespace yewpar;
using namespace yewpar::apps;

// A generator construction costs at least a few loads and a branch; a
// round trip between threads at least a cache-line transfer each way.
constexpr double kGenFloorNs = 1.0;
constexpr double kBoundFloorNs = 2.0;
constexpr double kRttFloorNs = 100.0;

std::vector<mc::Node> sampleCliqueNodes(const Graph& g, std::int64_t omega,
                                        std::size_t want, std::size_t stride) {
  std::vector<mc::Node> out;
  std::vector<mc::Gen> stack;
  stack.emplace_back(g, mc::rootNode(g));
  std::size_t seen = 0;
  while (!stack.empty() && out.size() < want) {
    auto& gen = stack.back();
    if (!gen.hasNext()) {
      stack.pop_back();
      continue;
    }
    mc::Node child = gen.next();
    if (mc::upperBound(g, child) <= omega) continue;
    if (++seen % stride == 0) out.push_back(child);
    stack.emplace_back(g, child);
  }
  if (out.empty()) out.push_back(mc::rootNode(g));
  return out;
}

GenCost cliqueGenCost(const Graph& g, const std::vector<mc::Node>& nodes) {
  std::uint64_t children = 0;
  for (const auto& n : nodes) children += n.candidates.count();
  if (children == 0) children = 1;
  GenCost c;
  c.nsPerChild = nsPerCall("apps.maxclique.gen", children, 0.1, kGenFloorNs,
                           [&] {
    std::int64_t sink = 0;
    for (const auto& n : nodes) {
      mc::Gen gen(g, n);
      while (gen.hasNext()) sink += gen.next().bound;
    }
    keep(sink);
  });
  c.constructNs = nsPerCall("apps.maxclique.gen_construct", nodes.size(), 0.05,
                            kGenFloorNs, [&] {
    std::int64_t sink = 0;
    for (const auto& n : nodes) {
      mc::Gen gen(g, n);
      sink += gen.k;
    }
    keep(sink);
  });
  c.nextNs = std::max(
      0.0, (c.nsPerChild * static_cast<double>(children) -
            c.constructNs * static_cast<double>(nodes.size())) /
               static_cast<double>(children));
  return c;
}

double cliqueBoundNs(const Graph& g, const std::vector<mc::Node>& nodes) {
  std::vector<std::int32_t> vertex, colour;
  return nsPerCall("apps.maxclique.bound", nodes.size(), 0.05, kBoundFloorNs,
                   [&] {
    std::int64_t sink = 0;
    for (const auto& n : nodes) {
      mc::greedyColour(g, n.candidates, vertex, colour);
      sink += mc::upperBound(g, n) + (colour.empty() ? 0 : colour.back());
    }
    keep(sink);
  });
}

std::vector<uts::Node> sampleUtsNodes(const uts::Params& p,
                                      const std::vector<uts::Node>& roots,
                                      std::size_t want, std::size_t stride) {
  std::vector<uts::Node> out;
  std::size_t seen = 0;
  for (const auto& root : roots) {
    std::vector<uts::Gen> stack;
    stack.emplace_back(p, root);
    while (!stack.empty() && out.size() < want) {
      auto& gen = stack.back();
      if (!gen.hasNext()) {
        stack.pop_back();
        continue;
      }
      uts::Node child = gen.next();
      if (++seen % stride == 0) out.push_back(child);
      stack.emplace_back(p, child);
    }
    if (out.size() >= want) break;
  }
  if (out.empty()) out.push_back(roots.front());
  return out;
}

GenCost utsGenCost(const uts::Params& p, const std::vector<uts::Node>& nodes) {
  std::uint64_t children = 0;
  for (const auto& n : nodes) {
    children += static_cast<std::uint64_t>(uts::childCount(p, n));
  }
  if (children == 0) children = 1;
  GenCost c;
  c.nsPerChild = nsPerCall("apps.uts.gen", children, 0.1, kGenFloorNs, [&] {
    std::uint64_t sink = 0;
    for (const auto& n : nodes) {
      uts::Gen gen(p, n);
      while (gen.hasNext()) sink += gen.next().state;
    }
    keep(sink);
  });
  c.constructNs = nsPerCall("apps.uts.gen_construct", nodes.size(), 0.05,
                            kGenFloorNs, [&] {
    std::int64_t sink = 0;
    for (const auto& n : nodes) {
      uts::Gen gen(p, n);
      sink += gen.total;
    }
    keep(sink);
  });
  c.nextNs = std::max(
      0.0, (c.nsPerChild * static_cast<double>(children) -
            c.constructNs * static_cast<double>(nodes.size())) /
               static_cast<double>(children));
  return c;
}

// ---- transport -----------------------------------------------------------------

namespace {

constexpr int kPing = rt::tag::kUser + 1;
constexpr int kStop = rt::tag::kUser + 2;
constexpr std::uint64_t kRoundTrips = 400;

// Rank 1 echoes every ping back to rank 0 until told to stop.
void echoLoop(rt::Transport& t) {
  while (true) {
    auto m = t.recvWait(1, std::chrono::seconds(5));
    if (!m) throw std::runtime_error("echo: no message within 5 s");
    if (m->tag == kStop) return;
    t.send(rt::Message{1, 0, kPing, std::move(m->payload)});
  }
}

double pingPongUs(const char* what, rt::Transport& ping, rt::Transport& echo) {
  std::exception_ptr echoError;
  std::thread echoer([&] {
    try {
      echoLoop(echo);
    } catch (...) {
      echoError = std::current_exception();
    }
  });
  double ns = 0;
  try {
    const std::vector<std::uint8_t> payload(64, 0x5A);
    ns = nsPerCall(what, kRoundTrips, 0.1, kRttFloorNs, [&] {
      std::size_t sink = 0;
      for (std::uint64_t i = 0; i < kRoundTrips; ++i) {
        ping.send(rt::Message{0, 1, kPing, payload});
        auto back = ping.recvWait(0, std::chrono::seconds(5));
        if (!back) throw std::runtime_error("ping: no echo within 5 s");
        sink += back->payload.size();
      }
      keep(sink);
    });
  } catch (...) {
    ping.send(rt::Message{0, 1, kStop, {}});
    echoer.join();
    throw;
  }
  ping.send(rt::Message{0, 1, kStop, {}});
  echoer.join();
  if (echoError) std::rethrow_exception(echoError);
  return ns * 1e-3;
}

// A loopback port nothing is bound to right now.
std::uint16_t freePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  if (!ok) throw std::runtime_error("could not find a free loopback port");
  return ntohs(addr.sin_port);
}

}  // namespace

double inprocRttUs() {
  rt::InProcTransport net(2);
  return pingPongUs("transport.inproc_rtt", net, net);
}

double tcpRttUs() {
  for (int attempt = 0; attempt < 5; ++attempt) {
    const std::vector<std::string> peers = {
        "127.0.0.1:" + std::to_string(freePort()),
        "127.0.0.1:" + std::to_string(freePort())};
    // Each rank's constructor blocks until the mesh is up, so rank 1 is
    // built on its own thread.
    std::unique_ptr<rt::TcpTransport> ranks[2];
    std::exception_ptr errs[2];
    std::thread other([&] {
      try {
        rt::TcpConfig cfg;
        cfg.rank = 1;
        cfg.peers = peers;
        cfg.connectTimeout = std::chrono::milliseconds(5000);
        ranks[1] = std::make_unique<rt::TcpTransport>(cfg);
      } catch (...) {
        errs[1] = std::current_exception();
      }
    });
    try {
      rt::TcpConfig cfg;
      cfg.rank = 0;
      cfg.peers = peers;
      cfg.connectTimeout = std::chrono::milliseconds(5000);
      ranks[0] = std::make_unique<rt::TcpTransport>(cfg);
    } catch (...) {
      errs[0] = std::current_exception();
    }
    other.join();
    if (errs[0] || errs[1]) continue;  // port taken meanwhile: try others
    double us = 0;
    {
      rt::ShapedTransport shaped0(*ranks[0], rt::NetConfig{});
      rt::ShapedTransport shaped1(*ranks[1], rt::NetConfig{});
      us = pingPongUs("transport.tcp_rtt", shaped0, shaped1);
      shaped0.shutdown();
      shaped1.shutdown();
    }
    std::thread closer([&] { ranks[1]->shutdown(); });
    ranks[0]->shutdown();
    closer.join();
    return us;
  }
  throw std::runtime_error("could not bring up a loopback TCP pair");
}

}  // namespace perfbench
