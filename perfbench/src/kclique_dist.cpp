// kclique_dist: k-clique decision at k = omega + 1 (unsatisfiable, so every
// tree is explored in full) with Depth-Bounded d = 2 on two simulated
// localities of one worker each. Every task beyond the first moves by a
// remote steal, so serialized mc::Node payloads, the steal round trip and
// cross-locality termination are on the critical path.
//
// The node count of an unsatisfiable decision search does not depend on
// scheduling, so it is an exact oracle: it is computed once in set-up on a
// one-locality run, and for seeds 1 and 2 it is also recorded below.

#include <cstdio>
#include <string>

#include "clique.hpp"

namespace perfbench {
namespace {

using namespace yewpar;
using namespace yewpar::apps;

using DbSearch =
    skeletons::DepthBounded<CliqueGen, Decision, CliqueBound, PruneLevel>;
using SeqSearch =
    skeletons::Sequential<CliqueGen, Decision, CliqueBound, PruneLevel>;

// Brock-like instances, each a 0.05-0.2 s proof, are drawn until their
// reference node count reaches this total (about 24 instances): one larger
// instance's proof size swings by 2x from seed to seed, and a fixed count of
// 24 still moved a pass by ~10%.
constexpr std::uint64_t kPassNodes = 4400000;

// Depth-Bounded node totals per pass recorded for seeds 1 and 2, full size
// and tiny: a check on the set-up reference itself, which a bug shared by
// the 1x1 and 2x1 runs would otherwise pass.
struct Recorded {
  std::uint64_t seed;
  bool tiny;
  std::uint64_t nodes;
};
constexpr Recorded kRecorded[] = {
    {1, false, 4305873}, {2, false, 4342288}, {1, true, 6850}, {2, true, 4265}};

Params dbParams(int localities, std::int64_t k) {
  Params p;
  p.nLocalities = localities;
  p.workersPerLocality = 1;
  p.dcutoff = 2;
  p.decisionTarget = k;
  return p;
}

class KCliqueDist final : public Workload {
 public:
  Layout layout() const override { return {"DepthBounded", 2, 1}; }

  void warmUpOnce() override {
    static CliqueInstance warm = [] {
      std::vector<CliqueInstance> v{makeInstance(gnp(170, 0.70, 7))};
      solveReferences(v);
      return v.front();
    }();
    keep(DbSearch::search(dbParams(2, warm.omega + 1), warm.graph, warm.root)
             .decided);
  }

  void setUp(std::uint64_t seed, bool tiny) override {
    insts_.clear();
    expected_.clear();
    // Tiny: four instances.
    std::uint64_t total = 0;
    for (std::uint64_t i = 0; tiny ? i < 4 : total < kPassNodes; ++i) {
      std::vector<CliqueInstance> one{
          makeInstance(gnp(tiny ? 60 : 170, 0.70, instanceSeed(seed, i)))};
      solveReferences(one);
      CliqueInstance& inst = one.front();
      ScopedSpan span("reference.DepthBounded.1x1");
      auto res = DbSearch::search(dbParams(1, inst.omega + 1), inst.graph,
                                  inst.root);
      if (res.decided || !res.complete) {
        throw std::runtime_error("reference search found an omega+1 clique");
      }
      const std::uint64_t nodes = res.metrics.nodesProcessed;
      // Stop at whichever total is nearer the target: without this
      // instance, or with it.
      if (!tiny && total > 0 && 2 * total + nodes > 2 * kPassNodes) break;
      insts_.push_back(std::move(inst));
      expected_.push_back(nodes);
      total += nodes;
    }
    for (const auto& rec : kRecorded) {
      if (rec.seed == seed && rec.tiny == tiny && rec.nodes != total) {
        throw std::runtime_error(
            "reference node total " + std::to_string(total) +
            " differs from the " + std::to_string(rec.nodes) +
            " recorded for this seed");
      }
    }
    std::fprintf(stderr, "perfbench: kclique_dist seed %llu: %llu reference "
                 "nodes per pass\n", static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(total));
  }

  void runPass(std::vector<SearchRecord>& out, bool traced) override {
    for (std::size_t i = 0; i < insts_.size(); ++i) {
      const auto& inst = insts_[i];
      out.push_back(timedSearch(traced,
                                "skeletons.DepthBounded.search",
                                [&](SearchRecord& r) {
        auto res = DbSearch::search(dbParams(2, inst.omega + 1), inst.graph,
                                    inst.root);
        r.ok = !res.decided && res.complete &&
               res.metrics.nodesProcessed == expected_[i];
        fillRecord(r, res);
      }));
    }
  }

  void layerMetrics(MetricMap& m, double passS,
                    const std::vector<SearchRecord>& records) override {
    double seqS = 0, seqNodes = 0;
    {
      ScopedSpan span("skeletons.Sequential.search");
      const std::uint64_t t0 = nowNs();
      for (const auto& inst : insts_) {
        Params p;
        p.decisionTarget = inst.omega + 1;
        auto res = SeqSearch::search(p, inst.graph, inst.root);
        if (res.decided) throw std::runtime_error("Sequential reference SAT");
        seqNodes += static_cast<double>(res.metrics.nodesProcessed);
      }
      seqS = secondsSince(t0);
    }
    speedupMetrics(m, passS, seqS, seqNodes, insts_.size(), records);

    const auto& probe = insts_.front();
    const auto nodes = sampleCliqueNodes(probe.graph, probe.omega, 1024, 5);
    cliqueAppMetrics(m, probe.graph, nodes);

    const auto& empty = emptyInstance();
    m["engine.empty_search_ms"] = {emptySearchMs([&] {
      keep(DbSearch::search(dbParams(2, 1), empty.graph, empty.root).decided);
    }), "ms"};
    runtimeLayerMetrics(m, nodes, 2);
  }

 private:
  std::vector<CliqueInstance> insts_;
  std::vector<std::uint64_t> expected_;
};

}  // namespace

std::unique_ptr<Workload> makeKCliqueDist() {
  return std::make_unique<KCliqueDist>();
}

}  // namespace perfbench
