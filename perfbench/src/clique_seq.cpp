// clique_seq: MaxClique optimisation with the Sequential skeleton over a
// seeded set of Table 1 families, checked against the hand-written solver.
// The generator, the bound and the skeleton loop do nearly all the work; no
// runtime thread, pool or transport runs.

#include "clique.hpp"

namespace perfbench {
namespace {

using namespace yewpar;
using namespace yewpar::apps;

using SeqSearch = skeletons::Sequential<CliqueGen, Optimisation, CliqueBound,
                                        PruneLevel>;

// Each family's instances per pass are drawn until their hand-written
// solver node count reaches the family's total below, about eight average
// instances (a pass of ~3.5 s). One instance's search time swings by 25-50%
// (coefficient of variation) from seed to seed, and a family's time over a
// fixed count of twelve instances still moved by ~10%; a fixed node total
// holds each family's share of the pass to a few percent on every seed.
constexpr std::uint64_t kFamilyNodes[5] = {465000, 445000, 315000, 215000,
                                           325000};

// Stand-ins for the DIMACS families of Table 1, sized so each search takes
// 0.08-0.1 s on average on a 4-core x86 host (tiny: milliseconds).
CliqueInstance familyInstance(int family, std::uint64_t seed, bool tiny) {
  switch (family) {
    case 0:  // brock
      return makeInstance(gnp(tiny ? 70 : 164, 0.72, seed));
    case 1:  // sanr
      return makeInstance(gnp(tiny ? 60 : 140, 0.78, seed));
    case 2:  // MANN
      return makeInstance(gnp(tiny ? 45 : 120, 0.88, seed));
    case 3:  // p_hat: a sparse and a dense half
      return makeInstance(twoDensity(tiny ? 80 : 210, 0.40, 0.85, seed));
    default:  // san: a planted clique hidden among near-cliques
      return makeInstance(
          plantedClique(tiny ? 80 : 230, 0.70, tiny ? 14 : 30, seed));
  }
}

class CliqueSeq final : public Workload {
 public:
  Layout layout() const override { return {"Sequential", 1, 1}; }

  void warmUpOnce() override {
    static const CliqueInstance warm = makeInstance(gnp(150, 0.78, 7));
    keep(SeqSearch::search(Params{}, warm.graph, warm.root).objective);
  }

  void setUp(std::uint64_t seed, bool tiny) override {
    ScopedSpan span("reference.baseline");
    insts_.clear();
    for (int f = 0; f < 5; ++f) {
      // Tiny: one instance per family.
      const std::uint64_t target = tiny ? 0 : kFamilyNodes[f];
      std::uint64_t total = 0;
      for (std::uint64_t j = 0; total == 0 || total < target; ++j) {
        CliqueInstance inst =
            familyInstance(f, instanceSeed(seed, 5 * j + f), tiny);
        const auto ref = baseline::maxCliqueSeq(inst.graph);
        // Stop at whichever total is nearer the target: without this
        // instance, or with it.
        if (total > 0 && 2 * total + ref.nodes > 2 * target) break;
        inst.omega = ref.size;
        insts_.push_back(std::move(inst));
        total += ref.nodes;
      }
    }
  }

  void runPass(std::vector<SearchRecord>& out, bool traced) override {
    for (const auto& inst : insts_) {
      out.push_back(timedSearch(traced,
                                "skeletons.Sequential.search",
                                [&](SearchRecord& r) {
        auto res = SeqSearch::search(Params{}, inst.graph, inst.root);
        r.ok = optimumIsRight(inst, res);
        fillRecord(r, res);
      }));
    }
  }

  void layerMetrics(MetricMap& m, double passS,
                    const std::vector<SearchRecord>& records) override {
    double baselineS = 0;
    {
      ScopedSpan span("apps.baseline.maxCliqueSeq");
      const std::uint64_t t0 = nowNs();
      std::int64_t sink = 0;
      for (const auto& inst : insts_) {
        sink += baseline::maxCliqueSeq(inst.graph).size;
      }
      baselineS = secondsSince(t0);
      keep(sink);
    }
    m["apps.baseline.solve_s"] = {baselineS, "s"};
    m["skeletons.overhead_x"] = {passS / baselineS, "x"};

    const auto& probe = insts_.front();
    const auto nodes = sampleCliqueNodes(probe.graph, probe.omega, 1024, 5);
    const GenCost gen = cliqueAppMetrics(m, probe.graph, nodes);

    // Per-node cost of the untraced pass, and what is left of it once the
    // generator's share (its constructions and children, counted in the
    // traced passes) is taken out.
    const double passes =
        static_cast<double>(records.size()) / static_cast<double>(insts_.size());
    double nodesSeen = 0, constructs = 0, children = 0;
    for (const auto& r : records) {
      nodesSeen += static_cast<double>(r.metrics.nodesProcessed);
      constructs += static_cast<double>(r.genConstructs);
      children += static_cast<double>(r.genChildren);
    }
    const double nsPerNode = passS * 1e9 / (nodesSeen / passes);
    const double genShare =
        (constructs * gen.constructNs + children * gen.nextNs) / nodesSeen;
    m["skeletons.ns_per_node"] = {nsPerNode, "ns"};
    m["skeletons.loop_ns_per_node"] = {nsPerNode - genShare, "ns"};

    const auto& empty = emptyInstance();
    m["engine.empty_search_ms"] = {emptySearchMs([&] {
      keep(SeqSearch::search(Params{}, empty.graph, empty.root).objective);
    }), "ms"};
    runtimeLayerMetrics(m, nodes, 2);
  }

 private:
  std::vector<CliqueInstance> insts_;
};

}  // namespace

std::unique_ptr<Workload> makeCliqueSeq() {
  return std::make_unique<CliqueSeq>();
}

}  // namespace perfbench
