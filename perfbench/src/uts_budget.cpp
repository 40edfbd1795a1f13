// uts_budget: UTS node counting with the Budget skeleton (b = 10^4) on one
// locality of three workers. UTS nodes are cheap, so the shared workpool and
// the per-task engine cost dominate; the transport carries almost nothing.
//
// One geometric UTS tree's size varies several-fold with its seed, which no
// run-to-run bound could absorb, so the input is a forest: a virtual root
// whose children are the roots of 2700 independent geometric trees (b0 = 6,
// depth 8) drawn from the run seed. The total stays within ~1.5% of 40M
// nodes from seed to seed while every tree keeps the UTS geometric shape.

#include "core/yewpar.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

using namespace yewpar;
using namespace yewpar::apps;

struct Forest {
  uts::Params tree;  // shape shared by every tree; tree i's seed below
  std::int32_t trees = 0;
  std::uint64_t seed = 0;

  uts::Params treeParams(std::int32_t i) const {
    uts::Params p = tree;
    p.seed = mix64(seed, static_cast<std::uint64_t>(i) + 1);
    return p;
  }

  void save(OArchive& a) const { a << tree << trees << seed; }
  void load(IArchive& a) { a >> tree >> trees >> seed; }
};

// The forest's virtual root (depth -1) yields the tree roots; every other
// node is expanded by uts::Gen itself.
struct ForestGen {
  using Space = Forest;
  using Node = uts::Node;

  const Forest* forest;
  std::int32_t nextTree = 0;
  std::int32_t trees;
  uts::Gen inner;

  ForestGen(const Forest& f, const uts::Node& n)
      : forest(&f),
        trees(n.d < 0 ? f.trees : 0),
        // A node at the depth cut-off has no children: the forest root's
        // inner generator is empty.
        inner(f.tree, n.d < 0 ? uts::Node{f.tree.maxDepth, 0} : n) {}

  bool hasNext() const { return nextTree < trees || inner.hasNext(); }
  uts::Node next() {
    if (nextTree < trees) return uts::rootNode(forest->treeParams(nextTree++));
    return inner.next();
  }
};

using Count = Enumeration<CountAll>;
using Gen = StampGen<ForestGen>;
using BudgetSearch = skeletons::Budget<Gen, Count>;
using SeqSearch = skeletons::Sequential<Gen, Count>;

const uts::Node kForestRoot{-1, 0};

Forest makeForest(std::uint64_t seed, std::int32_t trees, std::int32_t depth) {
  Forest f;
  f.tree.shape = uts::Shape::Geometric;
  f.tree.b0 = 6;
  f.tree.maxDepth = depth;
  f.trees = trees;
  f.seed = seed;
  return f;
}

Params budgetParams() {
  Params p;
  p.workersPerLocality = 3;
  p.backtrackBudget = 10000;
  return p;
}

class UtsBudget final : public Workload {
 public:
  Layout layout() const override { return {"Budget", 1, 3}; }

  void warmUpOnce() override {
    static const Forest warm = makeForest(7, 200, 8);
    keep(BudgetSearch::search(budgetParams(), warm, kForestRoot).sum);
  }

  void setUp(std::uint64_t seed, bool tiny) override {
    forest_ = tiny ? makeForest(seed, 20, 6) : makeForest(seed, 2700, 8);
    // Reference count: the library's own recursive counter, tree by tree,
    // plus the virtual root.
    ScopedSpan span("reference.uts.countTree");
    expected_ = 1;
    for (std::int32_t i = 0; i < forest_.trees; ++i) {
      expected_ += uts::countTree(forest_.treeParams(i));
    }
  }

  void runPass(std::vector<SearchRecord>& out, bool traced) override {
    out.push_back(timedSearch(traced, "skeletons.Budget.search",
                              [&](SearchRecord& r) {
      auto res = BudgetSearch::search(budgetParams(), forest_, kForestRoot);
      r.ok = res.complete && res.sum == expected_ &&
             res.metrics.nodesProcessed == expected_;
      fillRecord(r, res);
    }));
  }

  void layerMetrics(MetricMap& m, double passS,
                    const std::vector<SearchRecord>& records) override {
    // Sequential reference over the same forest.
    double seqS = 0;
    std::uint64_t seqNodes = 0;
    {
      ScopedSpan span("skeletons.Sequential.search");
      const std::uint64_t t0 = nowNs();
      auto res = SeqSearch::search(Params{}, forest_, kForestRoot);
      seqS = secondsSince(t0);
      seqNodes = res.metrics.nodesProcessed;
      if (res.sum != expected_) {
        throw std::runtime_error("Sequential reference count mismatch");
      }
    }
    speedupMetrics(m, passS, seqS, static_cast<double>(seqNodes), 1, records);

    std::vector<uts::Node> roots;
    for (std::int32_t i = 0; i < std::min(forest_.trees, 64); ++i) {
      roots.push_back(uts::rootNode(forest_.treeParams(i)));
    }
    const auto nodes = sampleUtsNodes(forest_.tree, roots, 4096, 7);
    const GenCost gen = utsGenCost(forest_.tree, nodes);
    m["apps.uts.gen_ns_per_child"] = {gen.nsPerChild, "ns"};

    // Counting visits every node once: one generator per node and one
    // child per node but the root.
    const double n = static_cast<double>(seqNodes);
    const double nsPerNode = seqS * 1e9 / n;
    const double genShare = gen.constructNs + gen.nextNs * (n - 1) / n;
    m["skeletons.ns_per_node"] = {nsPerNode, "ns"};
    m["skeletons.loop_ns_per_node"] = {nsPerNode - genShare, "ns"};

    const Forest empty = makeForest(forest_.seed, 0, forest_.tree.maxDepth);
    m["engine.empty_search_ms"] = {emptySearchMs([&] {
      keep(BudgetSearch::search(budgetParams(), empty, kForestRoot).sum);
    }), "ms"};
    runtimeLayerMetrics(m, nodes, 3);
  }

 private:
  Forest forest_;
  std::uint64_t expected_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeUtsBudget() {
  return std::make_unique<UtsBudget>();
}

}  // namespace perfbench
