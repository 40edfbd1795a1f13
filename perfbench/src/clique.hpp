#pragma once

// Seeded clique instances and the checks shared by the three MaxClique
// workloads.

#include <cstdint>
#include <vector>

#include "apps/baselines/clique_seq.hpp"
#include "apps/maxclique/graph.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "core/yewpar.hpp"
#include "util/rng.hpp"

namespace perfbench {

using CliqueGen = StampGen<yewpar::apps::mc::Gen>;
using CliqueBound = yewpar::BoundFunction<&yewpar::apps::mc::upperBound>;

struct CliqueInstance {
  yewpar::apps::Graph graph;
  yewpar::apps::mc::Node root;
  std::int64_t omega = 0;  // reference optimum (baseline::maxCliqueSeq)
};

// A degree-sorted graph, as the paper's solvers run them.
inline CliqueInstance makeInstance(yewpar::apps::Graph g) {
  g.sortByDegreeDesc();
  CliqueInstance inst{std::move(g), {}, 0};
  inst.root = yewpar::apps::mc::rootNode(inst.graph);
  return inst;
}

// Per-instance generator seed: instance i of a run depends on the run seed
// and on nothing else.
inline std::uint64_t instanceSeed(std::uint64_t runSeed, std::uint64_t i) {
  return yewpar::mix64(runSeed, i + 1);
}

// An instance whose root has no children: the empty search.
inline const CliqueInstance& emptyInstance() {
  static const CliqueInstance empty =
      makeInstance(yewpar::apps::Graph(0));
  return empty;
}

// The optimum of every instance, from the hand-written solver.
inline void solveReferences(std::vector<CliqueInstance>& insts) {
  ScopedSpan span("reference.baseline");
  for (auto& inst : insts) {
    inst.omega = yewpar::apps::baseline::maxCliqueSeq(inst.graph).size;
  }
}

// An optimisation result is right when its objective is the reference
// optimum and its witness really is a clique of that size.
template <typename Out>
bool optimumIsRight(const CliqueInstance& inst, const Out& out) {
  return out.complete && out.objective == inst.omega && out.incumbent &&
         out.incumbent->size == inst.omega &&
         static_cast<std::int64_t>(out.incumbent->clique.count()) ==
             inst.omega &&
         yewpar::apps::mc::isClique(inst.graph, out.incumbent->clique);
}

// apps.maxclique.* on sampled nodes of one instance; returns the generator
// costs, which the skeleton-loop share needs too.
inline GenCost cliqueAppMetrics(
    MetricMap& m, const yewpar::apps::Graph& g,
    const std::vector<yewpar::apps::mc::Node>& nodes) {
  const GenCost gen = cliqueGenCost(g, nodes);
  m["apps.maxclique.gen_ns_per_child"] = {gen.nsPerChild, "ns"};
  m["apps.maxclique.bound_ns"] = {cliqueBoundNs(g, nodes), "ns"};
  return gen;
}

}  // namespace perfbench
