/**
 * @file
 * Tarjan's strongly connected components [36], used to find dependence
 * cycles (recurrences), to order component emission in the loop
 * transformers, and to split RecMII into one search per recurrence.
 * Both entry points run in O(nodes + edges).
 */

#ifndef SELVEC_ANALYSIS_SCC_HH
#define SELVEC_ANALYSIS_SCC_HH

#include <utility>
#include <vector>

namespace selvec
{

struct SccInfo
{
    /** Component id of each node. */
    std::vector<int> sccOf;

    /** Member nodes of each component, in ascending node order. */
    std::vector<std::vector<int>> members;

    /**
     * Component ids in topological order (dependence sources first):
     * if any edge runs from component X to component Y != X, X appears
     * before Y.
     */
    std::vector<int> topoOrder;

    /** Whether each component contains a cycle (more than one node, or
     *  a self edge). */
    std::vector<bool> cyclic;

    int numSccs() const { return static_cast<int>(members.size()); }
};

/**
 * Compute SCCs of a directed graph given as an edge list, and record
 * the run in the `scc.runs`, `scc.components` and `scc.maxComponent`
 * stats. The vectorizability analysis is its caller; the stats count
 * that analysis's runs, so the report documents carry them.
 *
 * @param num_nodes node count; nodes are 0 .. num_nodes-1
 * @param edges (src, dst) pairs; self edges and duplicates allowed
 */
SccInfo computeSccs(int num_nodes,
                    const std::vector<std::pair<int, int>> &edges);

/**
 * computeSccs without the stats: the same components, recording
 * nothing. For callers that run on every schedule (computeRecMii),
 * which must not move the documented `scc.*` counts.
 */
SccInfo findSccs(int num_nodes,
                 const std::vector<std::pair<int, int>> &edges);

} // namespace selvec

#endif // SELVEC_ANALYSIS_SCC_HH
