#include "analysis/recmii.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "analysis/scc.hh"
#include "support/logging.hh"

namespace selvec
{

namespace
{

/** A dependence edge with its endpoints renumbered 0 .. k-1. */
struct LocalEdge
{
    int src;
    int dst;
    int64_t latency;
    int64_t distance;
};

/**
 * Whether `ii` leaves `edges` (over nodes 0 .. num_nodes-1) without a
 * positive cycle under weights latency - ii*distance. Longest paths
 * from an all-zero start have at most num_nodes - 1 edges when no
 * cycle is positive, so the relaxation then settles within num_nodes
 * passes; one still changing after num_nodes + 1 passes has found a
 * positive cycle. Heights only grow from zero and the passes are
 * bounded, so nothing can overflow. `height` is scratch.
 */
bool
relaxationSettles(const std::vector<LocalEdge> &edges, size_t num_nodes,
                  int64_t ii, std::vector<int64_t> &height)
{
    height.assign(num_nodes, 0);
    for (size_t pass = 0; pass <= num_nodes; ++pass) {
        bool changed = false;
        for (const LocalEdge &e : edges) {
            int64_t reach = height[static_cast<size_t>(e.src)] +
                            e.latency - ii * e.distance;
            if (reach > height[static_cast<size_t>(e.dst)]) {
                height[static_cast<size_t>(e.dst)] = reach;
                changed = true;
            }
        }
        if (!changed)
            return true;
    }
    return false;
}

} // anonymous namespace

bool
recurrencesAdmit(const DepGraph &graph, int64_t ii)
{
    std::vector<LocalEdge> edges;
    edges.reserve(graph.edges().size());
    for (const DepEdge &e : graph.edges())
        edges.push_back(LocalEdge{e.src, e.dst, e.latency, e.distance});
    std::vector<int64_t> height;
    return relaxationSettles(
        edges, static_cast<size_t>(graph.numOps()), ii, height);
}

int64_t
computeRecMii(const DepGraph &graph)
{
    std::vector<std::pair<int, int>> pairs;
    pairs.reserve(graph.edges().size());
    for (const DepEdge &e : graph.edges())
        pairs.emplace_back(e.src, e.dst);
    SccInfo sccs = findSccs(graph.numOps(), pairs);

    int64_t rec_mii = 1;
    std::vector<int> local(static_cast<size_t>(graph.numOps()), -1);
    std::vector<LocalEdge> edges;
    std::vector<int64_t> height;
    for (int c = 0; c < sccs.numSccs(); ++c) {
        if (!sccs.cyclic[static_cast<size_t>(c)])
            continue;
        const std::vector<int> &members =
            sccs.members[static_cast<size_t>(c)];
        for (size_t i = 0; i < members.size(); ++i)
            local[static_cast<size_t>(members[i])] = static_cast<int>(i);

        // Every simple cycle has latency below `hi` and distance >= 1,
        // so `hi` is feasible for this component.
        int64_t hi = 1;
        edges.clear();
        for (int m : members) {
            for (int ei : graph.outEdges(m)) {
                const DepEdge &e = graph.edges()[static_cast<size_t>(ei)];
                if (sccs.sccOf[static_cast<size_t>(e.dst)] != c)
                    continue;
                edges.push_back(LocalEdge{
                    local[static_cast<size_t>(e.src)],
                    local[static_cast<size_t>(e.dst)], e.latency,
                    e.distance});
                hi += std::max<int64_t>(e.latency, 0);
            }
        }
        if (relaxationSettles(edges, members.size(), rec_mii, height))
            continue;

        SV_ASSERT(relaxationSettles(edges, members.size(), hi, height),
                  "RecMII upper bound %lld infeasible",
                  static_cast<long long>(hi));
        int64_t lo = rec_mii + 1;
        while (lo < hi) {
            int64_t mid = lo + (hi - lo) / 2;
            if (relaxationSettles(edges, members.size(), mid, height))
                hi = mid;
            else
                lo = mid + 1;
        }
        rec_mii = lo;
    }
    return rec_mii;
}

} // namespace selvec
