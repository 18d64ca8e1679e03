#include "analysis/scc.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/stats.hh"

namespace selvec
{

namespace
{

/** Iterative Tarjan to avoid deep recursion on large generated loops. */
class Tarjan
{
  public:
    Tarjan(int n, const std::vector<std::vector<int>> &adjacency)
        : comp(static_cast<size_t>(n), -1), adj(adjacency),
          index(static_cast<size_t>(n), -1),
          low(static_cast<size_t>(n), 0),
          onStack(static_cast<size_t>(n), false)
    {
        for (int v = 0; v < n; ++v) {
            if (index[static_cast<size_t>(v)] == -1)
                strongConnect(v);
        }
    }

    std::vector<int> comp;
    int numComps = 0;

  private:
    struct Frame
    {
        int v;
        size_t edge;
    };

    void
    strongConnect(int root)
    {
        std::vector<Frame> frames;
        frames.push_back(Frame{root, 0});
        open(root);

        while (!frames.empty()) {
            Frame &f = frames.back();
            const std::vector<int> &succ =
                adj[static_cast<size_t>(f.v)];
            if (f.edge < succ.size()) {
                int w = succ[f.edge++];
                if (index[static_cast<size_t>(w)] == -1) {
                    open(w);
                    frames.push_back(Frame{w, 0});
                } else if (onStack[static_cast<size_t>(w)]) {
                    low[static_cast<size_t>(f.v)] = std::min(
                        low[static_cast<size_t>(f.v)],
                        index[static_cast<size_t>(w)]);
                }
            } else {
                int v = f.v;
                frames.pop_back();
                if (!frames.empty()) {
                    int parent = frames.back().v;
                    low[static_cast<size_t>(parent)] =
                        std::min(low[static_cast<size_t>(parent)],
                                 low[static_cast<size_t>(v)]);
                }
                if (low[static_cast<size_t>(v)] ==
                    index[static_cast<size_t>(v)]) {
                    // v roots a component; pop it off the stack.
                    while (true) {
                        int w = stack.back();
                        stack.pop_back();
                        onStack[static_cast<size_t>(w)] = false;
                        comp[static_cast<size_t>(w)] = numComps;
                        if (w == v)
                            break;
                    }
                    ++numComps;
                }
            }
        }
    }

    void
    open(int v)
    {
        index[static_cast<size_t>(v)] = counter;
        low[static_cast<size_t>(v)] = counter;
        ++counter;
        stack.push_back(v);
        onStack[static_cast<size_t>(v)] = true;
    }

    const std::vector<std::vector<int>> &adj;
    std::vector<int> index;
    std::vector<int> low;
    std::vector<bool> onStack;
    std::vector<int> stack;
    int counter = 0;
};

} // anonymous namespace

SccInfo
findSccs(int num_nodes, const std::vector<std::pair<int, int>> &edges)
{
    std::vector<std::vector<int>> adj(static_cast<size_t>(num_nodes));
    for (const auto &[src, dst] : edges) {
        SV_ASSERT(src >= 0 && src < num_nodes && dst >= 0 &&
                      dst < num_nodes,
                  "bad edge %d -> %d", src, dst);
        adj[static_cast<size_t>(src)].push_back(dst);
    }

    Tarjan tarjan(num_nodes, adj);

    SccInfo info;
    info.sccOf = tarjan.comp;
    info.members.resize(static_cast<size_t>(tarjan.numComps));
    info.cyclic.assign(static_cast<size_t>(tarjan.numComps), false);
    for (int v = 0; v < num_nodes; ++v) {
        info.members[static_cast<size_t>(info.sccOf[
            static_cast<size_t>(v)])].push_back(v);
    }
    for (const auto &[src, dst] : edges) {
        int cs = info.sccOf[static_cast<size_t>(src)];
        if (cs == info.sccOf[static_cast<size_t>(dst)])
            info.cyclic[static_cast<size_t>(cs)] = true;
    }
    // Multi-node components always contain an intra-component edge, so
    // the scan above already marked them cyclic.
    for (auto &m : info.members)
        std::sort(m.begin(), m.end());

    // Tarjan numbers components in reverse topological order: a
    // component is finished only after everything it can reach.
    info.topoOrder.resize(static_cast<size_t>(tarjan.numComps));
    for (int c = 0; c < tarjan.numComps; ++c) {
        info.topoOrder[static_cast<size_t>(tarjan.numComps - 1 - c)] = c;
    }
    return info;
}

SccInfo
computeSccs(int num_nodes, const std::vector<std::pair<int, int>> &edges)
{
    SccInfo info = findSccs(num_nodes, edges);
    StatsRegistry &stats = globalStats();
    stats.add("scc.runs");
    stats.add("scc.components", info.numSccs());
    size_t largest = 0;
    for (const auto &m : info.members)
        largest = std::max(largest, m.size());
    stats.maxGauge("scc.maxComponent",
                   static_cast<int64_t>(largest));
    return info;
}

} // namespace selvec
