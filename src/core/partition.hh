/**
 * @file
 * Selective vectorization: the Kernighan-Lin-style two-partition
 * heuristic of the paper's Figure 2 (PARTITION-OPS).
 *
 * All operations start in the scalar partition. Each outer iteration
 * repositions every vectorizable operation exactly once: the operation
 * whose trial move yields the lowest configuration cost is switched
 * and locked, the bins are re-packed, and the best configuration seen
 * is remembered (individual moves may increase the cost — that is the
 * hill-climbing escape hatch of Kernighan-Lin). The outer loop repeats
 * from the best configuration until an iteration fails to improve it.
 */

#ifndef SELVEC_CORE_PARTITION_HH
#define SELVEC_CORE_PARTITION_HH

#include <string>

#include "analysis/vectorizable.hh"
#include "core/costmodel.hh"
#include "support/expected.hh"

namespace selvec
{

/**
 * Which partitioner runs. Kl is the paper's heuristic and the
 * default; Exact chases the proven optimum with the branch-and-bound
 * oracle (partition_exact.hh), seeded by the KL result so it can only
 * improve on it; Auto picks Exact for loops with at most
 * PartitionOptions::exactThreshold vectorizable ops and Kl beyond.
 */
enum class PartitionStrategy : uint8_t {
    Kl,
    Exact,
    Auto,
};

/** Printable name of a strategy ("kl", "exact", "auto"). */
const char *partitionStrategyName(PartitionStrategy strategy);

/** Parse a strategy name; false (out untouched) on anything else. */
bool parsePartitionStrategy(const std::string &text,
                            PartitionStrategy *out);

struct PartitionOptions
{
    CostOptions cost;

    /** Cap on outer iterations (0 = run until convergence). The paper
     *  notes convergence typically takes only a few iterations. */
    int maxIterations = 0;

    /** Which partitioner runs (see PartitionStrategy). */
    PartitionStrategy strategy = PartitionStrategy::Kl;

    /** Auto cutover: Exact runs when the loop has at most this many
     *  vectorizable ops (2^24 relaxed-bound nodes upper-bounds the
     *  tree), KL beyond. */
    int exactThreshold = 24;

    /**
     * Node budget for the exact search (0 = unbounded). Past it the
     * search stops with the best assignment found and reports
     * Unproven — never wrong, merely incomplete.
     */
    int64_t exactMaxNodes = 1 << 20;

    /**
     * Compute PartitionResult::allVectorCost, the purely informational
     * cost of vectorizing every candidate. It builds (and packs) a
     * second full cost model per partition run, so throughput-critical
     * callers — the hot-path benchmarks, replayed compiles — turn it
     * off; the result field then stays 0. Default on: the probe
     * appears in every JSON partition detail.
     */
    bool probeAllVectorCost = true;
};

struct PartitionResult
{
    /** Final partition: vectorize[op] true = vector side. */
    std::vector<bool> vectorize;

    int64_t bestCost = 0;       ///< packed cost of the final partition
    int64_t allScalarCost = 0;  ///< cost of the initial configuration
    int64_t allVectorCost = 0;  ///< cost of vectorizing everything

    int iterations = 0;         ///< outer KL iterations executed
    int movesEvaluated = 0;     ///< TEST-REPARTITION calls
    int movesCommitted = 0;     ///< SWITCH-OP calls (locked moves)

    /** Values crossing the final partition (each costs one operand
     *  transfer — the communication cut of the configuration). */
    int crossingValues = 0;

    /** True when the ambient deadline (or cancellation) stopped the
     *  KL search early. The result is still the best configuration
     *  seen — partitioning is an anytime algorithm — but callers that
     *  must honor the containment contract (tryPartitionOps) convert
     *  the flag into a DeadlineExceeded / Cancelled status. */
    bool deadlineStopped = false;

    /** True when the exact oracle ran (strategy Exact, or Auto under
     *  the threshold). The fields below are meaningful only then. */
    bool exactUsed = false;

    /** True when the exact search exhausted its space: bestCost is
     *  the proven minimum of the cost model's objective. False after
     *  a node-budget stop (Unproven — the incumbent KL result is
     *  kept, never a wrong one). */
    bool exactProven = false;

    int64_t exactNodes = 0;     ///< decision nodes expanded
    int64_t exactPruned = 0;    ///< subtrees cut by the lower bound

    /** The KL incumbent's cost (bestCost before the oracle ran). */
    int64_t klCost = 0;

    /** klCost - bestCost: the measured KL optimality gap (>= 0 by
     *  construction — the search starts from the KL incumbent). */
    int64_t exactGap = 0;

    /** True when at least one op ended up vectorized. */
    bool
    anyVector() const
    {
        for (bool b : vectorize) {
            if (b)
                return true;
        }
        return false;
    }
};

/**
 * Run selective vectorization on one loop.
 *
 * @param loop the candidate loop (pre-lowering)
 * @param va vectorizability marks for the same loop
 * @param machine the target
 */
PartitionResult partitionOps(const Loop &loop, const VectAnalysis &va,
                             const Machine &machine,
                             const PartitionOptions &options = {});

/**
 * Partitioning as a recoverable stage: validates the inputs (the
 * analysis must describe exactly this loop, options knobs must be
 * sane), carries the "partition.kl" fault injection point, reports
 * PartitionFailed instead of dying, and converts a deadline-stopped
 * search into a DeadlineExceeded / Cancelled status.
 */
Expected<PartitionResult>
tryPartitionOps(const Loop &loop, const VectAnalysis &va,
                const Machine &machine,
                const PartitionOptions &options = {});

} // namespace selvec

#endif // SELVEC_CORE_PARTITION_HH
