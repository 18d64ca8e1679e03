/**
 * @file
 * The benchmark's three workloads. Each builds its inputs from the seed
 * at set-up and then serves requests by index, closed-loop, one at a
 * time: `run` goes through the library's public entry point exactly as
 * a user would, and `replay` sends the same request through each
 * layer's public functions with a span around every call.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.hh"

namespace perfbench
{

/** What one request produced; the traced replay must reproduce it. */
struct Outcome
{
    /** A structured failure: compile failure, quarantined loop, failed
     *  run. "" when none. */
    std::string failure;

    /** An output an oracle rejected: divergence from the reference
     *  interpreter, a schedule the checker refuses, an exact verdict
     *  worse than KL. "" when none. */
    std::string wrong;

    /** The IIs and simulated cycles the request produced, in order. */
    std::vector<int64_t> signature;

    /** Simulated cycles of all generated code the request ran. */
    int64_t simCycles = 0;

    /** ModuloOnly and Selective cycles, summed per key, for
     *  selective_speedup (empty key: the request has no pair). */
    std::string pairKey;
    int64_t moduloCycles = 0;
    int64_t selectiveCycles = 0;

    /** Verdicts the request asked for and how many were proven. */
    int verdicts = 0;
    int proven = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input from `seed`; spans workloads.setup. */
    virtual void setup(uint64_t seed, Tracer *tracer) = 0;

    /** Distinct requests the inputs hold; a round serves each once. */
    virtual size_t requests() const = 0;

    /** Rounds an untraced run serves, each serving every request. */
    virtual int rounds() const { return 1; }

    /** Leading requests the traced run replays, which compiles each
     *  loop twice. */
    virtual size_t tracedRequests() const
    {
        return std::min<size_t>(requests(), 300);
    }

    /** True when a request is one evaluateSuite call. */
    virtual bool evaluatesSuites() const { return false; }

    /** Work between requests that is not part of any request (a
     *  paper_tables table starting cold). */
    virtual void beforeRequest(size_t /*i*/) {}

    /** Serve request `i` through the public entry point. */
    virtual Outcome run(size_t i) = 0;

    /** Serve request `i` layer by layer under `tracer`. */
    virtual Outcome replay(size_t i, Tracer &tracer) = 0;
};

/** The named workload sized for a `seconds`-long run (nullptr for an
 *  unknown name); `shortMode` shrinks it for the self-test. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       double seconds, bool shortMode);

/** Names of every workload. */
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
