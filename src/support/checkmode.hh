/**
 * @file
 * The SELVEC_CHECK_INCREMENTAL and SELVEC_CHECK_SIM debug/CI modes.
 *
 * The hot paths maintain derived state incrementally (the
 * partitioner's delta-replayed commits, the scheduler's MRT occupancy
 * masks and ready heap) instead of recomputing it from scratch. With
 * SELVEC_CHECK_INCREMENTAL set (any value but "0"), every incremental
 * step is cross-checked against the from-scratch computation it
 * replaced and the process dies on the first divergence — the mode CI
 * and the `hotpath` test label run to prove the fast paths are exact.
 *
 * SELVEC_CHECK_SIM is the same contract for the simulator: with it
 * set, every pipelined run is re-run on the sequential reference
 * engine from a copy of the memory it started from, and the process
 * dies unless body iterations, exit state, dynOps, live-outs, carried
 * state and memory all match and an exit-free run took the
 * closed-form cycle count (sim/executor.hh). The re-run records no
 * stats and no trace spans, so documents do not depend on the mode.
 * The sim-speed CI lane runs the full suite under it; selvec_fuzz
 * turns it on for every sweep.
 *
 * Each flag is resolved from the environment on first query and
 * cached; tests flip them deterministically through
 * setCheckIncremental() / setCheckSim().
 */

#ifndef SELVEC_SUPPORT_CHECKMODE_HH
#define SELVEC_SUPPORT_CHECKMODE_HH

namespace selvec
{

/** True when incremental cross-checking is on. Cheap after the first
 *  call (one relaxed atomic load). */
bool checkIncrementalEnabled();

/** Force the mode on or off, overriding the environment (tests). */
void setCheckIncremental(bool enabled);

/** True when every pipelined run is checked against the reference
 *  engine. Cheap after the first call. */
bool checkSimEnabled();

/** Force simulator cross-checking on or off, overriding the
 *  environment (tests). */
void setCheckSim(bool enabled);

} // namespace selvec

#endif // SELVEC_SUPPORT_CHECKMODE_HH
