/**
 * @file
 * Final lowering before scheduling: appends the per-iteration loop
 * overhead (one induction-variable update on an integer ALU and one
 * back-branch on the branch unit) that every kernel iteration executes
 * on a real machine. The paper's evaluation baseline unrolls loops so
 * this overhead is shared by `coverage` original iterations — lowering
 * a transformed or unrolled loop likewise adds a single copy.
 *
 * The machine may disable overhead entirely (the Figure 1 toy machine,
 * which the paper draws without address or branch operations).
 */

#ifndef SELVEC_PIPELINE_LOWERING_HH
#define SELVEC_PIPELINE_LOWERING_HH

#include "ir/loop.hh"
#include "machine/machine.hh"
#include "support/expected.hh"

namespace selvec
{

/**
 * Return a copy of `loop` with loop-control overhead appended. The
 * induction update is a genuine integer add forming a distance-1
 * recurrence (i = i + 1), so it also contributes its (trivial) RecMII
 * of 1; its value feeds nothing else, matching base+offset addressing
 * where memory operations embed their own displacements.
 */
Loop lowerForScheduling(const Loop &loop, const Machine &machine);

/**
 * Lowering as a recoverable stage: carries the "lowering.lower" fault
 * injection point and verifies the lowered loop, so a lowering bug (or
 * an injected failure) comes back as a status instead of crashing.
 */
Expected<Loop> tryLowerForScheduling(const Loop &loop,
                                     const ArrayTable &arrays,
                                     const Machine &machine);

} // namespace selvec

#endif // SELVEC_PIPELINE_LOWERING_HH
