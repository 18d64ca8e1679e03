/**
 * @file
 * Functional semantics of every IR opcode: one evaluation function
 * shared by the sequential reference interpreter and the pipelined
 * executor, so the two can never diverge on what an operation *means* —
 * only on when it runs.
 *
 * Two entry points share one implementation: evalOpInto() writes the
 * result into a caller-owned RtVal in place (the streaming executor's
 * allocation-free path — lane vectors keep their capacity across
 * reuses), and evalOp() is the by-value convenience wrapper the
 * reference engine uses.
 */

#ifndef SELVEC_SIM_SEMANTICS_HH
#define SELVEC_SIM_SEMANTICS_HH

#include "ir/loop.hh"
#include "sim/memimage.hh"
#include "sim/rtval.hh"

namespace selvec
{

/**
 * Evaluate one operation into `dest`.
 *
 * @param dest receives the produced value (type None for
 *        stores/branches); must not alias any operand
 * @param op the operation
 * @param operands pointers to the runtime values of op.srcs (entries
 *        for kNoValue operands are ignored but must be non-null)
 * @param n_operands number of entries in `operands`
 * @param iter absolute iteration index for memory-reference evaluation
 * @param vl the machine's vector length
 * @param mem simulated memory (read and written)
 */
void evalOpInto(RtVal &dest, const Operation &op,
                const RtVal *const *operands, size_t n_operands,
                int64_t iter, int vl, MemoryImage &mem);

/**
 * Evaluate one operation.
 *
 * @param op the operation
 * @param operands runtime values of op.srcs (entries for kNoValue
 *        operands are ignored)
 * @param iter absolute iteration index for memory-reference evaluation
 * @param vl the machine's vector length
 * @param mem simulated memory (read and written)
 * @return the produced value (type None for stores/branches)
 */
RtVal evalOp(const Operation &op, const std::vector<RtVal> &operands,
             int64_t iter, int vl, MemoryImage &mem);

/** Integer division semantics (x/0 and INT_MIN/-1 defined as 0). */
int64_t safeIDiv(int64_t a, int64_t b);

} // namespace selvec

#endif // SELVEC_SIM_SEMANTICS_HH
