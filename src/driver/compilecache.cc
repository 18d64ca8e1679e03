#include "driver/compilecache.hh"

#include <sstream>

#include "lir/lir.hh"
#include "support/deadline.hh"
#include "support/faultinject.hh"

namespace selvec
{

namespace
{

bool g_cache_enabled = true;

/** Every semantic field of the machine, never its name: two machines
 *  that schedule identically must share memo entries. */
void
appendMachineKey(std::ostringstream &out, const Machine &machine)
{
    out << "machine";
    for (int k = 0; k < kNumResKinds; ++k)
        out << " " << machine.counts[k];
    out << ";";
    for (int c = 0; c < kNumOpClasses; ++c) {
        const ClassDesc &cd = machine.classes[c];
        out << " c" << c << ":" << cd.latency << ":";
        for (const Reservation &r : cd.reservations) {
            out << static_cast<int>(r.kind) << "x" << r.cycles << ",";
        }
    }
    out << "; vl=" << machine.vectorLength
        << " xfer=" << static_cast<int>(machine.transfer)
        << " align=" << static_cast<int>(machine.alignment)
        << " invoc=" << machine.invocationOverhead
        << " loopov=" << machine.loopOverhead << "\n";
}

/** The array declarations, writeLir-style (writeLoop references
 *  arrays by name only, so sizes/types/alignment enter here). */
void
appendArraysKey(std::ostringstream &out, const ArrayTable &arrays)
{
    for (ArrayId a = 0; a < arrays.size(); ++a) {
        const ArrayInfo &info = arrays[a];
        out << "array " << info.name << " "
            << static_cast<int>(info.elemType) << " " << info.size
            << " align " << info.baseAlign << " syn "
            << info.synthesized << "\n";
    }
}

void
appendScheduleOptionsKey(std::ostringstream &out,
                         const ScheduleOptions &options)
{
    out << "sched budget=" << options.budgetFactor
        << " iifactor=" << options.maxIiFactor
        << " iislack=" << options.maxIiSlack << "\n";
}

} // anonymous namespace

bool
compileCacheEnabled()
{
    return g_cache_enabled;
}

void
compileCacheSetEnabled(bool enabled)
{
    g_cache_enabled = enabled;
}

bool
compileCacheActive()
{
    // An armed deadline/cancellation context bypasses the memo for
    // the same reason an armed fault plan does: the outcome of such a
    // run depends on wall-clock time (or the caller's whim), and a
    // stored DeadlineExceeded status would replay as a permanent
    // failure long after the deadline that caused it.
    return g_cache_enabled && !faultPlanArmed() && !deadlineArmed();
}

void
compileCacheClear()
{
    scheduleCache().clear();
}

std::string
scheduleCacheKey(const Loop &body, const ArrayTable &arrays,
                 const Machine &machine,
                 const ScheduleOptions &options)
{
    std::ostringstream out;
    out << "schedule\n";
    appendMachineKey(out, machine);
    appendArraysKey(out, arrays);
    appendScheduleOptionsKey(out, options);
    out << writeLoop(body, arrays);
    return out.str();
}

StructuralCache<ScheduleCacheValue> &
scheduleCache()
{
    static StructuralCache<ScheduleCacheValue> cache;
    return cache;
}

} // namespace selvec
