/**
 * @file
 * Host-speed calibration. The benchmark's hosts run the same code
 * 10-40% faster or slower for seconds to minutes at a time as
 * co-tenants come and go, which no statistic over one run can remove,
 * and the speed also wanders from one tenth of a second to the next.
 * A fixed kernel owned by the benchmark runs between requests, at
 * least every 50 ms: a request's time is divided by the kernel's
 * slowdown in the runs just before and just after it, so it reads as
 * a time on the reference host at its usual speed. The kernel's code
 * never changes with the library, so a change to the library moves
 * scaled times exactly as it moves raw ones.
 */

#ifndef PERFBENCH_HOSTSPEED_HH
#define PERFBENCH_HOSTSPEED_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

class HostSpeed
{
  public:
    /** Time the kernel once (about 6 ms). */
    void sample();

    /** sample() when the last one ended 50 ms ago or more. Called
     *  between requests, never inside one. */
    void maybeSample();

    /**
     * Kernel time over its nominal, averaged over the last sample
     * that ended by startNs and the first that began at or after
     * endNs (either one alone at the ends of a run): above 1 the host
     * ran slower than the reference host usually does. 1 with no
     * samples at all.
     */
    double slowdown(int64_t startNs, int64_t endNs) const;

    /** slowdown() over every sample. */
    double slowdown() const;

    size_t samples() const { return points.size(); }

  private:
    struct Point
    {
        int64_t startNs;    ///< when the kernel run began
        int64_t endNs;      ///< and ended
        double ms;
    };
    std::vector<Point> points;  ///< in time order
    int64_t lastNs = 0;
};

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_HH
