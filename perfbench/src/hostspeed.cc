#include "hostspeed.hh"

#include <algorithm>
#include <iterator>
#include <vector>

#include "spans.hh"

namespace perfbench
{

namespace
{

/** xorshift64: deterministic values without the library's Rng. */
uint64_t
next(uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/**
 * Small-object allocation churn. Measured on the reference host over
 * 5 s windows, the time of this kernel tracked the time of exact
 * partitioning, of Selective compiles and of memory-image fill plus
 * diff to within 3-6%, while each of those drifted by 11-15%. Kernels
 * of pointer chasing, sorting, streaming, or filling and comparing
 * L2-sized images tracked them no better. It holds no memory between
 * samples.
 */
uint64_t
kernel()
{
    uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
    for (int round = 0; round < 20000; ++round) {
        std::vector<int> values(20 + next(x) % 60);
        for (int &v : values)
            v = static_cast<int>(next(x));
        std::vector<std::vector<int>> rows(8);
        for (std::vector<int> &row : rows)
            row.assign(16, static_cast<int>(x));
        acc += static_cast<uint64_t>(values[values.size() / 2]) +
               static_cast<uint64_t>(rows[3][2]);
    }
    return acc;
}

/** The kernel's usual time on the reference host (4-vCPU VM). */
constexpr double kNominalMs = 6.0;

} // anonymous namespace

void
HostSpeed::sample()
{
    int64_t t0 = nowNs();
    volatile uint64_t sink = kernel();
    (void)sink;
    lastNs = nowNs();
    points.push_back({t0, lastNs, static_cast<double>(lastNs - t0) / 1e6});
}

void
HostSpeed::maybeSample()
{
    if (nowNs() - lastNs >= 50'000'000)
        sample();
}

double
HostSpeed::slowdown(int64_t startNs, int64_t endNs) const
{
    if (points.empty())
        return 1.0;
    // Samples are in time order and never overlap a measured interval.
    auto after = std::lower_bound(
        points.begin(), points.end(), endNs,
        [](const Point &p, int64_t t) { return p.startNs < t; });
    auto before = std::upper_bound(
        points.begin(), points.end(), startNs,
        [](int64_t t, const Point &p) { return t < p.endNs; });
    double sum = 0;
    int count = 0;
    if (before != points.begin()) {
        sum += std::prev(before)->ms;
        ++count;
    }
    if (after != points.end()) {
        sum += after->ms;
        ++count;
    }
    if (count == 0)
        return slowdown();
    return sum / count / kNominalMs;
}

double
HostSpeed::slowdown() const
{
    if (points.empty())
        return 1.0;
    double sum = 0;
    for (const Point &p : points)
        sum += p.ms;
    return sum / static_cast<double>(points.size()) / kNominalMs;
}

} // namespace perfbench
