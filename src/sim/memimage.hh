/**
 * @file
 * The simulated memory: one typed buffer per array, with guard margins
 * so the misaligned-access scheme's aligned chunk loads may read a few
 * elements past either end of an array (the values are discarded by
 * the merges; stores are range-checked strictly).
 */

#ifndef SELVEC_SIM_MEMIMAGE_HH
#define SELVEC_SIM_MEMIMAGE_HH

#include <cstdint>
#include <vector>

#include "ir/loop.hh"

namespace selvec
{

class MemoryImage
{
  public:
    static constexpr int64_t kGuard = 64;

    explicit MemoryImage(const ArrayTable &arrays);

    double loadF(ArrayId arr, int64_t index) const;
    int64_t loadI(ArrayId arr, int64_t index) const;
    void storeF(ArrayId arr, int64_t index, double v);
    void storeI(ArrayId arr, int64_t index, int64_t v);

    /** Deterministically fill every array with a seed-driven pattern. */
    void fillPattern(uint64_t seed);

    /**
     * Compare the non-synthesized arrays' in-bounds contents. Returns
     * a description of the first mismatch, or "" when equal. I64
     * elements print as integers ("A[3]: 7 vs 9"), F64 elements with
     * %.17g, which tells any two distinct finite doubles apart.
     */
    std::string diff(const MemoryImage &other) const;

    const ArrayTable &arrays() const { return table; }

  private:
    const uint64_t *cell(ArrayId arr, int64_t index, bool store) const;
    uint64_t *cell(ArrayId arr, int64_t index, bool store);

    const ArrayTable &table;
    std::vector<std::vector<uint64_t>> data;
};

} // namespace selvec

#endif // SELVEC_SIM_MEMIMAGE_HH
