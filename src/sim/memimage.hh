/**
 * @file
 * The simulated memory: one typed buffer per array, with guard margins
 * so the misaligned-access scheme's aligned chunk loads may read a few
 * elements past either end of an array (the values are discarded by
 * the merges; stores are range-checked strictly).
 *
 * The image is lazy. Each buffer is split into blocks of kBlock cells,
 * and a block is filled on its first access: in-range cells with the
 * fill pattern (or zero before any fillPattern), guard cells with
 * zero. The pattern is one Rng stream over every array in table order,
 * and Rng::discard starts a block at its own position in that stream,
 * so every cell reads exactly what an eager fill would have stored.
 * Buffers are allocated uninitialised, a copy takes only the filled
 * blocks, and diff skips the blocks neither side has touched when both
 * start from the same pattern, so a run pays for the memory it
 * touches, not for the whole module.
 *
 * A const read can fill a block, so an image must never be shared
 * across threads, not even for reading.
 */

#ifndef SELVEC_SIM_MEMIMAGE_HH
#define SELVEC_SIM_MEMIMAGE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/loop.hh"

namespace selvec
{

class MemoryImage
{
  public:
    static constexpr int64_t kGuard = 64;
    /** Cells per lazily filled block, guards included. */
    static constexpr int64_t kBlock = 256;

    explicit MemoryImage(const ArrayTable &arrays);
    /** Copies the pattern seed and the filled blocks only. */
    MemoryImage(const MemoryImage &other);

    double loadF(ArrayId arr, int64_t index) const;
    int64_t loadI(ArrayId arr, int64_t index) const;
    void storeF(ArrayId arr, int64_t index, double v);
    void storeI(ArrayId arr, int64_t index, int64_t v);

    /**
     * Deterministically fill every array with a seed-driven pattern:
     * element i of array a is draw offset(a) + i of Rng(seed), where
     * offset(a) sums the sizes of the arrays before it. Overwrites
     * every earlier store; the cells are filled as they are accessed.
     */
    void fillPattern(uint64_t seed);

    /**
     * Compare the non-synthesized arrays' in-bounds contents. Returns
     * a description of the first mismatch, or "" when equal. I64
     * elements print as integers ("A[3]: 7 vs 9"), F64 elements with
     * %.17g, which tells any two distinct finite doubles apart. When
     * both images start from the same pattern, blocks neither side has
     * touched are equal and skipped; the others are filled on the side
     * that lacks them first.
     */
    std::string diff(const MemoryImage &other) const;

    const ArrayTable &arrays() const { return table; }

  private:
    /** One array's cells, index -kGuard first. */
    struct Buffer
    {
        int64_t size = 0;      ///< in-range cells
        uint64_t offset = 0;   ///< pattern draw of element 0
        Type elemType = Type::F64;
        /** size + 2 * kGuard cells, each uninitialised until its block
         *  is filled. */
        std::unique_ptr<uint64_t[]> cells;
        std::vector<uint8_t> filled;   ///< per block
    };

    uint64_t *cell(ArrayId arr, int64_t index, bool store) const;
    [[noreturn]] void badAccess(ArrayId arr, int64_t index,
                                bool store) const;
    void fillBlock(Buffer &buf, size_t block) const;

    const ArrayTable &table;
    bool seeded = false;   ///< fillPattern ran; else blocks fill with 0
    uint64_t patternSeed = 0;
    mutable std::vector<Buffer> buffers;
};

} // namespace selvec

#endif // SELVEC_SIM_MEMIMAGE_HH
