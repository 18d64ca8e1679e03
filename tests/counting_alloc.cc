/**
 * @file
 * Every form of the global operator new (throwing and nothrow, scalar
 * and array) counts one allocation and takes its block from
 * std::malloc; every operator delete returns it with std::free. The
 * nothrow forms matter: library code that allocates with them
 * (std::stable_sort's temporary buffer) frees through the replaced
 * operator delete. The replacements live in their own translation
 * unit, so no caller sees a delete inlined to std::free next to an
 * operator new (which GCC reports as -Wmismatched-new-delete).
 */

#include "counting_alloc.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<uint64_t> g_allocations{0};

void *
countedMalloc(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

} // anonymous namespace

uint64_t
countedAllocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t size)
{
    if (void *p = countedMalloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
