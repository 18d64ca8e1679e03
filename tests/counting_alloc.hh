/**
 * @file
 * The counting allocator of the test binaries that assert heap
 * allocation counts (`hotpath`, `simspeed`): linking
 * counting_alloc.cc replaces the global allocation functions.
 */

#ifndef SELVEC_TESTS_COUNTING_ALLOC_HH
#define SELVEC_TESTS_COUNTING_ALLOC_HH

#include <cstdint>

/** Heap allocations the process has made so far, through any form of
 *  operator new. */
uint64_t countedAllocations();

#endif // SELVEC_TESTS_COUNTING_ALLOC_HH
