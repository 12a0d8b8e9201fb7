/**
 * @file
 * Program-wide counting allocator backing tests/sim/alloc_counter.h.
 * Linking this file replaces the global operator new/delete for the
 * whole binary, so it must only ever be part of test_sim_alloc.
 *
 * The std::nothrow pair is replaced too (std::stable_sort's temporary
 * buffer comes from it): left to the runtime, including a sanitizer's,
 * its memory would be released through the std::free below.
 */

#include "tests/sim/alloc_counter.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return ::operator new(size, tag);
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

namespace cidre::test {

std::uint64_t
allocationCount()
{
    return g_allocations.load(std::memory_order_relaxed);
}

} // namespace cidre::test
