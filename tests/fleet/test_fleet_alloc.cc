/**
 * @file
 * Fleet set-up allocates per cluster, not per tenant.  Every global
 * operator new in this binary is counted, on every thread, so a
 * runFleet on a pool counts what its helpers allocate too.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "exec/thread_pool.h"
#include "fleet/fleet.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

void *
countedAlloc(std::size_t size)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

} // namespace

void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

// The deletes stay out of line: inlined into a caller, the malloc'd
// pointer would look to the compiler like operator new's memory handed
// to free (-Wmismatched-new-delete).
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace smartconf::fleet {
namespace {

std::uint64_t
allocationsOfRun(std::uint32_t tenants, exec::ThreadPool &pool)
{
    FleetParams p;
    p.tenants = tenants;
    p.ticks = 20;
    p.pool = &pool;
    const std::uint64_t before = g_news.load();
    const FleetResult r = runFleet(p);
    const std::uint64_t after = g_news.load();
    EXPECT_GT(r.clustered_tenants, 0u);
    return after - before;
}

TEST(FleetAlloc, NoAllocationPerTenant)
{
    // Clustered smart tenants, built and bound on a pool of two.  What
    // the run still allocates is per cluster (its goal, its registry
    // entries) or per run (the block of tenants, the dense arrays), so
    // eight times the tenants adds well under one allocation each.
    exec::ThreadPool pool(2);
    const std::uint64_t small = allocationsOfRun(2000, pool);
    const std::uint64_t large = allocationsOfRun(16000, pool);
    ASSERT_GE(large, small);
    const double per_tenant = static_cast<double>(large - small) /
                              static_cast<double>(16000 - 2000);
    EXPECT_LT(per_tenant, 0.5)
        << small << " allocations at 2k tenants, " << large
        << " at 16k";
}

} // namespace
} // namespace smartconf::fleet
