/**
 * @file
 * Stream equivalence of the workload generators.
 *
 * Each generator is compared with a reference written here from public
 * Rng calls, in the draw order the generators have always had: the
 * batch size from one gaussian() per tick (on the unjumped control
 * stream for the sharded one), then per block a fillRaw of the type
 * coins, a fillRaw of the key words and a gaussianBatch of the size
 * jitter.  The references derive the lanes with Rng::jump and write
 * the block rule out.  Every op's type and size bits, every batch
 * size, shardOps() and generated() must match; for DFSIO, the write
 * and du counts must match the materialised request batches, and a
 * namenode fed the counts must end where one fed each request does.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "dfs/namenode.h"
#include "workload/dfsio.h"
#include "workload/sharded.h"

namespace smartconf::workload {
namespace {

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

std::size_t
batchSize(sim::Rng &rng, double mean, double stddev)
{
    const double raw = rng.gaussian(mean, stddev);
    return static_cast<std::size_t>(std::max(0.0, std::round(raw)));
}

/** One block the reference way: three draws, one per column. */
void
referenceBlock(const YcsbParams &p, sim::Rng &rng, Op *ops,
               std::size_t len)
{
    std::vector<std::uint64_t> coins(len), keys(len);
    std::vector<double> jitter(len);
    rng.fillRaw(coins.data(), len);
    rng.fillRaw(keys.data(), len);
    rng.gaussianBatch(1.0, p.size_jitter, jitter.data(), len);
    for (std::size_t i = 0; i < len; ++i) {
        const double u = static_cast<double>(coins[i] >> 11) * 0x1.0p-53;
        ops[i].type = u < p.write_fraction ? Op::Type::Write
                                           : Op::Type::Read;
        ops[i].size_mb = p.request_size_mb * std::max(0.05, jitter[i]);
    }
}

/** Lanes per stream. */
constexpr std::size_t kLanes = 16;

using LaneCounts = std::array<std::uint64_t, kLanes>;

/**
 * The block rule written out: a tick of n ops with sequence number seq
 * is B = clamp(ceil(n / 32), 1, 16) blocks, and block b is
 * [b·n/B, (b+1)·n/B) on lane (seq + b) % 16.
 */
template <typename Block>
void
referenceBlocks(std::size_t n, std::uint64_t seq, Block &&block)
{
    const std::size_t blocks =
        std::clamp<std::size_t>((n + 31) / 32, 1, kLanes);
    for (std::size_t b = 0; b < blocks; ++b)
        block(static_cast<std::size_t>((seq + b) % kLanes), b * n / blocks,
              (b + 1) * n / blocks);
}

/** ShardedYcsbGenerator drawn column by column, size by gaussian(). */
struct ReferenceShardedYcsb
{
    ReferenceShardedYcsb(const YcsbParams &p, sim::Rng rng)
        : params(p), control(rng)
    {
        // Lane s is the (s+1)-th successive jump of the given stream.
        for (sim::Rng &lane : lanes) {
            rng.jump();
            lane = rng;
        }
    }

    void tickInto(std::vector<Op> &out)
    {
        const std::size_t n =
            batchSize(control, params.ops_per_tick,
                      params.ops_per_tick * params.burstiness);
        out.assign(n, Op{});
        referenceBlocks(n, seq++, [&](std::size_t s, std::size_t begin,
                                      std::size_t end) {
            const std::size_t len = end - begin;
            ops[s] += len;
            if (len == 0)
                return; // an empty tick draws nothing
            sim::Rng &lane = lanes[s];
            // A lane holding a spare draws no word for its first normal.
            if (lane.gaussianWords(1) == 0)
                ++blocks_on_spare;
            referenceBlock(params, lane, out.data() + begin, len);
        });
        generated += n;
    }

    YcsbParams params;
    sim::Rng control;
    std::array<sim::Rng, kLanes> lanes;
    LaneCounts ops{};
    std::uint64_t seq = 0;
    std::uint64_t generated = 0;
    std::uint64_t blocks_on_spare = 0;
};

void
expectSameOps(const std::vector<Op> &got, const std::vector<Op> &want,
              int tick)
{
    ASSERT_EQ(got.size(), want.size()) << "tick " << tick;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].type, want[i].type)
            << "tick " << tick << " op " << i;
        ASSERT_TRUE(sameBits(got[i].size_mb, want[i].size_mb))
            << "tick " << tick << " op " << i;
    }
}

YcsbParams
ycsbParams()
{
    YcsbParams p;
    p.write_fraction = 0.4;
    p.request_size_mb = 1.5;
    p.burstiness = 0.3;
    p.size_jitter = 0.2;
    return p;
}

/** Mean rates that give ticks of n = 0, n <= 32, 33-512 and > 512
 *  (16 blocks of more than 32 ops). */
constexpr std::array<double, 10> kRates = {0.0,  0.4,   3.0,   17.0,
                                           31.0, 45.0,  200.0, 480.0,
                                           700.0, 2000.0};

TEST(ShardedYcsb, StreamMatchesColumnByColumnReference)
{
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
        ShardedYcsbGenerator gen(ycsbParams(), sim::Rng(seed));
        ReferenceShardedYcsb ref(ycsbParams(), sim::Rng(seed));
        std::vector<Op> got, want;
        std::array<int, 4> classes{}; // n = 0, <= 32, <= 512, > 512
        for (int t = 0; t < 400; ++t) {
            // All three setters change mid-stream, on both sides.
            const double rate = kRates[static_cast<std::size_t>(t) %
                                       kRates.size()];
            const double write_fraction = (t / 7) % 2 ? 0.9 : 0.1;
            const double size_mb = 0.5 + static_cast<double>(t % 5);
            gen.setOpsPerTick(rate);
            gen.setWriteFraction(write_fraction);
            gen.setRequestSizeMb(size_mb);
            ref.params.ops_per_tick = rate;
            ref.params.write_fraction = write_fraction;
            ref.params.request_size_mb = size_mb;

            gen.tickInto(got);
            ref.tickInto(want);
            expectSameOps(got, want, t);
            const std::size_t n = want.size();
            ++classes[n == 0 ? 0 : n <= 32 ? 1 : n <= 512 ? 2 : 3];
        }
        EXPECT_EQ(gen.generated(), ref.generated);
        EXPECT_EQ(gen.shardOps(), ref.ops);
        for (const int c : classes)
            EXPECT_GT(c, 0) << "a batch-size class was not covered";
        EXPECT_GT(ref.blocks_on_spare, 0u)
            << "no block started on a carried spare";
    }
}

TEST(Ycsb, StreamMatchesColumnByColumnReference)
{
    YcsbParams p = ycsbParams();
    YcsbGenerator gen(p, sim::Rng(5));
    sim::Rng ref_rng(5);
    std::vector<Op> got, want;
    for (int t = 0; t < 200; ++t) {
        p.ops_per_tick =
            kRates[static_cast<std::size_t>(t) % kRates.size()];
        p.write_fraction = t % 3 == 0 ? 0.7 : 0.2;
        gen.setParams(p);

        gen.tickInto(got);
        want.assign(batchSize(ref_rng, p.ops_per_tick,
                              p.ops_per_tick * p.burstiness),
                    Op{});
        referenceBlock(p, ref_rng, want.data(), want.size());
        expectSameOps(got, want, t);
    }
}

/** A materialised request, as DFSIO ticks were before they counted. */
struct Request
{
    bool du = false;
    std::uint64_t file_count = 0;
};

/** DfsioGenerator as a request vector per tick. */
struct ReferenceDfsio
{
    ReferenceDfsio(const DfsioParams &p, sim::Rng r) : params(p), rng(r) {}

    std::vector<Request> tick(sim::Tick now)
    {
        const std::size_t n =
            batchSize(rng, params.writes_per_tick,
                      params.writes_per_tick * params.burstiness);
        const std::uint64_t seq = next_seq++;
        std::vector<Request> out(n);
        referenceBlocks(n, seq, [&](std::size_t s, std::size_t begin,
                                    std::size_t end) {
            ops[s] += end - begin;
        });
        generated += n;
        if (last_du < 0 || now - last_du >= params.du_period) {
            out.push_back({true, params.du_file_count});
            last_du = now;
            ++generated;
            ++ops[seq % kLanes]; // the du counts on the tick's lane
        }
        return out;
    }

    DfsioParams params;
    sim::Rng rng;
    LaneCounts ops{};
    std::uint64_t next_seq = 0;
    sim::Tick last_du = -1;
    std::uint64_t generated = 0;
};

/** Counts a materialised batch down to what a DFSIO tick reports. */
DfsioTick
countBatch(const std::vector<Request> &batch)
{
    DfsioTick counted;
    for (const Request &r : batch) {
        if (r.du)
            counted.du_files = r.file_count;
        else
            ++counted.writes;
    }
    return counted;
}

void
expectSameNamenode(const dfs::Namenode &a, const dfs::Namenode &b,
                   sim::Tick t)
{
    ASSERT_EQ(a.pendingWrites(), b.pendingWrites()) << "tick " << t;
    ASSERT_EQ(a.servedWrites(), b.servedWrites()) << "tick " << t;
    ASSERT_EQ(a.duActive(), b.duActive()) << "tick " << t;
    ASSERT_EQ(a.chunksCompleted(), b.chunksCompleted()) << "tick " << t;
    ASSERT_TRUE(sameBits(a.lastHoldTicks(), b.lastHoldTicks()))
        << "tick " << t;
    ASSERT_EQ(a.duResults().size(), b.duResults().size()) << "tick " << t;
}

/** What one DFSIO comparison covered. */
struct DfsioCoverage
{
    std::uint64_t du_ticks = 0;   ///< ticks that issued a du
    std::uint64_t du_started = 0; ///< of those, a du the namenode started
    std::uint64_t zero_ticks = 0; ///< ticks of no write
    std::size_t du_results = 0;   ///< du commands completed
};

/**
 * Compare DfsioGenerator(@p p, Rng(@p seed)) with ReferenceDfsio for
 * @p ticks ticks: the counts per tick and a namenode fed the counts
 * against one fed each request; then generated() and shardOps().
 */
void
expectCountsMatch(const DfsioParams &p, std::uint64_t seed,
                  sim::Tick ticks, DfsioCoverage &cov)
{
    dfs::NamenodeParams np; // 20000 files/tick, 60 writes/tick served
    DfsioGenerator gen(p, sim::Rng(seed));
    ReferenceDfsio ref(p, sim::Rng(seed));
    dfs::Namenode counted(np, 100000), per_request(np, 100000);
    for (sim::Tick t = 0; t < ticks; ++t) {
        const DfsioTick got = gen.tick(t);
        const std::vector<Request> batch = ref.tick(t);
        const DfsioTick want = countBatch(batch);
        ASSERT_EQ(got.writes, want.writes) << "tick " << t;
        ASSERT_EQ(got.du_files, want.du_files) << "tick " << t;

        const bool idle = !counted.duActive();
        counted.submit(got.writes, got.du_files, t);
        // The batch, one request at a time.
        for (const Request &r : batch)
            per_request.submit(r.du ? 0 : 1,
                               r.du ? std::optional(r.file_count)
                                    : std::nullopt,
                               t);
        if (got.du_files) {
            ++cov.du_ticks;
            cov.du_started += idle ? 1 : 0;
        }
        cov.zero_ticks += got.writes == 0 ? 1 : 0;
        counted.step(t);
        per_request.step(t);
        expectSameNamenode(counted, per_request, t);
    }
    EXPECT_EQ(gen.generated(), ref.generated);
    EXPECT_EQ(gen.shardOps(), ref.ops);
    cov.du_results = counted.duResults().size();
    ASSERT_EQ(cov.du_results, per_request.duResults().size());
    for (std::size_t i = 0; i < cov.du_results; ++i) {
        EXPECT_TRUE(sameBits(counted.duResults()[i].latency_ticks,
                             per_request.duResults()[i].latency_ticks));
        EXPECT_EQ(counted.duResults()[i].yields,
                  per_request.duResults()[i].yields);
    }
    EXPECT_TRUE(sameBits(counted.takeRecentMaxWait(),
                         per_request.takeRecentMaxWait()));
}

// The busy case: ticks of up to a few hundred writes span many lanes,
// so shardOps() is checked over multi-block layouts.
TEST(ShardedDfsio, CountsMatchMaterialisedBatches)
{
    // du every 10 ticks over a subtree that takes ~50 ticks to walk:
    // most du commands arrive while another runs and are dropped.
    DfsioParams p;
    p.writes_per_tick = 30.0;
    p.burstiness = 0.6;
    p.du_period = 10;
    p.du_file_count = 1000000;
    DfsioCoverage cov;
    expectCountsMatch(p, 3, 600, cov);
    if (HasFatalFailure())
        return;
    EXPECT_GT(cov.du_ticks, cov.du_started) << "no du was dropped";
    EXPECT_GT(cov.du_results, 1u);
}

TEST(Dfsio, CountsMatchMaterialisedBatches)
{
    DfsioParams p;
    p.writes_per_tick = 4.0;
    p.burstiness = 1.0; // many zero-write ticks
    p.du_period = 25;
    p.du_file_count = 777;
    DfsioCoverage cov;
    expectCountsMatch(p, 9, 300, cov);
    EXPECT_GT(cov.zero_ticks, 0u);
}

} // namespace
} // namespace smartconf::workload
