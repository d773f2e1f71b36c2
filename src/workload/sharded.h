#ifndef SMARTCONF_WORKLOAD_SHARDED_H_
#define SMARTCONF_WORKLOAD_SHARDED_H_

/**
 * @file
 * Shard-split workload generators (the sharded data plane's producers).
 *
 * These mirror YcsbGenerator / DfsioGenerator knob-for-knob but
 * partition each tick's batch across the fixed logical shards of a
 * sim::ShardPlane: the per-tick batch size comes from the plane's
 * control stream, and each YCSB block of the batch is produced
 * *entirely* by its lane — one drawOps pass of coins, skipped key
 * words and size jitter from that lane's jump-derived stream.  The
 * (n, tick_seq) -> block/lane layout is pure and every lane owns its
 * gaussian spare, so the batch is a function of the layout alone;
 * blocks run serially, in block order.
 *
 * The RNG stream this defines *differs* from the single-stream
 * generators (the one sanctioned re-pin of the sharded-data-plane
 * change) and has been pinned since.
 */

#include <array>
#include <cstdint>
#include <vector>

#include "sim/clock.h"
#include "sim/rng.h"
#include "sim/shard.h"
#include "workload/dfsio.h"
#include "workload/ycsb.h"

namespace smartconf::workload {

/**
 * Per-tick batch sizes from a control stream that nothing else reads.
 * The standard normals are drawn 64 ahead by one gaussianBatch(0, 1),
 * which yields the same values in the same order as successive
 * gaussian() calls; drawing ahead is invisible only because no other
 * reader shares the stream.
 */
class BatchSizes
{
  public:
    /** max(0, round(mean + stddev * z)) for the stream's next normal
     *  z: what control.gaussian(mean, stddev) would give. */
    std::uint64_t next(sim::Rng &control, double mean, double stddev);

  private:
    std::array<double, 64> z_{};
    std::size_t pos_ = 64;
};

/**
 * YCSB batches produced per logical shard.
 */
class ShardedYcsbGenerator
{
  public:
    /** @p rng becomes the plane's base: control stream plus kShards
     *  jump-derived lane streams. */
    ShardedYcsbGenerator(const YcsbParams &params, sim::Rng rng);

    /**
     * Fill @p out (resized, buffer reused) with one tick's operations.
     * Each block [begin, end) is one drawOps pass on its lane.
     */
    void tickInto(std::vector<Op> &out) { drawTick(out, 0); }

    /** tickInto that appends the tick's operations to @p out in place
     *  (YcsbTape records a stream this way). */
    void appendTick(std::vector<Op> &out) { drawTick(out, out.size()); }

    void setOpsPerTick(double v) { params_.ops_per_tick = v; }
    void setWriteFraction(double v) { params_.write_fraction = v; }
    void setRequestSizeMb(double v) { params_.request_size_mb = v; }

    std::uint64_t generated() const { return generated_; }

    /** Ops produced per logical shard (pinned lane order). */
    const std::array<std::uint64_t, sim::kShards> &shardOps() const
    {
        return plane_.opsPerShard();
    }

    /**
     * Call @p block(lane, begin, end) for each block of an @p n-op tick
     * whose sequence number is @p seq, in block order: the layout a
     * tick is drawn and counted by (seq is the count of ticks drawn
     * before it).
     */
    template <typename Block>
    static void forEachBlock(std::size_t n, std::uint64_t seq,
                             Block &&block)
    {
        if (n <= sim::kShardGranule) {
            // Typical ticks are one block: the layout shardLayout
            // would produce ([0, n) on lane seq % kShards), without
            // building the span table on every tick.
            block(static_cast<std::size_t>(seq % sim::kShards),
                  std::size_t{0}, n);
            return;
        }
        sim::ShardSpan spans[sim::kShards];
        const std::size_t blocks = sim::shardLayout(n, seq, spans);
        for (std::size_t b = 0; b < blocks; ++b)
            block(spans[b].lane, spans[b].begin, spans[b].end);
    }

  private:
    /** Resize @p out to at + n and draw the tick's n ops into
     *  [at, at + n). */
    void drawTick(std::vector<Op> &out, std::size_t at);

    YcsbParams params_;
    sim::ShardPlane plane_;
    BatchSizes sizes_;
    std::uint64_t generated_ = 0;

    /** drawOps's buffers, sized for the longest block so far. */
    std::vector<std::uint64_t> words_;
    std::vector<double> jitter_;
};

/**
 * TestDFSIO namenode arrivals, counted per logical shard.  The write
 * count comes from the control stream; a write carries nothing drawn,
 * so the lanes draw no word, and each block's writes count against its
 * lane.  The periodic admin `du` stays on the control path (it draws
 * no RNG word and is one request per du_period ticks).
 */
class ShardedDfsioGenerator
{
  public:
    ShardedDfsioGenerator(const DfsioParams &params, sim::Rng rng);

    /** The arrivals during tick @p now (see DfsioGenerator::tick). */
    DfsioTick tick(sim::Tick now);

    std::uint64_t generated() const { return generated_; }

    const std::array<std::uint64_t, sim::kShards> &shardOps() const
    {
        return plane_.opsPerShard();
    }

  private:
    DfsioParams params_;
    sim::ShardPlane plane_;
    BatchSizes sizes_;
    sim::Tick last_du_ = -1;
    std::uint64_t generated_ = 0;
};

} // namespace smartconf::workload

#endif // SMARTCONF_WORKLOAD_SHARDED_H_
