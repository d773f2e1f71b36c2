#ifndef SMARTCONF_WORKLOAD_SHARDED_H_
#define SMARTCONF_WORKLOAD_SHARDED_H_

/**
 * @file
 * The logical shard layout of the workload streams.
 *
 * A tick's batch is cut into blocks, and each block is counted against
 * one of kShards logical lanes; a YCSB block is also drawn, whole, from
 * its lane's stream.  The layout and the lane streams define the
 * output: the ops a plant sees and the per-lane counts a run reports
 * (ScenarioResult::shard_ops).  Blocks run serially, in block order, on
 * the run's thread; parallelism lives across runs and fleet groups
 * (exec::ThreadPool), where the work is coarse.
 *
 * The block rule: a tick of n ops whose sequence number is seq (the
 * count of ticks drawn before it) is cut into
 * B = clamp(ceil(n / kShardGranule), 1, kShards) blocks, and block b
 * covers [b·n/B, (b+1)·n/B) on lane (seq + b) % kShards.  B <= kShards,
 * so the blocks of one tick never share a lane, and the seq rotation
 * spreads consecutive small ticks over every lane.
 *
 * No sensor reads the lanes: a controller measures the plant's own
 * state (a queue, a heap, a lock's waits).
 */

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "workload/ycsb.h"

namespace smartconf::workload {

/** Fixed logical lane count. */
inline constexpr std::size_t kShards = 16;

/** Target ops per block: typical ticks (n <= 32) stay one block. */
inline constexpr std::size_t kShardGranule = 32;

/**
 * Call @p block(lane, begin, end) for each block of an @p n-op tick
 * whose sequence number is @p seq, in block order (the block rule
 * above).  An empty tick is one empty block.
 */
template <typename Block>
void
forEachBlock(std::size_t n, std::uint64_t seq, Block &&block)
{
    const std::size_t blocks = std::clamp<std::size_t>(
        (n + kShardGranule - 1) / kShardGranule, 1, kShards);
    std::size_t begin = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
        // The last block ends at blocks·n/blocks = n: typical one-block
        // ticks divide nothing.
        const std::size_t end = b + 1 == blocks ? n : (b + 1) * n / blocks;
        block(static_cast<std::size_t>((seq + b) % kShards), begin, end);
        begin = end;
    }
}

/**
 * Per-tick batch sizes from a stream that nothing else reads.  The
 * standard normals are drawn 64 ahead by one gaussianBatch(0, 1),
 * which yields the same values in the same order as successive
 * gaussian() calls; drawing ahead is invisible only because no other
 * reader shares the stream.
 */
class BatchSizes
{
  public:
    /** max(0, round(mean + stddev * z)) for the stream's next normal
     *  z: what rng.gaussian(mean, stddev) would give. */
    std::uint64_t next(sim::Rng &rng, double mean, double stddev);

  private:
    std::array<double, 64> z_{};
    std::size_t pos_ = 64;
};

/**
 * YCSB batches, each block drawn from its lane.  The batch size comes
 * from a control stream (the rng the generator is given); lane s's
 * stream is the (s+1)-th successive Rng::jump of it (2^128 steps
 * apart: non-overlapping by construction).  A block is one drawOps
 * pass on its lane, and every lane carries its own gaussian spare, so
 * a tick is a function of the layout and the lane streams alone.
 */
class ShardedYcsbGenerator
{
  public:
    ShardedYcsbGenerator(const YcsbParams &params, sim::Rng rng);

    /** Fill @p out (resized, buffer reused) with one tick's operations. */
    void tickInto(std::vector<Op> &out) { drawTick(out, 0); }

    /** tickInto that appends the tick's operations to @p out in place
     *  (YcsbTape records a stream this way). */
    void appendTick(std::vector<Op> &out) { drawTick(out, out.size()); }

    void setOpsPerTick(double v) { params_.ops_per_tick = v; }
    void setWriteFraction(double v) { params_.write_fraction = v; }
    void setRequestSizeMb(double v) { params_.request_size_mb = v; }

    std::uint64_t generated() const { return generated_; }

    /** Ops drawn per lane, counted as the blocks are drawn. */
    const std::array<std::uint64_t, kShards> &shardOps() const
    {
        return ops_;
    }

  private:
    /** Resize @p out to at + n and draw the tick's n ops into
     *  [at, at + n). */
    void drawTick(std::vector<Op> &out, std::size_t at);

    YcsbParams params_;
    sim::Rng control_;
    std::array<sim::Rng, kShards> lanes_;
    std::array<std::uint64_t, kShards> ops_{};
    std::uint64_t seq_ = 0; ///< ticks drawn so far
    BatchSizes sizes_;
    std::uint64_t generated_ = 0;

    /** drawOps's buffers, sized for the longest block so far. */
    std::vector<std::uint64_t> words_;
    std::vector<double> jitter_;
};

} // namespace smartconf::workload

#endif // SMARTCONF_WORKLOAD_SHARDED_H_
