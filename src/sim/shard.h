#ifndef SMARTCONF_SIM_SHARD_H_
#define SMARTCONF_SIM_SHARD_H_

/**
 * @file
 * Logical shard layout of a run's data plane.
 *
 * A run's per-tick data-plane work is partitioned into a fixed number
 * of **logical shards**.  The layout and the lane streams define the
 * output; the blocks themselves run serially, in block order, on the
 * run's thread.  Parallelism lives across runs and fleet groups
 * (exec::ThreadPool), where the work is coarse: a block of at most
 * kShardGranule ops costs less than any fork/join would.
 *
 *  - `kShards` is a compile-time constant (16): the (n, tick_seq) ->
 *    block/lane layout, the per-lane RNG streams and the per-lane
 *    scratch segments are all pure functions of the logical shard
 *    structure.
 *
 *  - Lane RNG streams are derived from one base generator by repeated
 *    `Rng::jump()` (2^128 steps apart — non-overlapping by
 *    construction); lane s's stream is the (s+1)-th jump.  A private
 *    control stream (the unjumped base) serves the per-tick scalar
 *    draws (batch sizes), keeping control-plane decisions off the lane
 *    streams.
 *
 *  - A tick of n ops is split into `ceil(n / kShardGranule)` blocks
 *    (clamped to kShards); block b is served by lane
 *    (tick_seq + b) % kShards.  Blocks <= kShards means each active
 *    block owns a distinct lane — no intra-tick lane sharing — and the
 *    tick_seq rotation spreads consecutive small ticks over all lanes
 *    so every lane's stream advances at roughly the same rate.
 *
 * No sensor reads the lanes: a controller measures the plant's own
 * state (a queue, a heap, a lock's waits), and chaos hooks fire once
 * per logical observation.  The per-lane op counts feed only the run
 * result (ScenarioResult::shard_ops).
 */

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/rng.h"

namespace smartconf::sim {

/** Fixed logical shard count. */
inline constexpr std::size_t kShards = 16;

/** Target ops per block: typical ticks (n <= 32) stay one block. */
inline constexpr std::size_t kShardGranule = 32;

/** One block of a tick: out/scratch range [begin, end) served by
 *  logical shard `lane`. */
struct ShardSpan
{
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t lane = 0;
};

/** Blocks an n-op tick splits into: clamp(ceil(n/granule), 1, kShards)
 *  for n > 0, 0 for n == 0. */
inline std::size_t
shardBlockCount(std::size_t n)
{
    if (n == 0)
        return 0;
    const std::size_t blocks =
        (n + kShardGranule - 1) / kShardGranule;
    return blocks < kShards ? blocks : kShards;
}

/**
 * Compute the block layout of an n-op tick: spans[b] covers
 * [b*n/B, (b+1)*n/B) on lane (tick_seq + b) % kShards.  Pure function
 * of (n, tick_seq).  @p spans must hold kShards entries; returns the
 * block count B.
 *
 * Inline with a divide-free single-block path: typical ticks are a
 * handful of ops, so the layout runs once per tick on every data-plane
 * hot loop and must cost nanoseconds, not integer divisions.
 */
inline std::size_t
shardLayout(std::size_t n, std::uint64_t tick_seq, ShardSpan *spans)
{
    const std::size_t blocks = shardBlockCount(n);
    if (blocks == 1) {
        spans[0].begin = 0;
        spans[0].end = n;
        spans[0].lane =
            static_cast<std::size_t>(tick_seq % kShards);
        return 1;
    }
    for (std::size_t b = 0; b < blocks; ++b) {
        spans[b].begin = b * n / blocks;
        spans[b].end = (b + 1) * n / blocks;
        spans[b].lane = static_cast<std::size_t>(
            (tick_seq + b) % kShards);
    }
    return blocks;
}

/**
 * Per-run shard state: one jump-derived Rng per logical shard, a
 * control stream, the tick sequence counter that rotates blocks over
 * lanes, and per-shard op counters for the sensors / result surface.
 */
class ShardPlane
{
  public:
    /** Derive the control stream (= @p base) and kShards lane streams
     *  (successive jumps of @p base). */
    explicit ShardPlane(const Rng &base);

    /** Lane s's private stream (its gaussian spare included). */
    Rng &lane(std::size_t s) { return lanes_[s]; }

    /** Control stream for per-tick scalar draws (batch sizes). */
    Rng &control() { return control_; }

    /** Claim this tick's sequence number (rotates block->lane). */
    std::uint64_t nextTickSeq() { return tick_seq_++; }

    void addOps(std::size_t lane, std::uint64_t n)
    {
        ops_[lane] += n;
    }

    /** Ops served per logical shard, pinned lane order. */
    const std::array<std::uint64_t, kShards> &opsPerShard() const
    {
        return ops_;
    }

  private:
    Rng control_;
    std::array<Rng, kShards> lanes_;
    std::array<std::uint64_t, kShards> ops_{};
    std::uint64_t tick_seq_ = 0;
};

} // namespace smartconf::sim

#endif // SMARTCONF_SIM_SHARD_H_
