#ifndef SMARTCONF_WORKLOAD_TAPE_H_
#define SMARTCONF_WORKLOAD_TAPE_H_

/**
 * @file
 * A YCSB op stream recorded once and replayed to every reader.
 *
 * A kvstore scenario's evaluation stream depends on the seed and the
 * tick alone: its generator draws from Rng(seed).fork(2), and the
 * per-tick parameters it is given (write fraction, request size,
 * arrival rate) are functions of the tick that no plant, controller or
 * chaos hook feeds into.  So every policy evaluated under one seed
 * reads the same ops, and a sweep that evaluates several policies on
 * one (scenario, seed) can draw the stream once: the first reader to
 * reach a tick records it, every other reader replays the recording.
 */

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/clock.h"
#include "sim/rng.h"
#include "workload/sharded.h"

namespace smartconf::workload {

/** The ops of a ShardedYcsbGenerator, recorded tick by tick. */
class YcsbTape
{
  public:
    /** Record the stream of ShardedYcsbGenerator(@p params, @p rng). */
    YcsbTape(const YcsbParams &params, sim::Rng rng);

    /**
     * The ops of tick @p t: what the generator's tickInto gives on its
     * (t + 1)-th call.  A tick not yet recorded is recorded here:
     * set_params(generator, t) first sets the tick's parameters, then
     * the tick's ops are appended to the tape in place.  set_params
     * must be a function of t alone, the same at every call, or two
     * readers would not read one stream.  Ticks are recorded in order,
     * so @p t is at most ticks().  The span is valid until the next
     * tick is recorded.
     */
    template <typename SetParams>
    std::span<const Op> tick(sim::Tick t, SetParams &&set_params)
    {
        if (t == ticks()) {
            set_params(gen_, t);
            record();
        }
        const TickSpan &s = ticks_[static_cast<std::size_t>(t)];
        return {chunks_[s.chunk].data() + s.begin, s.count};
    }

    /** tick() for a stream whose parameters never change. */
    std::span<const Op> tick(sim::Tick t)
    {
        return tick(t, [](ShardedYcsbGenerator &, sim::Tick) {});
    }

    /** Ticks recorded so far. */
    sim::Tick ticks() const { return static_cast<sim::Tick>(ticks_.size()); }

    /** The generator's generated() after its first @p ticks ticks. */
    std::uint64_t generated(sim::Tick ticks) const;

    /** The generator's shardOps() after its first @p ticks ticks. */
    std::vector<std::uint64_t> shardOps(sim::Tick ticks) const;

  private:
    /** Where a recorded tick's ops are: chunks_[chunk][begin, +count). */
    struct TickSpan
    {
        std::uint32_t chunk;
        std::uint32_t begin;
        std::uint32_t count;
    };

    void record();

    ShardedYcsbGenerator gen_;
    /**
     * The recorded ops, in chunks of 4096 (64 KB), so the stream is
     * never copied as it grows and no chunk reaches glibc's 128 KB
     * mmap threshold.
     */
    std::vector<std::vector<Op>> chunks_;
    std::vector<TickSpan> ticks_;
};

} // namespace smartconf::workload

#endif // SMARTCONF_WORKLOAD_TAPE_H_
