#include "workload/tape.h"

#include <cassert>

namespace smartconf::workload {

namespace {

/** Ops per chunk: 64 KB of 16-byte ops. */
constexpr std::size_t kChunkOps = 4096;

/** A tick starts a new chunk when fewer slots than this are left.  A
 *  longer tick still fits: its chunk grows, as any vector does. */
constexpr std::size_t kTickRoom = 512;

} // namespace

YcsbTape::YcsbTape(const YcsbParams &params, sim::Rng rng)
    : gen_(params, rng)
{}

void
YcsbTape::record()
{
    if (chunks_.empty() ||
        chunks_.back().capacity() - chunks_.back().size() < kTickRoom) {
        chunks_.emplace_back();
        chunks_.back().reserve(kChunkOps);
    }
    std::vector<Op> &chunk = chunks_.back();
    const std::size_t begin = chunk.size();
    gen_.appendTick(chunk);
    ticks_.push_back({static_cast<std::uint32_t>(chunks_.size() - 1),
                      static_cast<std::uint32_t>(begin),
                      static_cast<std::uint32_t>(chunk.size() - begin)});
}

std::uint64_t
YcsbTape::generated(sim::Tick ticks) const
{
    assert(ticks >= 0 && ticks <= this->ticks());
    // The ops before tick `ticks`: whole chunks, then the part of its
    // chunk in front of it.
    const auto t = static_cast<std::size_t>(ticks);
    const std::size_t chunk = t < ticks_.size() ? ticks_[t].chunk
                                                : chunks_.size();
    std::uint64_t n = t < ticks_.size() ? ticks_[t].begin : 0;
    for (std::size_t c = 0; c < chunk; ++c)
        n += chunks_[c].size();
    return n;
}

std::vector<std::uint64_t>
YcsbTape::shardOps(sim::Tick ticks) const
{
    assert(ticks >= 0 && ticks <= this->ticks());
    // Tick t was the generator's (t + 1)-th draw, so its sequence
    // number is t.
    std::vector<std::uint64_t> out(kShards, 0);
    for (std::size_t t = 0; t < static_cast<std::size_t>(ticks); ++t)
        forEachBlock(ticks_[t].count, t,
                     [&out](std::size_t lane, std::size_t begin,
                            std::size_t end) { out[lane] += end - begin; });
    return out;
}

} // namespace smartconf::workload
