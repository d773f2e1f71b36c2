#include "workload/sharded.h"

#include <algorithm>
#include <cmath>

namespace smartconf::workload {

ShardedYcsbGenerator::ShardedYcsbGenerator(const YcsbParams &params,
                                           sim::Rng rng)
    : params_(params), plane_(rng),
      zipf_(params.key_count, params.zipf_theta)
{}

void
ShardedYcsbGenerator::tickInto(std::vector<Op> &out)
{
    // Batch size from the control stream (the one per-tick scalar
    // decision); lanes never see it.
    const double raw = plane_.control().gaussian(
        params_.ops_per_tick,
        params_.ops_per_tick * params_.burstiness);
    const auto n =
        static_cast<std::size_t>(std::max(0.0, std::round(raw)));
    const std::uint64_t seq = plane_.nextTickSeq();

    out.resize(n);
    scratch_.resize(n);
    jitter_.resize(n);
    if (n == 0)
        return;

    const std::uint64_t write_bound =
        sim::Rng::coinThreshold(params_.write_fraction);

    // One body serves the single-block fast path and the multi-block
    // loop: each block touches only its lane's Rng (distinct per
    // block — blocks <= kShards) and its own out/scratch/jitter
    // segment, in the same SoA column order as YcsbGenerator.
    Op *const ops = out.data();
    std::uint64_t *const scratch = scratch_.data();
    double *const jitter = jitter_.data();
    const auto block_body = [&](std::size_t lane_idx, std::size_t begin,
                                std::size_t end) {
        const std::size_t len = end - begin;
        sim::Rng &lane = plane_.lane(lane_idx);

        lane.fillRaw(scratch + begin, len);
        for (std::size_t i = begin; i < end; ++i)
            ops[i].type = (scratch[i] >> 11) < write_bound
                              ? Op::Type::Write
                              : Op::Type::Read;

        zipf_.sampleBatch(lane, scratch + begin, len);
        for (std::size_t i = begin; i < end; ++i)
            ops[i].key = scratch[i];

        lane.gaussianBatch(1.0, params_.size_jitter, jitter + begin,
                           len);
        for (std::size_t i = begin; i < end; ++i)
            ops[i].size_mb =
                params_.request_size_mb * std::max(0.05, jitter[i]);

        plane_.addOps(lane_idx, len);
    };
    if (n <= sim::kShardGranule) {
        // Typical ticks are one block: same layout shardLayout would
        // produce ([0, n) on lane seq % kShards), without building the
        // span table on every tick.
        block_body(static_cast<std::size_t>(seq % sim::kShards), 0, n);
    } else {
        sim::ShardSpan spans[sim::kShards];
        const std::size_t blocks = sim::shardLayout(n, seq, spans);
        for (std::size_t b = 0; b < blocks; ++b)
            block_body(spans[b].lane, spans[b].begin, spans[b].end);
    }
    generated_ += n;
}

ShardedDfsioGenerator::ShardedDfsioGenerator(
    const DfsioParams &params, sim::Rng rng)
    : params_(params), plane_(rng)
{}

void
ShardedDfsioGenerator::tickInto(sim::Tick now,
                                std::vector<DfsRequest> &out)
{
    const double raw = plane_.control().gaussian(
        params_.writes_per_tick,
        params_.writes_per_tick * params_.burstiness);
    const auto n =
        static_cast<std::size_t>(std::max(0.0, std::round(raw)));
    const std::uint64_t seq = plane_.nextTickSeq();

    out.assign(n, DfsRequest{});
    // The lanes draw nothing: a write carries no per-request payload.
    // Each block's writes still count against the lane the layout
    // gives it, which is what shardOps() reports.
    sim::ShardSpan spans[sim::kShards];
    const std::size_t blocks = sim::shardLayout(n, seq, spans);
    for (std::size_t b = 0; b < blocks; ++b)
        plane_.addOps(spans[b].lane, spans[b].end - spans[b].begin);
    generated_ += n;

    if (last_du_ < 0 || now - last_du_ >= params_.du_period) {
        DfsRequest du;
        du.type = DfsRequest::Type::ContentSummary;
        du.file_count = params_.du_file_count;
        out.push_back(du);
        last_du_ = now;
        ++generated_;
        // du is control-plane work; attribute it to the tick's
        // rotating lane so the shard counters still sum to generated().
        plane_.addOps(static_cast<std::size_t>(seq % sim::kShards), 1);
    }
}

} // namespace smartconf::workload
