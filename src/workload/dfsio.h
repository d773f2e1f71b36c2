#ifndef SMARTCONF_WORKLOAD_DFSIO_H_
#define SMARTCONF_WORKLOAD_DFSIO_H_

/**
 * @file
 * TestDFSIO-like distributed file system workload (HD4995).
 *
 * Clients continuously create/write files into the namespace while an
 * administrator periodically issues `du` (content summary) over a large
 * subtree.  The interesting dynamics are on the namenode: every du chunk
 * holds the global namespace lock and blocks client writes.
 */

#include <array>
#include <cstdint>
#include <optional>

#include "sim/clock.h"
#include "sim/rng.h"
#include "workload/sharded.h"

namespace smartconf::workload {

/**
 * One tick's namenode arrivals.  A write carries nothing the namenode
 * reads, so a tick is a count of writes, plus the subtree size of the
 * admin du when one is issued.
 */
struct DfsioTick
{
    std::uint64_t writes = 0;
    std::optional<std::uint64_t> du_files; ///< set on a du tick
};

/** TestDFSIO-like workload knobs (Table 6: single- and multi-client
 *  runs differ in the aggregate write rate). */
struct DfsioParams
{
    double writes_per_tick = 30.0;  ///< aggregate write arrival rate
    double burstiness = 0.25;       ///< relative stddev of batch size
    sim::Tick du_period = 300;      ///< ticks between du commands
    std::uint64_t du_file_count = 200000; ///< files in the du subtree
};

/**
 * Generates per-tick namenode arrivals, counted per logical lane.  A
 * tick draws only its write count, from the rng it is given; a write
 * carries nothing drawn, so the lanes draw nothing and only count: a
 * tick's writes by the block rule (workload/sharded.h), its du against
 * the tick's rotating lane.
 */
class DfsioGenerator
{
  public:
    DfsioGenerator(const DfsioParams &params, sim::Rng rng);

    /**
     * The arrivals during tick @p now.  The write count is what one
     * gaussian() per tick would give (BatchSizes draws ahead); a du is
     * issued on the first tick and every du_period ticks after.
     */
    DfsioTick tick(sim::Tick now);

    /** Total requests (writes and du commands) generated so far. */
    std::uint64_t generated() const { return generated_; }

    /** Requests counted per lane; they sum to generated(). */
    const std::array<std::uint64_t, kShards> &shardOps() const
    {
        return ops_;
    }

  private:
    DfsioParams params_;
    sim::Rng rng_;
    BatchSizes sizes_;
    std::array<std::uint64_t, kShards> ops_{};
    std::uint64_t seq_ = 0; ///< ticks drawn so far
    sim::Tick last_du_ = -1;
    std::uint64_t generated_ = 0;
};

} // namespace smartconf::workload

#endif // SMARTCONF_WORKLOAD_DFSIO_H_
