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

#include <cstdint>
#include <vector>

#include "sim/clock.h"
#include "sim/rng.h"

namespace smartconf::workload {

/** One namenode request. */
struct DfsRequest
{
    enum class Type
    {
        WriteFile,       ///< client create/append (needs the write lock)
        ContentSummary,  ///< admin du over a directory subtree
    };

    Type type = Type::WriteFile;
    std::uint64_t file_count = 0; ///< subtree size for ContentSummary
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
 * Generates per-tick namenode request batches.
 */
class DfsioGenerator
{
  public:
    DfsioGenerator(const DfsioParams &params, sim::Rng rng);

    /**
     * Fill @p out (cleared first) with the requests arriving during
     * tick @p now; a caller-owned buffer absorbs the per-tick
     * allocation after the first bursts.  A write carries nothing the
     * namenode reads, so a tick draws only its batch size.
     */
    void tickInto(sim::Tick now, std::vector<DfsRequest> &out);

    void setParams(const DfsioParams &params) { params_ = params; }
    const DfsioParams &params() const { return params_; }

    /** Total requests generated so far. */
    std::uint64_t generated() const { return generated_; }

  private:
    DfsioParams params_;
    sim::Rng rng_;
    sim::Tick last_du_ = -1;
    std::uint64_t generated_ = 0;
};

} // namespace smartconf::workload

#endif // SMARTCONF_WORKLOAD_DFSIO_H_
