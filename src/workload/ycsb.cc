#include "workload/ycsb.h"

#include <algorithm>
#include <cmath>

namespace smartconf::workload {

void
drawOps(const YcsbParams &params, sim::Rng &rng, Op *ops,
        std::size_t len, std::vector<std::uint64_t> &words,
        std::vector<double> &jitter)
{
    if (len == 0)
        return;
    const std::size_t need = 2 * len + rng.gaussianWords(len);
    if (words.size() < need)
        words.resize(need);
    if (jitter.size() < len)
        jitter.resize(len);
    std::uint64_t *const w = words.data();
    double *const z = jitter.data();
    rng.fillRaw(w, need);

    // Type coins, w[0, len): the exact integer equivalent of
    // uniform() < write_fraction (Rng::coinThreshold).
    const std::uint64_t write_bound =
        sim::Rng::coinThreshold(params.write_fraction);
    for (std::size_t i = 0; i < len; ++i)
        ops[i].type = (w[i] >> 11) < write_bound ? Op::Type::Write
                                                 : Op::Type::Read;

    // w[len, 2 len) are the key words: nothing reads a key.

    // Sizes: Box-Muller on the remaining words, with the stream's
    // spare, exactly as gaussianBatch would have drawn them.
    rng.gaussianBatch(w + 2 * len, 1.0, params.size_jitter, z, len);
    for (std::size_t i = 0; i < len; ++i)
        ops[i].size_mb = params.request_size_mb * std::max(0.05, z[i]);
}

YcsbGenerator::YcsbGenerator(const YcsbParams &params, sim::Rng rng)
    : params_(params), rng_(rng)
{}

void
YcsbGenerator::tickInto(std::vector<Op> &out)
{
    // Batch size: Gaussian around the mean rate, truncated at zero.
    const double raw = rng_.gaussian(
        params_.ops_per_tick, params_.ops_per_tick * params_.burstiness);
    const auto n = static_cast<std::size_t>(std::max(0.0, std::round(raw)));

    // resize without a preceding clear: shrink keeps constructed
    // elements, growth value-initializes only the new tail.  Every
    // field is overwritten by drawOps, so stale contents are harmless.
    out.resize(n);
    drawOps(params_, rng_, out.data(), n, words_, jitter_);
    generated_ += n;
}

} // namespace smartconf::workload
