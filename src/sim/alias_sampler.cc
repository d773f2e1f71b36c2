#include "sim/alias_sampler.h"

#include <cassert>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "sim/kernels.h"

namespace smartconf::sim {

AliasTable::AliasTable(const std::vector<double> &weights)
    : n_(weights.size())
{
    assert(!weights.empty());
    assert(n_ <= 0xffffffffULL);

    double sum = 0.0;
    for (const double w : weights) {
        assert(w >= 0.0);
        sum += w;
    }
    assert(sum > 0.0);
    weight_sum_ = sum;

    // Vose's algorithm: scale each probability by n, then repeatedly
    // pair one under-full slot with one over-full donor.  Every slot
    // ends up with a threshold in [0, 1] and an alias to the donor
    // that tops it up.
    const auto n = static_cast<std::size_t>(n_);
    std::vector<double> scaled(n);
    const double scale = static_cast<double>(n_) / sum;
    for (std::size_t i = 0; i < n; ++i)
        scaled[i] = weights[i] * scale;

    std::vector<std::uint32_t> small, large;
    small.reserve(n);
    large.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        (scaled[i] < 1.0 ? small : large)
            .push_back(static_cast<std::uint32_t>(i));

    entries_.resize(n);
    auto pack = [](double threshold, std::uint32_t alias) {
        // 32-bit fixed point; the coin is a uniform uint32, so a full
        // slot needs the all-ones threshold (and aliases to itself to
        // stay exact on the 2^-32 coin == threshold edge).
        const double clamped =
            threshold < 0.0 ? 0.0 : (threshold > 1.0 ? 1.0 : threshold);
        const auto fixed = static_cast<std::uint64_t>(
            std::nearbyint(clamped * 4294967296.0));
        const std::uint64_t capped =
            fixed > 0xffffffffULL ? 0xffffffffULL : fixed;
        return (capped << 32) | alias;
    };

    while (!small.empty() && !large.empty()) {
        const std::uint32_t s = small.back();
        small.pop_back();
        const std::uint32_t l = large.back();
        entries_[s] = pack(scaled[s], l);
        scaled[l] -= 1.0 - scaled[s];
        if (scaled[l] < 1.0) {
            large.pop_back();
            small.push_back(l);
        }
    }
    // Leftovers (either list) are exactly-full modulo float error.
    for (const std::uint32_t i : small)
        entries_[i] = pack(1.0, i);
    for (const std::uint32_t i : large)
        entries_[i] = pack(1.0, i);
}

void
AliasTable::sampleBatch(Rng &rng, std::uint64_t *out,
                        std::size_t count) const
{
    rng.fillRaw(out, count);
    kernels::aliasResolve(entries_.data(), n_, out, count);
}

namespace {

/**
 * Process-wide memo of Zipf alias tables, one per (n, theta).
 *
 * Guarded by a mutex because parallel sweeps construct generators on
 * worker threads concurrently.  The O(n) build runs under the lock: it
 * executes once per distinct key for the process lifetime, and racing
 * duplicates would waste exactly the work the cache exists to avoid.
 * Tables are immutable shared_ptrs, so handing them out under the lock
 * and sampling outside it is race-free.
 */
class ZipfTableCache
{
  public:
    std::shared_ptr<const AliasTable> get(std::uint64_t n, double theta)
    {
        const std::pair<std::uint64_t, double> key{n, theta};
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = memo_.find(key);
        if (it != memo_.end())
            return it->second;
        std::vector<double> weights(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i)
            weights[i] =
                1.0 / std::pow(static_cast<double>(i + 1), theta);
        auto table = std::make_shared<const AliasTable>(weights);
        memo_.emplace(key, table);
        return table;
    }

  private:
    std::mutex mu_;
    std::map<std::pair<std::uint64_t, double>,
             std::shared_ptr<const AliasTable>>
        memo_;
};

ZipfTableCache &
zipfTableCache()
{
    static ZipfTableCache cache;
    return cache;
}

} // namespace

std::shared_ptr<const AliasTable>
AliasTable::zipfian(std::uint64_t n, double theta)
{
    return zipfTableCache().get(n, theta);
}

} // namespace smartconf::sim
