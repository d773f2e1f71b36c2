#include "exec/run_cache.h"

#include <stdexcept>
#include <utility>

#include "exec/disk_cache.h"

namespace smartconf::exec {

scenarios::ScenarioResult
RunCache::getOrRun(const std::string &key, const RunFn &fn)
{
    // A group of one key never runs a member alone (see getOrRunGroup).
    return getOrRunGroup(
               {key},
               [&fn](const std::vector<std::size_t> &) {
                   std::vector<scenarios::ScenarioResult> one;
                   one.push_back(fn());
                   return one;
               },
               nullptr)
        .front()
        .get();
}

void
RunCache::settle(DiskRunCache *disk, const std::string &key,
                 std::promise<scenarios::ScenarioResult> &promise,
                 scenarios::ScenarioResult result)
{
    if (disk && disk->store(key, result)) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.disk_stores;
    }
    promise.set_value(std::move(result));
}

std::vector<std::shared_future<scenarios::ScenarioResult>>
RunCache::getOrRunGroup(const std::vector<std::string> &keys,
                        const GroupFn &run_group, const MemberFn &run_one)
{
    std::vector<std::shared_future<scenarios::ScenarioResult>> futures(
        keys.size());
    std::vector<std::promise<scenarios::ScenarioResult>> promises(
        keys.size());
    std::vector<std::size_t> owned;
    std::shared_ptr<DiskRunCache> disk;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < keys.size(); ++i) {
            auto it = entries_.find(keys[i]);
            if (it != entries_.end()) {
                ++stats_.hits;
                futures[i] = it->second;
            } else {
                ++stats_.misses;
                futures[i] = promises[i].get_future().share();
                entries_.emplace(keys[i], futures[i]);
                owned.push_back(i);
            }
        }
        disk = disk_;
    }

    // Disk first, key by key; only what it misses is simulated.
    std::vector<std::size_t> missing;
    for (const std::size_t i : owned) {
        try {
            scenarios::ScenarioResult result;
            if (disk && disk->load(keys[i], result)) {
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    ++stats_.disk_hits;
                }
                promises[i].set_value(std::move(result));
            } else {
                missing.push_back(i);
            }
        } catch (...) {
            promises[i].set_exception(std::current_exception());
        }
    }
    if (missing.empty())
        return futures;

    std::vector<scenarios::ScenarioResult> fresh;
    try {
        fresh = run_group(missing);
        if (fresh.size() != missing.size())
            throw std::logic_error("group run returned a wrong count");
    } catch (...) {
        // One missing key: the group's run was that key's run.
        if (missing.size() == 1) {
            promises[missing.front()].set_exception(
                std::current_exception());
            return futures;
        }
        // Key by key: a failing run stores its exception under its own
        // key alone.
        for (const std::size_t i : missing) {
            try {
                settle(disk.get(), keys[i], promises[i], run_one(i));
            } catch (...) {
                promises[i].set_exception(std::current_exception());
            }
        }
        return futures;
    }
    for (std::size_t k = 0; k < missing.size(); ++k) {
        try {
            settle(disk.get(), keys[missing[k]], promises[missing[k]],
                   std::move(fresh[k]));
        } catch (...) {
            promises[missing[k]].set_exception(std::current_exception());
        }
    }
    return futures;
}

void
RunCache::attachDiskCache(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(mutex_);
    disk_ = dir.empty() ? nullptr
                        : std::make_shared<DiskRunCache>(dir);
}

void
RunCache::flushDisk()
{
    std::shared_ptr<DiskRunCache> disk;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        disk = disk_;
    }
    if (disk)
        disk->flush();
}

bool
RunCache::contains(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.find(key) != entries_.end();
}

RunCache::Stats
RunCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
RunCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
RunCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    stats_ = Stats{};
}

std::string
RunCache::key(const std::string &scenario_key,
              const scenarios::Policy &policy, std::uint64_t seed)
{
    return scenario_key + "|" + policy.cacheKey() + "|s=" +
           std::to_string(seed);
}

} // namespace smartconf::exec
