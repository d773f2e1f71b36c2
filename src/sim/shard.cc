#include "sim/shard.h"

namespace smartconf::sim {

ShardPlane::ShardPlane(const Rng &base) : control_(base)
{
    Rng walker = base;
    for (auto &lane : lanes_) {
        walker.jump();
        lane = walker;
    }
}

} // namespace smartconf::sim
