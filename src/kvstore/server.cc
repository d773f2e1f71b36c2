#include "kvstore/server.h"

#include <algorithm>
#include <cmath>

namespace smartconf::kvstore {

KvServer::KvServer(const KvServerParams &params, sim::Rng rng)
    : params_(params), rng_(rng), heap_(params.heap_mb),
      request_queue_(params.request_queue_items),
      response_queue_(params.response_queue_mb),
      other_mb_(params.other_base_mb),
      other_slot_(heap_.slot("other")),
      request_slot_(heap_.slot("request.queue")),
      response_slot_(heap_.slot("response.queue"))
{
    heap_.set(other_slot_, other_mb_);
}

void
KvServer::accept(std::span<const workload::Op> ops, sim::Tick now)
{
    if (crashed())
        return;
    for (const auto &op : ops) {
        RpcItem item;
        item.is_write = op.type == workload::Op::Type::Write;
        // Writes carry their payload into the queue; reads are small
        // request descriptors whose cost is on the response path.
        item.size_mb = item.is_write ? op.size_mb : 0.01;
        item.resp_mb = item.is_write
                           ? params_.write_response_mb
                           : op.size_mb * params_.response_size_factor;
        request_queue_.offer(item, now);
    }
    // Queue payloads live on the heap the moment they are accepted.
    heap_.set(request_slot_, request_queue_.bytesMb());
    heap_.checkOom(now);
}

void
KvServer::step(sim::Tick now)
{
    step_delays_.clear();
    if (crashed())
        return;

    // 1. Workload-dependent heap disturbance: bounded random walk.
    other_mb_ += rng_.uniform(-params_.other_walk_mb,
                              params_.other_walk_mb);
    other_mb_ = std::clamp(other_mb_, params_.other_base_mb * 0.8,
                           params_.other_max_mb);
    heap_.set(other_slot_, other_mb_);

    // 2. Expire requests whose client has given up.
    if (params_.request_timeout > 0) {
        while (const RpcItem *front = request_queue_.front()) {
            if (now - front->enqueued < params_.request_timeout)
                break;
            request_queue_.pop();
            ++timed_out_;
        }
    }

    // 3. Service up to service_ops_per_tick requests.
    auto budget = static_cast<std::size_t>(
        std::max(0.0, std::round(rng_.gaussian(
                          params_.service_ops_per_tick,
                          params_.service_ops_per_tick * 0.1))));
    while (budget > 0 && request_queue_.front() != nullptr) {
        const RpcItem *item = request_queue_.front();
        const double response_mb =
            std::max(params_.write_response_mb, item->resp_mb);
        // HBASE-6728 semantics: a response that would push the buffer
        // past its bound is dropped and the call fails (the server
        // closes the connection; the client must retry).
        const bool delivered = response_queue_.offer(response_mb);
        const RpcItem done = request_queue_.pop();
        if (delivered) {
            step_delays_.push_back(
                static_cast<double>(now - done.enqueued));
            ++completed_;
        } else {
            ++dropped_responses_;
        }
        --budget;
    }
    // 4. Network drains responses.
    response_queue_.drain(params_.network_mb_per_tick);

    // 5. Heap accounting + OOM check.
    heap_.set(request_slot_, request_queue_.bytesMb());
    heap_.set(response_slot_, response_queue_.bytesMb());
    heap_.checkOom(now);
}

} // namespace smartconf::kvstore
