#ifndef SMARTCONF_KVSTORE_SERVER_H_
#define SMARTCONF_KVSTORE_SERVER_H_

/**
 * @file
 * RPC region server: bounded request/response queues over a JVM heap.
 *
 * This is the shared engine behind HB3813 (request queue caps memory),
 * HB6728 (response queue caps memory) and the Fig. 8 interacting-
 * controllers experiment (both queues against one heap).  Each simulated
 * tick the server:
 *
 *   1. refreshes the workload-dependent "other objects" heap component
 *      (a slow random walk — the unpredictable disturbance hard goals
 *      must survive);
 *   2. services up to a fixed number of queued requests; reads produce
 *      responses that must fit into the response queue or the handler
 *      stalls;
 *   3. drains the response queue at the network rate;
 *   4. republishes queue occupancies into the heap and checks for OOM.
 *
 * Once OOM, the server stops serving — the region server crashed.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "kvstore/heap.h"
#include "kvstore/rpc_queue.h"
#include "sim/clock.h"
#include "sim/rng.h"
#include "workload/ycsb.h"

namespace smartconf::kvstore {

/** Server mechanics. */
struct KvServerParams
{
    double heap_mb = 495.0;          ///< JVM heap (Fig. 6 uses 495 MB)
    std::size_t request_queue_items = 50;  ///< initial max.queue.size
    double response_queue_mb = 64.0; ///< initial response.queue.maxsize
    double service_ops_per_tick = 12.0; ///< handler drain rate
    double network_mb_per_tick = 10.0;  ///< response drain rate
    double response_size_factor = 1.0;  ///< response MB per read's size_mb
    double write_response_mb = 0.01;    ///< tiny ack for writes
    double other_base_mb = 200.0;    ///< baseline non-queue heap
    double other_walk_mb = 4.0;      ///< per-tick random-walk step bound
    double other_max_mb = 260.0;     ///< cap of the other-objects walk

    /**
     * Client RPC timeout in ticks; requests older than this are dropped
     * from the queue (the client gave up and will retry elsewhere).
     * 0 disables timeouts.
     */
    sim::Tick request_timeout = 0;
};

/**
 * The simulated region server.
 */
class KvServer
{
  public:
    KvServer(const KvServerParams &params, sim::Rng rng);

    /** Offer a batch of client operations (rejected ops are dropped). */
    void accept(std::span<const workload::Op> ops, sim::Tick now);

    /** Advance one tick of service, network drain and heap accounting. */
    void step(sim::Tick now);

    /** True when the server has crashed with OOM. */
    bool crashed() const { return heap_.oom(); }

    JvmHeap &heap() { return heap_; }
    const JvmHeap &heap() const { return heap_; }
    RpcRequestQueue &requestQueue() { return request_queue_; }
    const RpcRequestQueue &requestQueue() const { return request_queue_; }
    RpcResponseQueue &responseQueue() { return response_queue_; }
    const RpcResponseQueue &responseQueue() const { return response_queue_; }

    /** Completed operations (throughput numerator). */
    std::uint64_t completedOps() const { return completed_; }

    /** Requests dropped because the client timed out. */
    std::uint64_t timedOutOps() const { return timed_out_; }

    /** Reads whose response was dropped (response queue overflow). */
    std::uint64_t droppedResponses() const { return dropped_responses_; }

    /**
     * Queueing delays (ticks) of the operations the last step()
     * completed, in completion order.  Holds one step's worth; the
     * next step() replaces it.
     */
    const std::vector<double> &lastStepDelays() const
    {
        return step_delays_;
    }

    const KvServerParams &params() const { return params_; }

  private:
    KvServerParams params_;
    sim::Rng rng_;
    JvmHeap heap_;
    RpcRequestQueue request_queue_;
    RpcResponseQueue response_queue_;
    double other_mb_;
    std::uint64_t completed_ = 0;
    std::uint64_t timed_out_ = 0;
    std::uint64_t dropped_responses_ = 0;

    /** Heap gauges the server republishes every tick, slot-resolved
     *  once here instead of name-scanned per update. */
    JvmHeap::Slot other_slot_;
    JvmHeap::Slot request_slot_;
    JvmHeap::Slot response_slot_;

    /** lastStepDelays(); the buffer is reused across steps. */
    std::vector<double> step_delays_;
};

} // namespace smartconf::kvstore

#endif // SMARTCONF_KVSTORE_SERVER_H_
