/** @file Unit tests for the RPC region server. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "kvstore/server.h"

namespace smartconf::kvstore {
namespace {

KvServerParams
params()
{
    KvServerParams p;
    p.heap_mb = 495.0;
    p.request_queue_items = 50;
    p.response_queue_mb = 100.0;
    p.service_ops_per_tick = 10.0;
    p.network_mb_per_tick = 10.0;
    p.other_base_mb = 100.0;
    p.other_walk_mb = 0.0; // deterministic for unit tests
    p.other_max_mb = 100.0;
    return p;
}

std::vector<workload::Op>
writes(int n, double mb)
{
    std::vector<workload::Op> ops(n);
    for (auto &op : ops) {
        op.type = workload::Op::Type::Write;
        op.size_mb = mb;
    }
    return ops;
}

std::vector<workload::Op>
reads(int n, double mb)
{
    std::vector<workload::Op> ops(n);
    for (auto &op : ops) {
        op.type = workload::Op::Type::Read;
        op.size_mb = mb;
    }
    return ops;
}

TEST(KvServer, AcceptsAndServes)
{
    KvServer s(params(), sim::Rng(1));
    s.accept(writes(5, 1.0), 0);
    EXPECT_EQ(s.requestQueue().size(), 5u);
    s.step(1);
    EXPECT_EQ(s.completedOps(), 5u);
    EXPECT_EQ(s.requestQueue().size(), 0u);
}

TEST(KvServer, QueuePayloadCountsAgainstHeap)
{
    KvServer s(params(), sim::Rng(2));
    s.accept(writes(20, 2.0), 0);
    EXPECT_NEAR(s.heap().component("request.queue"), 40.0, 1e-9);
    EXPECT_GE(s.heap().usedMb(), 140.0);
}

TEST(KvServer, OomCrashStopsService)
{
    KvServerParams p = params();
    p.request_queue_items = 1000;
    p.service_ops_per_tick = 0.0;
    KvServer s(p, sim::Rng(3));
    // 400 MB of queued writes + 100 MB floor > 495 MB heap.
    s.accept(writes(400, 1.0), 0);
    EXPECT_TRUE(s.crashed());
    const auto before = s.completedOps();
    s.accept(writes(10, 1.0), 1);
    s.step(1);
    EXPECT_EQ(s.completedOps(), before) << "dead server serves nothing";
}

TEST(KvServer, ReadsProduceResponses)
{
    KvServerParams p = params();
    p.network_mb_per_tick = 0.0; // keep responses buffered
    KvServer s(p, sim::Rng(4));
    s.accept(reads(4, 2.0), 0);
    s.step(1);
    EXPECT_NEAR(s.responseQueue().bytesMb(), 8.0, 1e-9);
    EXPECT_NEAR(s.heap().component("response.queue"), 8.0, 1e-9);
}

TEST(KvServer, ResponseOverflowDropsCall)
{
    KvServerParams p = params();
    p.response_queue_mb = 5.0;
    p.network_mb_per_tick = 0.0;
    KvServer s(p, sim::Rng(5));
    s.accept(reads(4, 2.0), 0);
    s.step(1);
    // 2 responses fit (4 MB); the rest are dropped (HBASE-6728).
    EXPECT_EQ(s.completedOps(), 2u);
    EXPECT_EQ(s.droppedResponses(), 2u);
}

TEST(KvServer, NetworkDrainsResponses)
{
    KvServer s(params(), sim::Rng(6));
    s.accept(reads(4, 2.0), 0);
    s.step(1); // 8 MB buffered, 10 MB drained within the same tick
    EXPECT_NEAR(s.responseQueue().bytesMb(), 0.0, 1e-9);
}

TEST(KvServer, RequestTimeoutExpiresStaleWork)
{
    KvServerParams p = params();
    p.request_timeout = 5;
    p.service_ops_per_tick = 0.0; // nothing gets served
    KvServer s(p, sim::Rng(7));
    s.accept(writes(3, 1.0), 0);
    s.step(4);
    EXPECT_EQ(s.timedOutOps(), 0u);
    s.step(6);
    EXPECT_EQ(s.timedOutOps(), 3u);
    EXPECT_EQ(s.requestQueue().size(), 0u);
}

TEST(KvServer, QueueDelaysRecorded)
{
    KvServer s(params(), sim::Rng(8));
    s.accept(writes(3, 1.0), 0);
    s.step(7);
    const std::vector<double> &delays = s.lastStepDelays();
    EXPECT_EQ(delays.size(), 3u);
    EXPECT_NEAR(*std::max_element(delays.begin(), delays.end()), 7.0,
                1e-9);
}

} // namespace
} // namespace smartconf::kvstore
