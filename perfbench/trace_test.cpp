// Tests of the span recorder and request identity used by traced runs.
// Build and run: python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "net/envelope.hpp"
#include "probes.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

const Span& find(const std::vector<Span>& spans, std::uint64_t id) {
    for (const Span& span : spans) {
        if (span.id == id) return span;
    }
    throw std::out_of_range("no such span");
}

TEST(Recorder, DisabledRecordsNothing) {
    Recorder recorder;
    EXPECT_EQ(recorder.begin("a"), 0u);
    recorder.end(0);
    EXPECT_EQ(recorder.record("b", 1, 0, 10), 0u);
    recorder.count("c", 1.0);
    EXPECT_TRUE(recorder.spans().empty());
    EXPECT_EQ(recorder.counter("c"), 0.0);
}

TEST(Recorder, NestedSpansLinkParentAndSubtractChildTime) {
    Recorder recorder;
    recorder.set_enabled(true);
    std::uint64_t outer = 0, inner = 0;
    {
        const ScopedSpan a("outer", 7, recorder);
        outer = a.id();
        {
            const ScopedSpan b("inner", 7, recorder);
            inner = b.id();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        EXPECT_EQ(recorder.current(), outer);
    }
    EXPECT_EQ(recorder.current(), 0u);
    const auto spans = recorder.spans();
    ASSERT_EQ(spans.size(), 2u);
    const Span& a = find(spans, outer);
    const Span& b = find(spans, inner);
    EXPECT_EQ(b.parent, outer);
    EXPECT_EQ(a.parent, 0u);
    EXPECT_EQ(a.request, 7u);
    EXPECT_LE(a.start_ns, b.start_ns);
    EXPECT_GE(a.end_ns, b.end_ns);
    const auto self = self_times(spans);
    EXPECT_EQ(self.at(outer), a.duration_ns() - b.duration_ns());
    EXPECT_EQ(self.at(inner), b.duration_ns());
}

TEST(Recorder, ClosingOutOfOrderStillRecordsBoth) {
    Recorder recorder;
    recorder.set_enabled(true);
    const auto a = recorder.begin("a");
    const auto b = recorder.begin("b");
    recorder.end(a);
    EXPECT_EQ(recorder.current(), b);
    recorder.end(b);
    recorder.end(b);  // already closed: ignored
    const auto spans = recorder.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(find(spans, b).parent, a);
    EXPECT_EQ(recorder.current(), 0u);
}

TEST(Recorder, OverlappingChildrenFromConcurrentRequestsCountOnce) {
    Recorder recorder;
    recorder.set_enabled(true);
    // A batch [0, 100) whose store work came from two requests' records
    // that overlap each other, plus one that outlives the batch.
    const auto batch = recorder.record("mie.batch", 0, 0, 100);
    recorder.record("store.append", 1, 10, 50, 0.0, batch);
    recorder.record("store.append", 2, 30, 70, 0.0, batch);
    recorder.record("store.fsync", 3, 90, 150, 0.0, batch);
    const auto self = self_times(recorder.spans());
    // Covered: [10, 70) + [90, 100) = 70 of 100.
    EXPECT_EQ(self.at(batch), 30);
}

TEST(Recorder, SelfTimeIsNeverNegative) {
    std::mt19937_64 rng(42);
    for (int trial = 0; trial < 200; ++trial) {
        Recorder recorder;
        recorder.set_enabled(true);
        const std::int64_t lo = static_cast<std::int64_t>(rng() % 100);
        const std::int64_t hi = lo + static_cast<std::int64_t>(rng() % 100);
        const auto parent = recorder.record("p", 0, lo, hi);
        const int children = static_cast<int>(rng() % 8);
        for (int c = 0; c < children; ++c) {
            const auto s = static_cast<std::int64_t>(rng() % 250) - 25;
            const auto e = s + static_cast<std::int64_t>(rng() % 120);
            recorder.record("c", 0, s, e, 0.0, parent);
        }
        const auto self = self_times(recorder.spans());
        EXPECT_GE(self.at(parent), 0);
        EXPECT_LE(self.at(parent), hi - lo);
    }
}

TEST(Recorder, ConcurrentThreadsKeepTheirOwnParents) {
    Recorder recorder;
    recorder.set_enabled(true);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&recorder, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const ScopedSpan outer("outer", t + 1, recorder);
                const ScopedSpan inner("inner", t + 1, recorder);
            }
        });
    }
    for (auto& thread : threads) thread.join();
    const auto spans = recorder.spans();
    ASSERT_EQ(spans.size(), 2u * kThreads * kPerThread);
    for (const Span& span : spans) {
        if (std::string_view(span.name) != "inner") continue;
        const Span& parent = find(spans, span.parent);
        EXPECT_EQ(std::string_view(parent.name), "outer");
        EXPECT_EQ(parent.request, span.request);  // same thread's request
    }
}

TEST(Recorder, CountsAccumulate) {
    Recorder recorder;
    recorder.set_enabled(true);
    recorder.count("bytes", 10);
    recorder.count("bytes", 5);
    EXPECT_EQ(recorder.counter("bytes"), 15.0);
    EXPECT_EQ(recorder.counters().at("bytes"), 15.0);
}

TEST(RequestIdentity, EnvelopeIdsJoinClientAndServer) {
    const mie::Bytes inner = {3, 1, 2, 3};
    const auto a = mie::net::envelope_wrap(77, 1, inner);
    const auto b = mie::net::envelope_wrap(77, 2, inner);
    const auto c = mie::net::envelope_wrap(78, 1, inner);
    RequestIdentity client, server;
    EXPECT_EQ(client.id_of(a), envelope_request_id(77, 1));
    EXPECT_EQ(server.id_of(a), client.id_of(a));  // resend: same envelope
    EXPECT_NE(client.id_of(a), client.id_of(b));
    EXPECT_NE(client.id_of(a), client.id_of(c));
    // The envelope, not the payload, identifies a mutation.
    const auto d = mie::net::envelope_wrap(77, 1, mie::Bytes{4, 4});
    EXPECT_EQ(client.id_of(d), client.id_of(a));
    EXPECT_NE(envelope_request_id(77, 1), 0u);
}

TEST(RequestIdentity, UnenvelopedIdsAreDigestPlusSendOrder) {
    const mie::Bytes search = {5, 9, 9};
    const mie::Bytes other = {5, 9, 8};
    RequestIdentity client, server;
    const auto c1 = client.id_of(search);
    const auto c2 = client.id_of(search);
    const auto co = client.id_of(other);
    EXPECT_NE(c1, c2);  // same bytes sent twice: two requests
    EXPECT_NE(c1, co);
    // The server sees the same bytes in the same order: same ids.
    EXPECT_EQ(server.id_of(search), c1);
    EXPECT_EQ(server.id_of(other), co);
    EXPECT_EQ(server.id_of(search), c2);
}

TEST(Intervals, CoveredUnionClipsToBounds) {
    EXPECT_EQ(covered_ns({}, 0, 10), 0);
    EXPECT_EQ(covered_ns({{-5, 5}}, 0, 10), 5);
    EXPECT_EQ(covered_ns({{2, 4}, {3, 6}, {8, 20}}, 0, 10), 6);
    EXPECT_EQ(covered_ns({{0, 10}, {0, 10}}, 0, 10), 10);
}

}  // namespace
}  // namespace perfbench
