// Fault matrix: every FaultKind crossed with every mutating MIE opcode,
// driven through the full fault-tolerant stack
//
//   MieClient -> RetryingTransport -> FaultyTransport
//             -> MeteredTransport -> DedupHandler -> MieServer
//
// The invariant under test is exactly-once: whatever the fault and
// whichever operation it strikes, the client either succeeds after
// retries or surfaces a typed TransportError, and the server's final
// state is byte-identical to a fault-free run — a retried UPDATE never
// indexes an object twice, a replayed REMOVE never errors.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <tuple>

#include "mie/client.hpp"
#include "mie/durable_server.hpp"
#include "mie/server.hpp"
#include "mie/wire.hpp"
#include "net/envelope.hpp"
#include "net/faulty.hpp"
#include "net/retry.hpp"
#include "sim/dataset.hpp"
#include "store/file.hpp"

namespace mie {
namespace {

using net::FaultKind;

/// The deterministic workload every scenario runs. Call order (one
/// Transport::call each): 0 CREATE, 1-3 UPDATE, 4 TRAIN, 5 REMOVE,
/// 6 SEARCH.
constexpr std::size_t kCreateCall = 0;
constexpr std::size_t kUpdateCall = 2;  // the middle UPDATE
constexpr std::size_t kTrainCall = 4;
constexpr std::size_t kRemoveCall = 5;

std::unique_ptr<MieClient> make_client(net::Transport& transport) {
    auto client = std::make_unique<MieClient>(
        transport, "fault-repo",
        RepositoryKey::generate(to_bytes("fault-entropy"), 64, 64,
                                0.7978845608),
        to_bytes("fault-user"));
    client->train_params.tree_branch = 4;
    client->train_params.tree_depth = 2;
    return client;
}

/// Runs the workload; returns the top search hit's object id.
std::uint64_t run_workload(MieClient& client) {
    sim::FlickrLikeGenerator gen(
        sim::FlickrLikeParams{.num_classes = 2, .image_size = 48, .seed = 3});
    client.create_repository();
    for (int i = 0; i < 3; ++i) client.update(gen.make(i));
    client.train();
    client.remove(2);
    const auto results = client.search(gen.make(1), 1);
    return results.empty() ? ~0ull : results.front().object_id;
}

struct ReferenceRun {
    Bytes snapshot;
    std::uint64_t top_hit = 0;
};

/// Fault-free reference: the state every faulted run must converge to.
const ReferenceRun& reference_run() {
    static const ReferenceRun reference = [] {
        MieServer server;
        net::DedupHandler dedup(server);
        net::MeteredTransport wire(dedup, net::LinkProfile::loopback());
        auto client = make_client(wire);
        ReferenceRun run;
        run.top_hit = run_workload(*client);
        run.snapshot = server.export_mapped_snapshot();
        return run;
    }();
    return reference;
}

bool is_send_kind(FaultKind kind) {
    return kind == FaultKind::kDropSend || kind == FaultKind::kResetSend;
}

/// One matrix cell: `kind` strikes workload call `call_index`.
void run_cell(FaultKind kind, std::size_t call_index) {
    SCOPED_TRACE(std::string(net::fault_kind_name(kind)) + " at call " +
                 std::to_string(call_index));
    MieServer server;
    net::DedupHandler dedup(server);
    net::MeteredTransport wire(dedup, net::LinkProfile::loopback());
    net::FaultyTransport faulty(wire);
    // Send faults strike op 2k (before the server runs), recv faults op
    // 2k+1 (after the server applied) — the latter is the case only the
    // replay cache can make exactly-once.
    faulty.schedule_fault(2 * call_index + (is_send_kind(kind) ? 0 : 1),
                          kind);
    net::RetryingTransport retrying(
        faulty, net::RetryPolicy{.max_attempts = 4});
    retrying.set_sleeper([](double) {});
    auto client = make_client(retrying);

    const std::uint64_t top_hit = run_workload(*client);

    EXPECT_EQ(faulty.stats().faults_injected, 1u);
    EXPECT_GE(retrying.stats().retries, 1u);
    EXPECT_EQ(top_hit, reference_run().top_hit);
    // Exactly-once: final server state identical to the fault-free run.
    EXPECT_EQ(server.export_mapped_snapshot(), reference_run().snapshot);
    if (!is_send_kind(kind) && kind != FaultKind::kDelayRecv) {
        // The server applied the original; the retry was a replay the
        // dedup cache must have absorbed (not a second application).
        EXPECT_GE(dedup.replays_suppressed(), 1u);
    }
}

TEST(FaultMatrix, EveryKindAgainstEveryMutatingOp) {
    const FaultKind kinds[] = {
        FaultKind::kDropSend,     FaultKind::kResetSend,
        FaultKind::kDropRecv,     FaultKind::kResetRecv,
        FaultKind::kTruncateRecv, FaultKind::kCorruptRecv,
    };
    const std::size_t mutating_calls[] = {kCreateCall, kUpdateCall,
                                          kTrainCall, kRemoveCall};
    for (const FaultKind kind : kinds) {
        for (const std::size_t call : mutating_calls) {
            run_cell(kind, call);
        }
    }
}

TEST(FaultMatrix, DelayWithoutDeadlineOnlyAddsLatency) {
    // kDelayRecv with no deadline is not an error: the call succeeds,
    // modeled time grows, nothing retries.
    MieServer server;
    net::DedupHandler dedup(server);
    net::MeteredTransport wire(dedup, net::LinkProfile::loopback());
    net::FaultyTransport faulty(
        wire, net::FaultPlan{.delay_seconds = 0.5});
    faulty.schedule_fault(2 * kUpdateCall + 1, FaultKind::kDelayRecv);
    net::RetryingTransport retrying(faulty, net::RetryPolicy{});
    retrying.set_sleeper([](double) {});
    auto client = make_client(retrying);

    const double before = retrying.network_seconds();
    run_workload(*client);
    EXPECT_EQ(retrying.stats().retries, 0u);
    EXPECT_GE(retrying.network_seconds() - before, 0.5);
    EXPECT_EQ(server.export_mapped_snapshot(), reference_run().snapshot);
}

TEST(FaultMatrix, DelayPastDeadlineTimesOutAndRetries) {
    MieServer server;
    net::DedupHandler dedup(server);
    net::MeteredTransport wire(dedup, net::LinkProfile::loopback());
    net::FaultyTransport faulty(
        wire, net::FaultPlan{.delay_seconds = 0.5,
                             .deadline_seconds = 0.1});
    faulty.schedule_fault(2 * kUpdateCall + 1, FaultKind::kDelayRecv);
    net::RetryingTransport retrying(
        faulty, net::RetryPolicy{.max_attempts = 4});
    retrying.set_sleeper([](double) {});
    auto client = make_client(retrying);

    run_workload(*client);
    EXPECT_GE(retrying.stats().timeouts, 1u);
    EXPECT_GE(dedup.replays_suppressed(), 1u);
    EXPECT_EQ(server.export_mapped_snapshot(), reference_run().snapshot);
}

TEST(FaultMatrix, ExhaustedRetriesSurfaceTypedError) {
    // rate = 1.0: every I/O op faults, so even max_attempts retries
    // cannot get through — the caller must see a TransportError, not a
    // hang or a crash.
    MieServer server;
    net::DedupHandler dedup(server);
    net::MeteredTransport wire(dedup, net::LinkProfile::loopback());
    net::FaultyTransport faulty(
        wire, net::FaultPlan{.rate = 1.0,
                             .seed = 9,
                             .kinds = {FaultKind::kDropSend}});
    net::RetryingTransport retrying(
        faulty, net::RetryPolicy{.max_attempts = 3});
    retrying.set_sleeper([](double) {});
    auto client = make_client(retrying);

    try {
        client->create_repository();
        FAIL() << "create_repository should not survive rate-1.0 faults";
    } catch (const net::TransportError& error) {
        EXPECT_EQ(error.kind(), net::TransportErrorKind::kTimeout);
    }
    EXPECT_EQ(retrying.stats().exhausted, 1u);
    EXPECT_EQ(retrying.stats().attempts, 3u);
    // The server never saw the request.
    EXPECT_THROW(server.stats("fault-repo"), std::exception);
}

TEST(FaultMatrix, ServerSideProtocolErrorsAreNeverRetried) {
    // A malformed request fails identically every attempt; retrying it
    // would only hide the bug. The retry layer must pass it through on
    // the first attempt.
    MieServer server;
    net::MeteredTransport wire(server, net::LinkProfile::loopback());
    net::RetryingTransport retrying(wire, net::RetryPolicy{});
    retrying.set_sleeper([](double) {});
    const Bytes garbage = to_bytes("\xff\xfe not a real opcode");
    EXPECT_THROW(retrying.call(garbage), std::exception);
    EXPECT_EQ(retrying.stats().attempts, 1u);
    EXPECT_EQ(retrying.stats().retries, 0u);
}

TEST(FaultMatrix, SeededSchedulesAreDeterministic) {
    // Same FaultPlan seed -> identical fault sequences and identical
    // retry/backoff bookkeeping across two full runs.
    auto run_once = [] {
        MieServer server;
        net::DedupHandler dedup(server);
        net::MeteredTransport wire(dedup, net::LinkProfile::loopback());
        net::FaultyTransport faulty(
            wire, net::FaultPlan{.rate = 0.15, .seed = 0xD1CE});
        net::RetryingTransport retrying(
            faulty, net::RetryPolicy{.max_attempts = 8,
                                     .jitter_seed = 0xD1CE});
        retrying.set_sleeper([](double) {});
        auto client = make_client(retrying);
        run_workload(*client);
        return std::tuple(faulty.stats().faults_injected,
                          retrying.stats().attempts,
                          retrying.stats().backoff_seconds,
                          server.export_mapped_snapshot());
    };
    const auto first = run_once();
    const auto second = run_once();
    EXPECT_EQ(std::get<0>(first), std::get<0>(second));
    EXPECT_EQ(std::get<1>(first), std::get<1>(second));
    EXPECT_EQ(std::get<2>(first), std::get<2>(second));
    EXPECT_EQ(std::get<3>(first), std::get<3>(second));
}

TEST(FaultMatrix, DedupSurvivesServerCrashAndRecovery) {
    // A recv-phase fault leaves the client about to retry an UPDATE the
    // server already applied AND logged. If the server then crashes and
    // recovers from its WAL, the retry still must not double-apply: the
    // replay cache is rebuilt from the logged envelopes.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("mie_fault_dedup_crash_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    sim::FlickrLikeGenerator gen(
        sim::FlickrLikeParams{.num_classes = 2, .image_size = 48, .seed = 3});

    Bytes replay_request;  // the enveloped UPDATE the client would retry
    {
        DurableServer server(store::PosixVfs::instance(), dir);
        class Recorder final : public net::RequestHandler {
        public:
            explicit Recorder(net::RequestHandler& inner) : inner_(inner) {}
            Bytes handle(BytesView request) override {
                last.assign(request.begin(), request.end());
                return inner_.handle(request);
            }
            Bytes last;

        private:
            net::RequestHandler& inner_;
        } recorder(server);
        net::MeteredTransport wire(recorder, net::LinkProfile::loopback());
        auto client = make_client(wire);
        client->create_repository();
        client->update(gen.make(0));
        replay_request = recorder.last;
        server.sync();
    }  // crash: destructor without checkpoint_now()

    {
        DurableServer recovered(store::PosixVfs::instance(), dir);
        const auto before = recovered.server().stats("fault-repo");
        EXPECT_EQ(before.num_objects, 1u);

        // The client's retry arrives at the recovered server.
        const Bytes response = recovered.handle(replay_request);
        (void)response;
        EXPECT_EQ(recovered.durability().replays_suppressed, 1u);
        const auto after = recovered.server().stats("fault-repo");
        EXPECT_EQ(after.num_objects, 1u);  // not applied twice
    }
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mie
