// Regression: client failover racing an in-flight replication pull.
//
// Scenario pinned here: a shard's primary link looks dead to the CLIENT
// (scripted faults exhaust its retries) while the primary itself is
// alive and still serving the replication feed. The ClusterClient
// promotes the follower and replays the mutation there — a spurious
// failover. The Replicator that was pumping primary -> follower is now
// pumping primary -> PRIMARY; if that pull were allowed to apply, the
// old primary's state would silently overwrite the promoted node's
// divergent (post-failover) state — split-brain by replication.
//
// Expected behavior, pinned: Replicator::pump() fails fast with
// NotFollowerError before touching the network; a pull response already
// in flight hits the same wall inside apply_replicated() (checked under
// the node lock, the same lock promote() takes); snapshot bootstrap is
// refused identically. In every case the promoted node's state is
// untouched.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include "cluster/client.hpp"
#include "cluster/node.hpp"
#include "cluster/replication.hpp"
#include "mie/client.hpp"
#include "mie/keys.hpp"
#include "net/envelope.hpp"
#include "net/faulty.hpp"
#include "net/retry.hpp"
#include "sim/dataset.hpp"
#include "store/file.hpp"

namespace mie::cluster {
namespace {

namespace fs = std::filesystem;

using net::FaultKind;

/// Makes the client's primary link dead for good from its next call:
/// the first op resets on send (the primary never sees the request) and
/// so does every retry, until the ClusterClient gives up and fails over.
void kill_client_link(net::FaultyTransport& faulty) {
    const std::uint64_t base = faulty.ops_issued();
    for (std::uint64_t op = base; op < base + 100; op += 2) {
        faulty.schedule_fault(op, FaultKind::kResetSend);
    }
}

class PromoteDuringPullTest : public ::testing::Test {
protected:
    PromoteDuringPullTest()
        : dir_(fs::temp_directory_path() /
               ("mie_promote_pull_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()) +
                "_" + std::to_string(::getpid()))) {}

    ~PromoteDuringPullTest() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    fs::path dir_;
};

TEST_F(PromoteDuringPullTest, PumpIntoPromotedFollowerFailsFastAndSafely) {
    Node primary(store::PosixVfs::instance(), dir_ / "p");
    Node follower(store::PosixVfs::instance(), dir_ / "f",
                  NodeOptions{.role = Role::kFollower});

    // Client stack: faults only on the primary link, so the failover is
    // spurious — the primary stays alive underneath.
    net::MeteredTransport wire_p(primary, net::LinkProfile::loopback());
    net::MeteredTransport wire_f(follower, net::LinkProfile::loopback());
    net::FaultyTransport faulty_p(wire_p);
    net::RetryingTransport retry_p(faulty_p,
                                   net::RetryPolicy{.max_attempts = 3});
    net::RetryingTransport retry_f(wire_f,
                                   net::RetryPolicy{.max_attempts = 3});
    retry_p.set_sleeper([](double) {});
    retry_f.set_sleeper([](double) {});
    ClusterClient cluster(
        std::vector<ShardEndpoints>{{&retry_p, &retry_f}});

    MieClient client(cluster, "race-repo",
                     RepositoryKey::generate(to_bytes("race-repo-key"), 64,
                                             64, 0.7978845608),
                     to_bytes("race-user"));
    client.train_params.tree_branch = 4;
    client.train_params.tree_depth = 2;
    sim::FlickrLikeGenerator generator(
        sim::FlickrLikeParams{.num_classes = 2, .image_size = 32, .seed = 3});

    // The replication pump rides its own clean link to the primary.
    net::MeteredTransport pump_wire(primary, net::LinkProfile::loopback());
    Replicator replicator(follower, pump_wire);

    // Healthy phase: mutations replicate normally.
    client.create_repository();
    client.update(generator.make(0));
    replicator.sync();
    EXPECT_GT(follower.acked_lsn(), 0u);

    // Kill the CLIENT's view of the primary; the next mutation fails
    // over: promote the follower, replay there. The primary never saw
    // the mutation (send-side resets), so the two nodes now diverge —
    // exactly the state replication must not "fix".
    kill_client_link(faulty_p);
    client.update(generator.make(1));
    ASSERT_EQ(cluster.stats().failovers, 1u);
    ASSERT_EQ(follower.role(), Role::kPrimary);
    ASSERT_EQ(primary.role(), Role::kPrimary);  // split-brain, contained

    const Bytes state_before =
        follower.durable().server().export_mapped_snapshot();
    const std::uint64_t acked_before = follower.acked_lsn();
    const auto stats_before = follower.replication();
    const std::uint64_t pump_calls_before = pump_wire.calls();

    // The racing pump round: refused before the network round trip.
    EXPECT_THROW(replicator.pump(), NotFollowerError);
    EXPECT_THROW(replicator.sync(), NotFollowerError);
    EXPECT_EQ(pump_wire.calls(), pump_calls_before);

    // A pull response that was already in flight when the promote
    // landed is refused at apply time, under the node lock.
    const Bytes record = net::envelope_wrap(99, 1, to_bytes("stale-record"));
    EXPECT_THROW(follower.apply_replicated(acked_before + 1, record),
                 NotFollowerError);
    EXPECT_THROW(
        follower.restore_replication_snapshot(
            acked_before + 10,
            primary.durable().server().export_mapped_snapshot()),
        NotFollowerError);

    // Nothing about the promoted node moved: snapshot, offset, stats.
    EXPECT_EQ(follower.durable().server().export_mapped_snapshot(),
              state_before);
    EXPECT_EQ(follower.acked_lsn(), acked_before);
    EXPECT_EQ(follower.replication().records_applied,
              stats_before.records_applied);
    EXPECT_EQ(follower.replication().records_skipped,
              stats_before.records_skipped);
    EXPECT_EQ(follower.replication().snapshots_restored,
              stats_before.snapshots_restored);

    // The promoted node keeps serving: a search answers from its state.
    const auto results = client.search(generator.make(1), 2);
    EXPECT_FALSE(results.empty());
}

// A plain (never-promoted) follower still replicates fine after the
// guard was added — the gate keys on role, not on pump history.
TEST_F(PromoteDuringPullTest, GuardDoesNotAffectARealFollower) {
    Node primary(store::PosixVfs::instance(), dir_ / "p");
    Node follower(store::PosixVfs::instance(), dir_ / "f",
                  NodeOptions{.role = Role::kFollower});
    net::MeteredTransport wire_p(primary, net::LinkProfile::loopback());
    MieClient client(wire_p, "ok-repo",
                     RepositoryKey::generate(to_bytes("ok-repo-key"), 64, 64,
                                             0.7978845608),
                     to_bytes("ok-user"));
    client.train_params.tree_branch = 4;
    client.train_params.tree_depth = 2;
    sim::FlickrLikeGenerator generator(
        sim::FlickrLikeParams{.num_classes = 2, .image_size = 32, .seed = 4});
    client.create_repository();
    client.update(generator.make(0));

    net::MeteredTransport pump_wire(primary, net::LinkProfile::loopback());
    Replicator replicator(follower, pump_wire);
    EXPECT_NO_THROW(replicator.sync());
    EXPECT_EQ(follower.durable().server().export_mapped_snapshot(),
              primary.durable().server().export_mapped_snapshot());
}

}  // namespace
}  // namespace mie::cluster
