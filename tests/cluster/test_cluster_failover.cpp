// Cluster failover fault matrix.
//
// A two-shard cluster (each shard = primary + follower + WAL-shipping
// replicator) runs a mutating workload while the target shard's primary
// is killed mid-stream — at different workload positions, with the kill
// striking either before the primary saw the request (send kinds) or
// after it applied but before the client learned (recv kinds, the case
// only exactly-once machinery can save). The ClusterClient must exhaust
// its retries, promote the follower, and replay the in-flight mutation
// under the idempotency envelope.
//
// The oracle is an acked-operations shadow: every request bytes the
// client saw succeed is replayed into a per-shard shadow server. After
// failover the promoted follower's exported snapshot must equal its
// shadow EXACTLY — an operation acked once appears once, whether it was
// acked by the dead primary (and shipped), applied-but-unacked on the
// dead primary (and replayed fresh on the follower), or acked by the
// promoted follower directly.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cluster/client.hpp"
#include "cluster/node.hpp"
#include "cluster/replication.hpp"
#include "cluster/router.hpp"
#include "mie/client.hpp"
#include "mie/keys.hpp"
#include "mie/server.hpp"
#include "net/envelope.hpp"
#include "net/faulty.hpp"
#include "net/retry.hpp"
#include "sim/dataset.hpp"
#include "store/file.hpp"

namespace mie::cluster {
namespace {

namespace fs = std::filesystem;

using net::FaultKind;

constexpr std::uint32_t kTargetShard = 1;  // repo-a and repo-c live here

bool is_send_kind(FaultKind kind) {
    return kind == FaultKind::kDropSend || kind == FaultKind::kResetSend;
}

/// Records successfully acked requests (the shadow's input).
class AckedCapture final : public net::Transport {
public:
    explicit AckedCapture(net::Transport& inner) : inner_(inner) {}

    Bytes call(BytesView request) override {
        Bytes copy(request.begin(), request.end());
        Bytes response = inner_.call(copy);
        acked_.push_back(std::move(copy));
        last_response_ = response;
        return response;
    }

    const std::vector<Bytes>& acked() const { return acked_; }
    const Bytes& last_request() const { return acked_.back(); }
    const Bytes& last_response() const { return last_response_; }

private:
    net::Transport& inner_;
    std::vector<Bytes> acked_;
    Bytes last_response_;
};

/// Kills the primary behind `faulty` at its very next call: the kill
/// kind strikes first (send kinds on the send op, recv kinds on the recv
/// op — after the server applied), and every later send op resets, so
/// retries exhaust and the primary stays dead for good.
void arm_kill(net::FaultyTransport& faulty, FaultKind kind) {
    const std::uint64_t base = faulty.ops_issued();  // next call's send op
    faulty.schedule_fault(is_send_kind(kind) ? base : base + 1, kind);
    for (std::uint64_t op = base + 2; op < base + 100; op += 2) {
        faulty.schedule_fault(op, FaultKind::kResetSend);
    }
}

class ClusterFailoverTest : public ::testing::Test {
protected:
    ClusterFailoverTest()
        : dir_(fs::temp_directory_path() /
               ("mie_cluster_failover_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()) +
                "_" + std::to_string(::getpid()))) {}

    ~ClusterFailoverTest() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    static std::unique_ptr<MieClient> make_client(net::Transport& transport,
                                                  const std::string& repo) {
        auto client = std::make_unique<MieClient>(
            transport, repo,
            RepositoryKey::generate(to_bytes("failover-" + repo), 64, 64,
                                    0.7978845608),
            to_bytes("user-" + repo));
        client->train_params.tree_branch = 4;
        client->train_params.tree_depth = 2;
        return client;
    }

    /// One matrix cell: `kind` kills the target shard's primary at that
    /// shard's `kill_call`-th logical client call.
    void run_cell(FaultKind kind, std::size_t kill_call) {
        SCOPED_TRACE(std::string(net::fault_kind_name(kind)) +
                     " at shard-1 call " + std::to_string(kill_call));
        const fs::path cell =
            dir_ / (std::string(net::fault_kind_name(kind)) + "-" +
                    std::to_string(kill_call));

        // Shard nodes: primary + follower each, own directories.
        NodeOptions follower_options;
        follower_options.role = Role::kFollower;
        Node p0(store::PosixVfs::instance(), cell / "p0");
        Node p1(store::PosixVfs::instance(), cell / "p1");
        Node f0(store::PosixVfs::instance(), cell / "f0", follower_options);
        Node f1(store::PosixVfs::instance(), cell / "f1", follower_options);

        // Client stacks. Only shard 1's primary link gets the fault
        // injector; every endpoint retries transient faults first.
        net::MeteredTransport wire_p0(p0, net::LinkProfile::loopback());
        net::MeteredTransport wire_p1(p1, net::LinkProfile::loopback());
        net::FaultyTransport faulty_p1(wire_p1);
        net::MeteredTransport wire_f0(f0, net::LinkProfile::loopback());
        net::MeteredTransport wire_f1(f1, net::LinkProfile::loopback());
        const net::RetryPolicy policy{.max_attempts = 3};
        net::RetryingTransport retry_p0(wire_p0, policy);
        net::RetryingTransport retry_p1(faulty_p1, policy);
        net::RetryingTransport retry_f0(wire_f0, policy);
        net::RetryingTransport retry_f1(wire_f1, policy);
        for (net::RetryingTransport* t :
             {&retry_p0, &retry_p1, &retry_f0, &retry_f1}) {
            t->set_sleeper([](double) {});
        }

        ClusterClient cluster(
            {{&retry_p0, &retry_f0}, {&retry_p1, &retry_f1}});
        AckedCapture capture(cluster);

        // Replication pumps ride their own clean links to the primaries.
        net::MeteredTransport repl_wire0(p0, net::LinkProfile::loopback());
        net::MeteredTransport repl_wire1(p1, net::LinkProfile::loopback());
        Replicator repl0(f0, repl_wire0);
        Replicator repl1(f1, repl_wire1);

        // Acked-operations shadow, one per shard.
        MieServer shadow0, shadow1;
        net::DedupHandler shadow_dedup0(shadow0);
        net::DedupHandler shadow_dedup1(shadow1);

        const Router router(2);
        const std::vector<std::string> repos = {"repo-a", "repo-b", "repo-c",
                                                "repo-d"};
        std::vector<std::unique_ptr<MieClient>> clients;
        std::vector<sim::FlickrLikeGenerator> generators;
        for (std::size_t i = 0; i < repos.size(); ++i) {
            clients.push_back(make_client(capture, repos[i]));
            generators.emplace_back(sim::FlickrLikeParams{
                .num_classes = 2, .image_size = 48,
                .seed = 20 + static_cast<std::uint64_t>(i)});
        }

        std::size_t target_calls = 0;
        bool killed = false;
        const auto issue = [&](std::size_t repo_index,
                               const std::function<void()>& op) {
            const std::uint32_t shard = router.shard_of(repos[repo_index]);
            if (shard == kTargetShard && !killed &&
                target_calls == kill_call) {
                arm_kill(faulty_p1, kind);
                killed = true;  // the primary never comes back
            }
            const std::size_t before = capture.acked().size();
            op();  // may fail over inside the ClusterClient
            if (shard == kTargetShard) ++target_calls;
            for (std::size_t i = before; i < capture.acked().size(); ++i) {
                (shard == 0 ? shadow_dedup0 : shadow_dedup1)
                    .handle(capture.acked()[i]);
            }
            // Acked => replicated, while the shard's primary is alive.
            repl0.sync();
            if (!killed) repl1.sync();
        };

        // Interleaved workload: create, two updates, train — round-robin
        // across repositories so the kill lands between cross-shard ops.
        for (std::size_t r = 0; r < repos.size(); ++r) {
            issue(r, [&] { clients[r]->create_repository(); });
        }
        for (int object = 0; object < 2; ++object) {
            for (std::size_t r = 0; r < repos.size(); ++r) {
                issue(r, [&] {
                    clients[r]->update(generators[r].make(object));
                });
            }
        }
        for (std::size_t r = 0; r < repos.size(); ++r) {
            issue(r, [&] { clients[r]->train(); });
        }

        // The kill happened, failover promoted shard 1's follower, and
        // shard 0 never noticed anything.
        ASSERT_TRUE(killed);
        EXPECT_TRUE(cluster.on_follower(kTargetShard));
        EXPECT_FALSE(cluster.on_follower(0));
        EXPECT_EQ(cluster.stats().failovers, 1u);
        EXPECT_GE(faulty_p1.stats().faults_injected, 1u);
        EXPECT_EQ(f1.role(), Role::kPrimary);

        // Recovered cluster state == acked-operations shadow, exactly.
        EXPECT_EQ(p0.durable().server().export_mapped_snapshot(),
                  shadow0.export_mapped_snapshot());
        EXPECT_EQ(f1.durable().server().export_mapped_snapshot(),
                  shadow1.export_mapped_snapshot());
        // The healthy shard's follower also tracked every acked op.
        EXPECT_EQ(f0.durable().server().export_mapped_snapshot(),
                  shadow0.export_mapped_snapshot());

        // Ranked search after failover: served by the promoted follower,
        // byte-identical to the shadow's answer.
        const auto results = clients[0]->search(generators[0].make(1), 2);
        ASSERT_FALSE(results.empty());
        EXPECT_EQ(shadow1.handle(capture.last_request()),
                  capture.last_response());
    }

    fs::path dir_;
};

// Send kills: the request never reached the primary; the replayed
// envelope applies fresh on the promoted follower.
TEST_F(ClusterFailoverTest, ResetSendKillsAcrossWorkloadPositions) {
    for (const std::size_t position : {0u, 2u, 5u, 7u}) {
        run_cell(FaultKind::kResetSend, position);
    }
}

// Reset-recv kills: the primary APPLIED the mutation but the ack was
// lost — the exactly-once case. The follower never saw the record (the
// pump stops at the kill), so the client's replay applies it fresh; the
// shadow proves it applied exactly once.
TEST_F(ClusterFailoverTest, ResetRecvKillsAcrossWorkloadPositions) {
    for (const std::size_t position : {0u, 2u, 5u, 7u}) {
        run_cell(FaultKind::kResetRecv, position);
    }
}

// Drop-recv kills: same applied-but-unacked window, surfaced as timeouts
// instead of resets.
TEST_F(ClusterFailoverTest, DropRecvKillsAcrossWorkloadPositions) {
    for (const std::size_t position : {0u, 2u, 5u, 7u}) {
        run_cell(FaultKind::kDropRecv, position);
    }
}

// Losing BOTH replicas of a shard is not survivable: the client surfaces
// a typed TransportError instead of hanging or mis-routing.
TEST_F(ClusterFailoverTest, ShardWithBothReplicasDeadSurfacesError) {
    Node p1(store::PosixVfs::instance(), dir_ / "p1");
    Node f1(store::PosixVfs::instance(), dir_ / "f1",
            NodeOptions{.role = Role::kFollower});
    net::MeteredTransport wire_p1(p1, net::LinkProfile::loopback());
    net::MeteredTransport wire_f1(f1, net::LinkProfile::loopback());
    net::FaultyTransport faulty_p1(wire_p1);
    net::FaultyTransport faulty_f1(wire_f1);
    net::RetryingTransport retry_p1(faulty_p1,
                                    net::RetryPolicy{.max_attempts = 2});
    net::RetryingTransport retry_f1(faulty_f1,
                                    net::RetryPolicy{.max_attempts = 2});
    retry_p1.set_sleeper([](double) {});
    retry_f1.set_sleeper([](double) {});

    // Single-shard cluster: every repo routes to shard 0 here.
    ClusterClient cluster(
        std::vector<ShardEndpoints>{{&retry_p1, &retry_f1}});
    arm_kill(faulty_p1, FaultKind::kResetSend);
    arm_kill(faulty_f1, FaultKind::kResetSend);

    auto client = make_client(cluster, "repo-a");
    EXPECT_THROW(client->create_repository(), net::TransportError);
    EXPECT_FALSE(cluster.on_follower(0));
}

}  // namespace
}  // namespace mie::cluster
