// Cluster nodes hosted on the epoll reactor, end to end over real TCP.
//
// The in-process cluster tests pin the protocol; this suite pins the
// deployment shape: each replica is a cluster::Node behind its own
// GroupCommitter + ReactorServer, client traffic and the replication
// pump both ride net::TcpTransport, and failover is triggered by
// actually stopping the primary's server. Mutations on the primary still
// flow through group commit (Node implements BatchRequestHandler), while
// cluster control ops (kReplPull/kReplState/kPromote) and searches take
// the reactor's read path.
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
#include "mie/wire.hpp"
#include "net/tcp.hpp"
#include "reactor/reactor.hpp"
#include "sim/dataset.hpp"
#include "store/file.hpp"

namespace mie::cluster {
namespace {

namespace fs = std::filesystem;
using reactor::GroupCommitter;
using reactor::ReactorServer;

/// A node plus the reactor stack that serves it on 127.0.0.1.
struct HostedNode {
    HostedNode(const fs::path& dir, Role role)
        : node(store::PosixVfs::instance(), dir, NodeOptions{.role = role}),
          committer(node),
          server(node, &committer, is_mutating_request) {
        server.start();
    }

    ~HostedNode() {
        server.stop();
        committer.stop();
    }

    Node node;
    GroupCommitter committer;
    ReactorServer server;
};

class ClusterReactorTest : public ::testing::Test {
protected:
    ClusterReactorTest()
        : dir_(fs::temp_directory_path() /
               ("mie_cluster_reactor_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()) +
                "_" + std::to_string(::getpid()))) {}

    ~ClusterReactorTest() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    fs::path dir_;
};

TEST_F(ClusterReactorTest, ReplicationAndFailoverOverTcp) {
    auto primary = std::make_unique<HostedNode>(dir_ / "p", Role::kPrimary);
    HostedNode follower(dir_ / "f", Role::kFollower);

    net::TcpTransport to_primary("127.0.0.1", primary->server.port());
    net::TcpTransport to_follower("127.0.0.1", follower.server.port());
    ClusterClient cluster(
        std::vector<ShardEndpoints>{{&to_primary, &to_follower}});

    MieClient client(cluster, "repo-tcp",
                     RepositoryKey::generate(to_bytes("reactor-cluster"), 64,
                                             64, 0.7978845608),
                     to_bytes("user"));
    client.train_params.tree_branch = 4;
    client.train_params.tree_depth = 2;
    sim::FlickrLikeGenerator generator(sim::FlickrLikeParams{
        .num_classes = 2, .image_size = 48, .seed = 11});

    client.create_repository();
    for (const auto& object : generator.make_batch(0, 4)) {
        client.update(object);
    }
    client.train();
    // Primary mutations went through group commit, not the read path.
    EXPECT_EQ(primary->committer.stats().submitted, 6u);
    EXPECT_EQ(primary->committer.stats().errors, 0u);

    // Replication pump over its own TCP connection to the primary.
    net::TcpTransport repl_link("127.0.0.1", primary->server.port());
    Replicator repl(follower.node, repl_link);
    EXPECT_EQ(repl.sync(), 6u);
    EXPECT_EQ(follower.node.acked_lsn(),
              primary->node.durable().durability().last_lsn);
    EXPECT_EQ(follower.node.durable().server().export_mapped_snapshot(),
              primary->node.durable().server().export_mapped_snapshot());

    // Reads are served by either replica over TCP, byte-identically.
    const auto results = client.search(generator.make(1), 2);
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results.front().object_id, 1u);

    // Kill the primary for real: stop its server, drop the hosted stack.
    primary.reset();

    // The next mutation hits a dead endpoint; the ClusterClient promotes
    // the follower over TCP (kPromote on the read path) and replays the
    // enveloped request against it — accepted because the promoted node
    // now routes mutations through its own group committer.
    client.update(generator.make(100));
    EXPECT_TRUE(cluster.on_follower(0));
    EXPECT_EQ(cluster.stats().failovers, 1u);
    EXPECT_EQ(follower.node.role(), Role::kPrimary);
    EXPECT_GE(follower.committer.stats().submitted, 1u);

    // The promoted node serves searches over the new object.
    const auto post = client.search(generator.make(100), 1);
    ASSERT_FALSE(post.empty());
    EXPECT_EQ(post.front().object_id, 100u);
}

// A mutation sent straight to a follower over TCP (bypassing the
// ClusterClient) must not be applied: the role gate throws inside the
// group-commit path, the reactor drops that client's connection, and the
// follower's durable state is untouched.
TEST_F(ClusterReactorTest, FollowerRejectsDirectMutationOverTcp) {
    HostedNode follower(dir_ / "f", Role::kFollower);
    net::TcpTransport direct("127.0.0.1", follower.server.port());

    MieClient client(direct, "repo-tcp",
                     RepositoryKey::generate(to_bytes("reactor-cluster"), 64,
                                             64, 0.7978845608),
                     to_bytes("user"));
    EXPECT_THROW(client.create_repository(), net::TransportError);
    EXPECT_EQ(follower.node.durable().durability().records_logged, 0u);
    EXPECT_EQ(follower.committer.stats().errors, 1u);
}

}  // namespace
}  // namespace mie::cluster
