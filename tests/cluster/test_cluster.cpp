// Cluster subsystem tests: deterministic HKDF routing (golden vectors),
// deterministic scatter/gather merge (bitwise-equal to a single-node run
// over the union of repositories), WAL-shipping replication (record
// batches, snapshot bootstrap after checkpoint truncation, promote),
// crash/re-pull dedup on the follower, and the MIESNAP bootstrap image
// (byte-identical follower after post-TRAIN updates, bad-image rejection,
// durability across a restart).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/client.hpp"
#include "cluster/node.hpp"
#include "cluster/replication.hpp"
#include "cluster/router.hpp"
#include "index/snapshot.hpp"
#include "mie/client.hpp"
#include "mie/keys.hpp"
#include "mie/wire.hpp"
#include "net/envelope.hpp"
#include "net/message.hpp"
#include "sim/dataset.hpp"
#include "store/file.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"

namespace mie::cluster {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

TEST(RouterTest, RejectsZeroShards) {
    EXPECT_THROW(Router(0), std::invalid_argument);
}

// Golden vectors pin the routing function forever: HKDF(ikm = repo_id,
// info = "mie/cluster/route/v1"), first 8 bytes little-endian. A change
// to any of these values silently migrates every repository in every
// deployed cluster — this test makes that loud instead.
TEST(RouterTest, GoldenRoutingVectors) {
    struct Vector {
        const char* repo_id;
        std::uint64_t digest;
        std::uint32_t shard_of_2;
        std::uint32_t shard_of_4;
    };
    const Vector vectors[] = {
        {"repo-a", 0xcf2a35eca4c71501ull, 1, 1},
        {"repo-b", 0x50c7a23765401240ull, 0, 0},
        {"repo-c", 0xddcd4d6879580c09ull, 1, 1},
        {"repo-d", 0x8ae27b84d52af0ecull, 0, 0},
        {"repo-e", 0x005806d439f0742cull, 0, 0},
        {"repo-f", 0x356245d0ae08371cull, 0, 0},
        {"", 0x47e2a1b6ffbd286aull, 0, 2},
        {"photos/2026", 0x741bb4909cd8d935ull, 1, 1},
        {"user-42/voice-memos", 0x9ad8c389778c6eceull, 0, 2},
    };
    const Router two(2);
    const Router four(4);
    for (const Vector& v : vectors) {
        SCOPED_TRACE(v.repo_id);
        EXPECT_EQ(Router::routing_digest(v.repo_id), v.digest);
        EXPECT_EQ(two.shard_of(v.repo_id), v.shard_of_2);
        EXPECT_EQ(four.shard_of(v.repo_id), v.shard_of_4);
    }
}

// Property extension of the golden vectors: for 10k seeded-random repo
// ids, (1) the digest alone determines placement at EVERY shard count
// 1..64 (shard_of == digest % n — resharding is a pure modulus change,
// no per-count salt that would silently remap ids), and (2) the whole
// digest population is pinned by one aggregate CRC-32C, a golden vector
// too large to list. If the routing KDF changes, this fails loudly for
// the entire id space, not just nine handpicked names.
TEST(RouterTest, DigestsStableAcrossShardCountsForRandomIdPopulation) {
    constexpr std::size_t kNumIds = 10'000;
    constexpr std::uint32_t kPinnedDigestCrc = 0xbdd45a28u;

    SplitMix64 rng(0x520f7e5u);
    std::vector<Router> routers;
    routers.reserve(64);
    for (std::uint32_t n = 1; n <= 64; ++n) routers.emplace_back(n);

    std::uint32_t crc = crc32c_init();
    for (std::size_t i = 0; i < kNumIds; ++i) {
        // Mixed-shape ids: plain counters, hex-ish, path-like.
        const std::uint64_t noise = rng();
        std::string id;
        switch (i % 3) {
            case 0: id = "repo-" + std::to_string(noise); break;
            case 1: id = "u" + std::to_string(noise % 100'000) + "/photos/" +
                         std::to_string(i); break;
            default: id = std::string("fleet:") + std::to_string(i) + ":" +
                          std::to_string(noise % 997); break;
        }
        const std::uint64_t digest = Router::routing_digest(id);
        for (std::uint32_t n = 1; n <= 64; ++n) {
            ASSERT_EQ(routers[n - 1].shard_of(id), digest % n)
                << id << " at " << n << " shards";
        }
        std::uint8_t le[8];
        for (int b = 0; b < 8; ++b) {
            le[b] = static_cast<std::uint8_t>(digest >> (8 * b));
        }
        crc = crc32c_update(crc, BytesView(le, 8));
    }
    EXPECT_EQ(crc32c_final(crc), kPinnedDigestCrc)
        << "routing digests drifted for the 10k-id population";
}

TEST(RouterTest, PlacementIsStableAndCoversEveryShard) {
    const Router router(4);
    std::set<std::uint32_t> hit;
    for (int i = 0; i < 100; ++i) {
        const std::string id = "repository-" + std::to_string(i);
        const std::uint32_t shard = router.shard_of(id);
        ASSERT_LT(shard, 4u);
        EXPECT_EQ(shard, router.shard_of(id));  // stable per id
        EXPECT_EQ(shard, Router::routing_digest(id) % 4);
        hit.insert(shard);
    }
    EXPECT_EQ(hit.size(), 4u);  // 100 ids must spread over all 4 shards
}

// ---------------------------------------------------------------------------
// merge_ranked
// ---------------------------------------------------------------------------

ClusterSearchResult make_result(std::string repo, std::uint64_t id,
                                double score) {
    ClusterSearchResult result;
    result.repo_id = std::move(repo);
    result.object_id = id;
    result.score = score;
    return result;
}

TEST(MergeRankedTest, OrdersByScoreThenRepoThenObjectId) {
    // Per-repo lists arrive server-ordered: score desc, object id asc.
    std::vector<std::vector<ClusterSearchResult>> lists;
    lists.push_back({make_result("beta", 1, 0.9), make_result("beta", 2, 0.5),
                     make_result("beta", 9, 0.5)});
    lists.push_back(
        {make_result("alpha", 7, 0.9), make_result("alpha", 3, 0.5)});

    const auto merged = merge_ranked(lists, 10);
    ASSERT_EQ(merged.size(), 5u);
    EXPECT_EQ(merged[0].repo_id, "alpha");  // 0.9 tie: repo id breaks it
    EXPECT_EQ(merged[0].object_id, 7u);
    EXPECT_EQ(merged[1].repo_id, "beta");
    EXPECT_EQ(merged[1].object_id, 1u);
    EXPECT_EQ(merged[2].repo_id, "alpha");  // 0.5 tie: alpha/3 first
    EXPECT_EQ(merged[2].object_id, 3u);
    EXPECT_EQ(merged[3].object_id, 2u);     // beta tie: object id asc
    EXPECT_EQ(merged[4].object_id, 9u);

    // Any permutation of the input lists merges identically.
    std::vector<std::vector<ClusterSearchResult>> swapped = {lists[1],
                                                             lists[0]};
    const auto remerged = merge_ranked(swapped, 10);
    ASSERT_EQ(remerged.size(), merged.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(remerged[i].repo_id, merged[i].repo_id);
        EXPECT_EQ(remerged[i].object_id, merged[i].object_id);
    }

    // top_k truncates after the deterministic order is fixed.
    EXPECT_EQ(merge_ranked(lists, 2).size(), 2u);
    EXPECT_EQ(merge_ranked(lists, 2)[1].object_id, 1u);
}

// ---------------------------------------------------------------------------
// Shared fixtures and helpers for node-level tests
// ---------------------------------------------------------------------------

/// Transport decorator recording every request (and the last response):
/// the recorded bytes drive the single-node reference replay and the
/// scatter/gather queries.
class CaptureTransport final : public net::Transport {
public:
    explicit CaptureTransport(net::Transport& inner) : inner_(inner) {}

    Bytes call(BytesView request) override {
        Bytes copy(request.begin(), request.end());
        Bytes response = inner_.call(copy);
        requests_.push_back(std::move(copy));
        last_response_ = response;
        return response;
    }

    const std::vector<Bytes>& requests() const { return requests_; }
    const Bytes& last_request() const { return requests_.back(); }
    const Bytes& last_response() const { return last_response_; }

private:
    net::Transport& inner_;
    std::vector<Bytes> requests_;
    Bytes last_response_;
};

class ClusterTest : public ::testing::Test {
protected:
    ClusterTest()
        : dir_(fs::temp_directory_path() /
               ("mie_cluster_test_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()) +
                "_" + std::to_string(::getpid()))) {}

    ~ClusterTest() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    fs::path node_dir(const std::string& name) const { return dir_ / name; }

    static std::unique_ptr<MieClient> make_client(net::Transport& transport,
                                                  const std::string& repo) {
        auto client = std::make_unique<MieClient>(
            transport, repo,
            RepositoryKey::generate(to_bytes("cluster-" + repo), 64, 64,
                                    0.7978845608),
            to_bytes("user-" + repo));
        client->train_params.tree_branch = 4;
        client->train_params.tree_depth = 2;
        return client;
    }

    /// create + `objects` updates + train, with a per-repo generator.
    static void run_repo_workload(MieClient& client, std::uint64_t seed,
                                  int objects) {
        sim::FlickrLikeGenerator gen(sim::FlickrLikeParams{
            .num_classes = 2, .image_size = 48, .seed = seed});
        client.create_repository();
        for (int i = 0; i < objects; ++i) client.update(gen.make(i));
        client.train();
    }

    fs::path dir_;
};

/// The full MIESNAP image: objects AND trained trees and indexes.
Bytes snapshot_of(const Node& node) {
    return node.durable().server().export_mapped_snapshot();
}

/// Aggressive checkpointing + tiny segments, so a from-zero follower has
/// to bootstrap from a snapshot.
NodeOptions truncating_options() {
    NodeOptions options;
    options.storage.checkpoint_every_bytes = 1024;
    options.storage.wal.segment_bytes = 4096;
    return options;
}

NodeOptions follower_options() {
    NodeOptions options;
    options.role = Role::kFollower;
    return options;
}

/// Every file under `dir` (non-recursive) with its bytes; empty when the
/// directory does not exist.
std::map<std::string, Bytes> files_in(const fs::path& dir) {
    std::map<std::string, Bytes> files;
    if (!fs::exists(dir)) return files;
    for (const auto& entry : fs::directory_iterator(dir)) {
        files[entry.path().filename().string()] =
            store::PosixVfs::instance().read_file(entry.path());
    }
    return files;
}

/// Transport decorator that cuts every response in half.
class TruncatingTransport final : public net::Transport {
public:
    explicit TruncatingTransport(net::Transport& inner) : inner_(inner) {}

    Bytes call(BytesView request) override {
        Bytes response = inner_.call(request);
        response.resize(response.size() / 2);
        return response;
    }

private:
    net::Transport& inner_;
};

// ---------------------------------------------------------------------------
// Scatter/gather vs single node
// ---------------------------------------------------------------------------

TEST_F(ClusterTest, ScatterGatherSearchMatchesSingleNodeBitwise) {
    // Two shards; golden vectors place repo-a/repo-c on shard 1 and
    // repo-b/d/e/f on shard 0, so both shards serve real traffic.
    Node shard0(store::PosixVfs::instance(), node_dir("s0"));
    Node shard1(store::PosixVfs::instance(), node_dir("s1"));
    net::MeteredTransport wire0(shard0, net::LinkProfile::loopback());
    net::MeteredTransport wire1(shard1, net::LinkProfile::loopback());
    ClusterClient cluster({{&wire0, nullptr}, {&wire1, nullptr}});
    CaptureTransport capture(cluster);

    const std::vector<std::string> repos = {"repo-a", "repo-b", "repo-c",
                                            "repo-d", "repo-e", "repo-f"};
    std::vector<RepoSearch> queries;
    for (std::size_t i = 0; i < repos.size(); ++i) {
        auto client = make_client(capture, repos[i]);
        run_repo_workload(*client, /*seed=*/10 + i, /*objects=*/3);
        // Issue the per-repo ranked search once to capture its exact
        // request bytes; the scatter/gather below reuses them verbatim.
        sim::FlickrLikeGenerator gen(sim::FlickrLikeParams{
            .num_classes = 2, .image_size = 48, .seed = 10 + i});
        const auto results = client->search(gen.make(1), 3);
        ASSERT_FALSE(results.empty()) << repos[i];
        queries.push_back(RepoSearch{repos[i], capture.last_request()});
    }

    // Both shards hold repositories (golden placement: b on 0, a on 1).
    EXPECT_EQ(shard0.durable().server().stats("repo-b").num_objects, 3u);
    EXPECT_EQ(shard1.durable().server().stats("repo-a").num_objects, 3u);

    // Single-node reference: replay the exact same request bytes, in the
    // same order, against ONE node holding the union of repositories.
    Node reference(store::PosixVfs::instance(), node_dir("ref"));
    for (const Bytes& request : capture.requests()) {
        reference.handle(request);
    }

    const std::size_t top_k = 10;
    const auto cluster_results = cluster.search_union(queries, top_k);
    ASSERT_FALSE(cluster_results.empty());
    EXPECT_EQ(cluster.stats().scatter_queries, repos.size());

    std::vector<std::vector<ClusterSearchResult>> reference_lists;
    for (const RepoSearch& query : queries) {
        reference_lists.push_back(parse_search_response(
            query.repo_id, reference.handle(query.request)));
    }
    const auto reference_results =
        merge_ranked(std::move(reference_lists), top_k);

    // Bitwise equality: same ids, same blobs, same score BITS.
    ASSERT_EQ(cluster_results.size(), reference_results.size());
    std::set<std::string> repos_in_results;
    for (std::size_t i = 0; i < cluster_results.size(); ++i) {
        SCOPED_TRACE("result " + std::to_string(i));
        EXPECT_EQ(cluster_results[i].repo_id, reference_results[i].repo_id);
        EXPECT_EQ(cluster_results[i].object_id,
                  reference_results[i].object_id);
        EXPECT_EQ(std::memcmp(&cluster_results[i].score,
                              &reference_results[i].score, sizeof(double)),
                  0);
        EXPECT_EQ(cluster_results[i].encrypted_object,
                  reference_results[i].encrypted_object);
        repos_in_results.insert(cluster_results[i].repo_id);
    }
    EXPECT_GT(repos_in_results.size(), 1u);  // a real cross-repo merge
}

TEST_F(ClusterTest, ClusterClientRoutesByRepositoryId) {
    Node shard0(store::PosixVfs::instance(), node_dir("s0"));
    Node shard1(store::PosixVfs::instance(), node_dir("s1"));
    net::MeteredTransport wire0(shard0, net::LinkProfile::loopback());
    net::MeteredTransport wire1(shard1, net::LinkProfile::loopback());
    ClusterClient cluster({{&wire0, nullptr}, {&wire1, nullptr}});

    auto client_b = make_client(cluster, "repo-b");  // shard 0
    auto client_a = make_client(cluster, "repo-a");  // shard 1
    client_b->create_repository();
    client_a->create_repository();

    EXPECT_NO_THROW(shard0.durable().server().stats("repo-b"));
    EXPECT_THROW(shard0.durable().server().stats("repo-a"),
                 std::invalid_argument);
    EXPECT_NO_THROW(shard1.durable().server().stats("repo-a"));
    EXPECT_THROW(shard1.durable().server().stats("repo-b"),
                 std::invalid_argument);
    EXPECT_EQ(cluster.shard_of("repo-b"), 0u);
    EXPECT_EQ(cluster.shard_of("repo-a"), 1u);

    // Cluster control ops carry no repository id and are not routable.
    net::MessageWriter promote;
    promote.write_u8(static_cast<std::uint8_t>(ClusterOp::kPromote));
    EXPECT_THROW(cluster.call(promote.take()), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Replication: WAL shipping, state, promote
// ---------------------------------------------------------------------------

TEST_F(ClusterTest, ReplicationShipsWalAndFollowerMatchesPrimary) {
    Node primary(store::PosixVfs::instance(), node_dir("primary"));
    Node follower(store::PosixVfs::instance(), node_dir("follower"),
                  follower_options());

    net::MeteredTransport client_wire(primary, net::LinkProfile::loopback());
    CaptureTransport capture(client_wire);
    auto client = make_client(capture, "repo-a");
    run_repo_workload(*client, /*seed=*/3, /*objects=*/4);

    net::MeteredTransport repl_wire(primary, net::LinkProfile::loopback());
    Replicator replicator(follower, repl_wire);
    const std::size_t shipped = replicator.sync();
    EXPECT_EQ(shipped, 6u);  // create + 4 updates + train

    EXPECT_EQ(follower.acked_lsn(), primary.durable().durability().last_lsn);
    EXPECT_EQ(snapshot_of(follower), snapshot_of(primary));
    // The follower re-logged every shipped record into its own WAL.
    EXPECT_EQ(follower.durable().durability().records_logged, 6u);

    // kReplState over the wire reports both sides correctly.
    net::MessageWriter state_request;
    state_request.write_u8(static_cast<std::uint8_t>(ClusterOp::kReplState));
    const Bytes state = follower.handle(state_request.take());
    net::MessageReader reader(state);
    EXPECT_EQ(reader.read_u8(), static_cast<std::uint8_t>(Role::kFollower));
    EXPECT_EQ(reader.read_u64(), 6u);  // local last_lsn
    EXPECT_EQ(reader.read_u64(), 6u);  // acked replication offset

    // A caught-up pump is a no-op.
    const Replicator::PumpResult idle = replicator.pump();
    EXPECT_EQ(idle.records_applied, 0u);
    EXPECT_TRUE(idle.caught_up);

    // Reads are served by the follower, bitwise-identically; mutations
    // are refused until promotion.
    sim::FlickrLikeGenerator gen(sim::FlickrLikeParams{
        .num_classes = 2, .image_size = 48, .seed = 3});
    client->search(gen.make(1), 2);
    const Bytes search_request = capture.last_request();
    const Bytes primary_response = capture.last_response();
    EXPECT_EQ(follower.handle(search_request), primary_response);
    // A client mutation (the captured enveloped create) is refused even
    // though its envelope sits in the follower's replay cache: the role
    // gate comes first, and failover handles redirection.
    EXPECT_THROW(follower.handle(capture.requests().front()),
                 NotPrimaryError);

    // Promote over the wire; the follower then accepts mutations.
    net::MeteredTransport follower_wire(follower,
                                        net::LinkProfile::loopback());
    net::MessageWriter promote;
    promote.write_u8(static_cast<std::uint8_t>(ClusterOp::kPromote));
    const Bytes ack = follower_wire.call(promote.take());
    ASSERT_EQ(ack.size(), 1u);
    EXPECT_EQ(ack[0], 1u);
    EXPECT_EQ(follower.role(), Role::kPrimary);
    auto failover_client = make_client(follower_wire, "repo-a");
    sim::FlickrLikeGenerator more(sim::FlickrLikeParams{
        .num_classes = 2, .image_size = 48, .seed = 9});
    failover_client->update(more.make(41));  // does not throw
}

TEST_F(ClusterTest, SnapshotBootstrapAfterCheckpointTruncation) {
    // By the end of the workload the primary's log head has been
    // truncated away, so a from-zero follower MUST bootstrap via snapshot.
    Node primary(store::PosixVfs::instance(), node_dir("primary"),
                 truncating_options());

    net::MeteredTransport client_wire(primary, net::LinkProfile::loopback());
    auto client = make_client(client_wire, "repo-a");
    run_repo_workload(*client, /*seed=*/5, /*objects=*/6);
    ASSERT_GT(primary.durable().oldest_log_lsn(), 1u)
        << "workload too small to truncate the log head";

    Node follower(store::PosixVfs::instance(), node_dir("follower"),
                  follower_options());
    net::MeteredTransport repl_wire(primary, net::LinkProfile::loopback());
    Replicator replicator(follower, repl_wire);

    const Replicator::PumpResult first = replicator.pump();
    EXPECT_TRUE(first.restored_snapshot);
    EXPECT_GT(first.acked_lsn, 0u);
    EXPECT_EQ(follower.replication().snapshots_restored, 1u);
    replicator.sync();
    EXPECT_EQ(snapshot_of(follower), snapshot_of(primary));

    // Incremental shipping still works after the bootstrap.
    sim::FlickrLikeGenerator gen(sim::FlickrLikeParams{
        .num_classes = 2, .image_size = 48, .seed = 5});
    client->update(gen.make(77));
    const std::size_t shipped = replicator.sync();
    EXPECT_GE(shipped, 1u);
    EXPECT_EQ(snapshot_of(follower), snapshot_of(primary));
    EXPECT_EQ(follower.acked_lsn(), primary.durable().durability().last_lsn);
}

// ---------------------------------------------------------------------------
// Snapshot bootstrap from the MIESNAP image
// ---------------------------------------------------------------------------

class SnapshotBootstrapTest : public ClusterTest {
protected:
    /// Runs create + 8 updates + TRAIN on `primary`, then post-TRAIN
    /// UPDATEs and a REMOVE, and checks that all of them were truncated
    /// into a checkpoint. Fills searches_ with one exact and one probed
    /// (P=4) SEARCH request, captured as the client sent them.
    void run_post_train_workload(Node& primary) {
        net::MeteredTransport wire(primary, net::LinkProfile::loopback());
        CaptureTransport capture(wire);
        auto client = make_client(capture, "repo-a");
        // 8 root cells, so a P=4 probe really skips cells.
        client->train_params.tree_branch = 8;
        run_repo_workload(*client, /*seed=*/7, /*objects=*/8);

        sim::FlickrLikeGenerator gen(sim::FlickrLikeParams{
            .num_classes = 2, .image_size = 48, .seed = 8});
        client->update(gen.make(100));  // indexed into the trained trees
        client->remove(2);
        const store::Lsn remove_lsn = primary.durable().durability().last_lsn;
        client->update(gen.make(101));
        client->update(gen.make(102));
        ASSERT_GT(primary.durable().oldest_log_lsn(), remove_lsn)
            << "post-TRAIN records were not truncated into a checkpoint";

        const sim::MultimodalObject query = gen.make(100);
        client->search(query, 5);
        searches_.push_back(capture.last_request());
        client->search_probes = 4;
        client->search(query, 5);
        searches_.push_back(capture.last_request());
    }

    std::vector<Bytes> replies_of(Node& node) const {
        std::vector<Bytes> replies;
        for (const Bytes& request : searches_) {
            replies.push_back(node.handle(request));
        }
        return replies;
    }

    std::vector<Bytes> searches_;
};

// A follower bootstrapped after post-TRAIN updates keeps the primary's
// trees, which were trained before those updates: its trees, indexes and
// search replies match the primary's byte for byte. A bootstrap that
// retrained over the current object set would diverge here.
TEST_F(SnapshotBootstrapTest, FollowerAfterPostTrainUpdatesAnswersLikePrimary) {
    Node primary(store::PosixVfs::instance(), node_dir("primary"),
                 truncating_options());
    run_post_train_workload(primary);

    Node follower(store::PosixVfs::instance(), node_dir("follower"),
                  follower_options());
    net::MeteredTransport repl_wire(primary, net::LinkProfile::loopback());
    Replicator replicator(follower, repl_wire);
    EXPECT_TRUE(replicator.pump().restored_snapshot);
    replicator.sync();
    EXPECT_EQ(follower.replication().snapshots_restored, 1u);
    EXPECT_EQ(follower.acked_lsn(), primary.durable().durability().last_lsn);

    EXPECT_EQ(replies_of(follower), replies_of(primary));
    EXPECT_EQ(snapshot_of(follower), snapshot_of(primary));
}

TEST_F(SnapshotBootstrapTest, BadImageIsRejectedAndChangesNothing) {
    Node primary(store::PosixVfs::instance(), node_dir("primary"),
                 truncating_options());
    run_post_train_workload(primary);

    // The follower bootstraps once, so it has state, a published
    // snapshot and a checkpoint that a bad image must not disturb.
    const fs::path follower_dir = node_dir("follower");
    Node follower(store::PosixVfs::instance(), follower_dir,
                  follower_options());
    net::MeteredTransport repl_wire(primary, net::LinkProfile::loopback());
    Replicator replicator(follower, repl_wire);
    replicator.sync();
    ASSERT_EQ(follower.replication().snapshots_restored, 1u);

    // The primary moves on (and truncates), so the next pull is a
    // snapshot reply carrying a different image.
    net::MeteredTransport wire(primary, net::LinkProfile::loopback());
    auto client = make_client(wire, "repo-b");
    run_repo_workload(*client, /*seed=*/9, /*objects=*/4);
    ASSERT_GT(primary.durable().oldest_log_lsn(), follower.acked_lsn() + 1);
    const Bytes image = primary.durable().replication_snapshot().snapshot;

    const std::uint64_t acked_before = follower.acked_lsn();
    const auto restored_before = follower.replication().snapshots_restored;
    const auto snapshots_before = files_in(follower_dir / "snapshots");
    const auto checkpoints_before = files_in(follower_dir / "checkpoints");
    ASSERT_FALSE(snapshots_before.empty());
    ASSERT_FALSE(checkpoints_before.empty());
    const std::vector<Bytes> replies_before = replies_of(follower);
    const Bytes state_before = snapshot_of(follower);
    const auto expect_untouched = [&] {
        EXPECT_EQ(follower.acked_lsn(), acked_before);
        EXPECT_EQ(follower.replication().snapshots_restored, restored_before);
        EXPECT_EQ(files_in(follower_dir / "snapshots"), snapshots_before);
        EXPECT_EQ(files_in(follower_dir / "checkpoints"), checkpoints_before);
        EXPECT_EQ(replies_of(follower), replies_before);
        EXPECT_EQ(snapshot_of(follower), state_before);
    };

    const Bytes truncated(image.begin(), image.end() - 16);
    EXPECT_THROW(follower.restore_replication_snapshot(1000, truncated),
                 index::SnapshotError);
    expect_untouched();

    // A flip inside the first section body: only its CRC can catch it.
    Bytes flipped = image;
    flipped[index::kSnapshotHeaderSize + 8] ^= 0x01;
    EXPECT_THROW(follower.restore_replication_snapshot(1000, flipped),
                 index::SnapshotError);
    expect_untouched();

    // A kReplPull snapshot reply cut short on the wire.
    TruncatingTransport cut_wire(repl_wire);
    Replicator cut_replicator(follower, cut_wire);
    EXPECT_ANY_THROW(cut_replicator.pump());
    expect_untouched();

    // The intact reply still bootstraps the follower.
    EXPECT_TRUE(replicator.pump().restored_snapshot);
    replicator.sync();
    EXPECT_EQ(replies_of(follower), replies_of(primary));
    EXPECT_EQ(snapshot_of(follower), snapshot_of(primary));
}

TEST_F(SnapshotBootstrapTest, InstalledImageSurvivesRestart) {
    Node primary(store::PosixVfs::instance(), node_dir("primary"),
                 truncating_options());
    run_post_train_workload(primary);

    const fs::path follower_dir = node_dir("follower");
    {
        Node follower(store::PosixVfs::instance(), follower_dir,
                      follower_options());
        net::MeteredTransport repl_wire(primary,
                                        net::LinkProfile::loopback());
        Replicator replicator(follower, repl_wire);
        EXPECT_TRUE(replicator.pump().restored_snapshot);
        replicator.sync();
    }

    Node reopened(store::PosixVfs::instance(), follower_dir,
                  follower_options());
    EXPECT_TRUE(reopened.durable().durability().recovered_from_checkpoint);
    EXPECT_EQ(reopened.acked_lsn(), primary.durable().durability().last_lsn);
    EXPECT_EQ(replies_of(reopened), replies_of(primary));
    EXPECT_EQ(snapshot_of(reopened), snapshot_of(primary));
}

TEST_F(ClusterTest, FollowerCrashRepullIsDeduplicated) {
    Node primary(store::PosixVfs::instance(), node_dir("primary"));
    net::MeteredTransport client_wire(primary, net::LinkProfile::loopback());
    auto client = make_client(client_wire, "repo-a");
    run_repo_workload(*client, /*seed=*/4, /*objects=*/4);

    const fs::path follower_dir = node_dir("follower");
    {
        NodeOptions options;
        options.role = Role::kFollower;
        Node follower(store::PosixVfs::instance(), follower_dir, options);
        net::MeteredTransport repl_wire(primary,
                                        net::LinkProfile::loopback());
        Replicator replicator(follower, repl_wire);
        replicator.sync();
        EXPECT_EQ(snapshot_of(follower), snapshot_of(primary));
    }
    // Crash model: the follower applied and locally logged everything,
    // but died before its replication offset reached disk. Deleting the
    // offset file forces the worst case — a full re-pull from zero.
    fs::remove(follower_dir / "repl-offset");

    NodeOptions options;
    options.role = Role::kFollower;
    Node reopened(store::PosixVfs::instance(), follower_dir, options);
    EXPECT_EQ(reopened.acked_lsn(), 0u);
    // Recovery already replayed the local WAL, so state is intact...
    EXPECT_EQ(snapshot_of(reopened), snapshot_of(primary));

    net::MeteredTransport repl_wire(primary, net::LinkProfile::loopback());
    Replicator replicator(reopened, repl_wire);
    const std::size_t redelivered = replicator.sync();
    EXPECT_EQ(redelivered, 6u);  // every record re-pulled...
    // ...but every re-apply was suppressed by the rebuilt replay cache:
    // exactly-once held, nothing was logged twice.
    EXPECT_EQ(reopened.durable().durability().replays_suppressed, 6u);
    EXPECT_EQ(reopened.durable().durability().records_logged, 0u);
    EXPECT_EQ(snapshot_of(reopened), snapshot_of(primary));
    EXPECT_EQ(reopened.acked_lsn(), primary.durable().durability().last_lsn);
}

TEST_F(ClusterTest, RetryAfterFailoverIsDeduplicated) {
    Node primary(store::PosixVfs::instance(), node_dir("primary"));
    Node follower(store::PosixVfs::instance(), node_dir("follower"),
                  follower_options());

    net::MeteredTransport client_wire(primary, net::LinkProfile::loopback());
    CaptureTransport capture(client_wire);
    auto client = make_client(capture, "repo-a");
    run_repo_workload(*client, /*seed=*/6, /*objects=*/3);
    const Bytes last_mutation = capture.last_request();  // enveloped train
    const Bytes original_response = capture.last_response();
    ASSERT_TRUE(net::parse_envelope(last_mutation).has_value());

    net::MeteredTransport repl_wire(primary, net::LinkProfile::loopback());
    Replicator replicator(follower, repl_wire);
    replicator.sync();
    follower.promote();

    // The client's retry of an already-applied mutation lands on the
    // promoted follower: answered from the shipped replay cache, state
    // untouched, response byte-identical to the primary's original.
    const Bytes before = snapshot_of(follower);
    const std::size_t suppressed_before =
        follower.durable().durability().replays_suppressed;
    const Bytes replayed = follower.handle(last_mutation);
    EXPECT_EQ(replayed, original_response);
    EXPECT_EQ(follower.durable().durability().replays_suppressed,
              suppressed_before + 1);
    EXPECT_EQ(snapshot_of(follower), before);
}

}  // namespace
}  // namespace mie::cluster
