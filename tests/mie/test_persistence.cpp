// Cloud-server persistence tests: snapshots survive restarts with search
// behaviour intact (the MIESNAP image carries trained trees and indexes).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "mie/client.hpp"
#include "mie/persistence.hpp"
#include "mie/server.hpp"
#include "mie/wire.hpp"
#include "sim/dataset.hpp"

namespace mie {
namespace {

/// Forwards to a server and keeps a copy of every SEARCH request.
class SearchRecorder final : public net::RequestHandler {
public:
    explicit SearchRecorder(net::RequestHandler& inner) : inner_(inner) {}

    Bytes handle(BytesView request) override {
        if (!request.empty() &&
            static_cast<MieOp>(request[0]) == MieOp::kSearch) {
            searches.emplace_back(request.begin(), request.end());
        }
        return inner_.handle(request);
    }

    std::vector<Bytes> searches;

private:
    net::RequestHandler& inner_;
};

class PersistenceTest : public ::testing::Test {
protected:
    PersistenceTest()
        : key_(RepositoryKey::generate(to_bytes("persist"), 64, 64,
                                       0.7978845608)),
          generator_(sim::FlickrLikeParams{.num_classes = 4,
                                           .image_size = 48,
                                           .seed = 71}),
          // Keyed by test name + pid: ctest runs each case as its own
          // process in parallel, so a shared path would collide.
          path_(std::filesystem::temp_directory_path() /
                ("mie_persistence_test_" +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name()) +
                 "_" + std::to_string(::getpid()) + ".snap")) {}

    ~PersistenceTest() override {
        std::error_code ec;
        std::filesystem::remove(path_, ec);
    }

    RepositoryKey key_;
    sim::FlickrLikeGenerator generator_;
    std::filesystem::path path_;
};

TEST_F(PersistenceTest, SnapshotRoundtripPreservesSearch) {
    MieServer original;
    {
        net::MeteredTransport transport(original,
                                        net::LinkProfile::loopback());
        MieClient client(transport, "repo", key_, to_bytes("u"));
        client.train_params.tree_branch = 5;
        client.train_params.tree_depth = 2;
        client.create_repository();
        for (const auto& object : generator_.make_batch(0, 10)) {
            client.update(object);
        }
        client.train();
    }
    save_server_snapshot(original, path_);

    // "Restart": a fresh server restored from disk.
    MieServer restored;
    load_server_snapshot(restored, path_);

    const auto before = original.stats("repo");
    const auto after = restored.stats("repo");
    EXPECT_EQ(after.num_objects, before.num_objects);
    EXPECT_EQ(after.trained, before.trained);
    EXPECT_EQ(after.visual_words, before.visual_words);
    EXPECT_EQ(after.image_index_terms, before.image_index_terms);
    EXPECT_EQ(after.text_index_terms, before.text_index_terms);

    // Identical search results through both servers.
    net::MeteredTransport t1(original, net::LinkProfile::loopback());
    net::MeteredTransport t2(restored, net::LinkProfile::loopback());
    MieClient c1(t1, "repo", key_, to_bytes("u"));
    MieClient c2(t2, "repo", key_, to_bytes("u"));
    for (std::uint64_t id = 0; id < 6; ++id) {
        const auto r1 = c1.search(generator_.make(id), 4);
        const auto r2 = c2.search(generator_.make(id), 4);
        ASSERT_EQ(r1.size(), r2.size()) << id;
        for (std::size_t i = 0; i < r1.size(); ++i) {
            EXPECT_EQ(r1[i].object_id, r2[i].object_id) << id;
            EXPECT_DOUBLE_EQ(r1[i].score, r2[i].score) << id;
        }
    }
}

// Updates after TRAIN leave the live trees trained on an older object
// set, so a load that retrained over the saved objects would answer
// differently. The loaded server must return the saved server's SEARCH
// replies byte for byte, exact and IVF-probed.
TEST_F(PersistenceTest, RoundTripAfterPostTrainUpdatesIsExact) {
    MieServer original;
    SearchRecorder recorder(original);
    net::MeteredTransport transport(recorder, net::LinkProfile::loopback());
    MieClient client(transport, "repo", key_, to_bytes("u"));
    client.train_params.tree_branch = 5;
    client.train_params.tree_depth = 2;
    client.create_repository();
    for (const auto& object : generator_.make_batch(0, 10)) {
        client.update(object);
    }
    client.train();
    client.remove(3);
    for (const auto& object : generator_.make_batch(40, 4)) {
        client.update(object);
    }
    save_server_snapshot(original, path_);
    MieServer restored;
    load_server_snapshot(restored, path_);

    for (const std::size_t probes : {0u, 4u}) {
        client.search_probes = probes;
        for (const std::uint64_t id : {0u, 5u, 41u, 3u}) {
            EXPECT_FALSE(client.search(generator_.make(id), 5).empty());
        }
    }
    ASSERT_EQ(recorder.searches.size(), 8u);
    for (const Bytes& request : recorder.searches) {
        EXPECT_EQ(restored.handle(request), original.handle(request));
    }
}

TEST_F(PersistenceTest, RestoredServerAcceptsNewUpdates) {
    MieServer original;
    {
        net::MeteredTransport transport(original,
                                        net::LinkProfile::loopback());
        MieClient client(transport, "repo", key_, to_bytes("u"));
        client.create_repository();
        for (const auto& object : generator_.make_batch(0, 6)) {
            client.update(object);
        }
        client.train();
    }
    save_server_snapshot(original, path_);

    MieServer restored;
    load_server_snapshot(restored, path_);
    net::MeteredTransport transport(restored, net::LinkProfile::loopback());
    MieClient client(transport, "repo", key_, to_bytes("u"));
    client.update(generator_.make(50));
    const auto results = client.search(generator_.make(50), 2);
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results.front().object_id, 50u);
}

TEST_F(PersistenceTest, UntrainedRepositorySurvives) {
    MieServer original;
    {
        net::MeteredTransport transport(original,
                                        net::LinkProfile::loopback());
        MieClient client(transport, "repo", key_, to_bytes("u"));
        client.create_repository();
        client.update(generator_.make(0));
    }
    save_server_snapshot(original, path_);
    MieServer restored;
    load_server_snapshot(restored, path_);
    EXPECT_FALSE(restored.stats("repo").trained);
    EXPECT_EQ(restored.stats("repo").num_objects, 1u);
    // Linear-scan search still works.
    net::MeteredTransport transport(restored, net::LinkProfile::loopback());
    MieClient client(transport, "repo", key_, to_bytes("u"));
    const auto results = client.search(generator_.make(0), 1);
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results.front().object_id, 0u);
}

TEST_F(PersistenceTest, EmptyServerRoundtrips) {
    MieServer original;
    save_server_snapshot(original, path_);
    MieServer restored;
    load_server_snapshot(restored, path_);
    EXPECT_THROW(restored.stats("absent"), std::invalid_argument);
}

TEST_F(PersistenceTest, ErrorsOnMissingAndCorruptFiles) {
    MieServer server;
    EXPECT_THROW(load_server_snapshot(server, "/nonexistent/dir/x.snap"),
                 std::runtime_error);
    // Corrupt: truncated snapshot.
    {
        std::ofstream out(path_, std::ios::binary);
        out.write("\x05\x00\x00\x00garbage", 11);
    }
    EXPECT_ANY_THROW(load_server_snapshot(server, path_));
}

}  // namespace
}  // namespace mie
