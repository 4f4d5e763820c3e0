// End-to-end MIE framework tests: the full client -> wire -> cloud path,
// covering every operation of Definition 2 plus multi-user sharing.
#include <gtest/gtest.h>

#include <memory>

#include "mie/client.hpp"
#include "mie/object_codec.hpp"
#include "mie/server.hpp"
#include "mie/wire.hpp"
#include "sim/dataset.hpp"
#include "util/crc32c.hpp"

namespace mie {
namespace {

constexpr std::size_t kSurfDims = 64;

class MieEndToEnd : public ::testing::Test {
protected:
    MieEndToEnd()
        : repo_key_(RepositoryKey::generate(to_bytes("test-entropy"),
                                            kSurfDims, 128, 0.7978845608)),
          transport_(server_, net::LinkProfile::loopback()),
          client_(std::make_unique<MieClient>(transport_, "repo", repo_key_,
                                              to_bytes("user-1-secret"))),
          generator_(sim::FlickrLikeParams{.num_classes = 5,
                                           .image_size = 64,
                                           .seed = 11}) {
        // Small training set keeps the suite fast.
        client_->train_params.max_training_samples = 2000;
        client_->train_params.tree_branch = 5;
        client_->train_params.tree_depth = 2;
    }

    void load_objects(std::size_t count) {
        client_->create_repository();
        for (const auto& object : generator_.make_batch(0, count)) {
            client_->update(object);
        }
    }

    RepositoryKey repo_key_;
    MieServer server_;
    net::MeteredTransport transport_;
    std::unique_ptr<MieClient> client_;
    sim::FlickrLikeGenerator generator_;
};

TEST_F(MieEndToEnd, CreateRepositoryInitializesServerState) {
    client_->create_repository();
    const auto stats = server_.stats("repo");
    EXPECT_EQ(stats.num_objects, 0u);
    EXPECT_FALSE(stats.trained);
}

TEST_F(MieEndToEnd, UpdateStoresEncryptedObjects) {
    load_objects(4);
    const auto stats = server_.stats("repo");
    EXPECT_EQ(stats.num_objects, 4u);
    EXPECT_FALSE(stats.trained);  // indexing deferred until TRAIN
    EXPECT_EQ(stats.image_index_terms, 0u);
}

TEST_F(MieEndToEnd, SearchBeforeTrainUsesLinearScanAndFindsSelf) {
    load_objects(6);
    const auto query = generator_.make(2);
    const auto results = client_->search(query, 3);
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results.front().object_id, 2u);  // exact object ranks first
}

TEST_F(MieEndToEnd, TrainBuildsCloudSideIndexes) {
    load_objects(8);
    client_->train();
    const auto stats = server_.stats("repo");
    EXPECT_TRUE(stats.trained);
    EXPECT_GT(stats.visual_words, 1u);
    EXPECT_GT(stats.image_index_terms, 0u);
    EXPECT_GT(stats.text_index_terms, 0u);
    // Client spent nothing on training: it is outsourced.
    EXPECT_DOUBLE_EQ(client_->meter().seconds(sim::SubOp::kTrain), 0.0);
}

TEST_F(MieEndToEnd, TrainedSearchFindsSelfAndClassmates) {
    load_objects(10);
    client_->train();
    const auto query = generator_.make(3);
    const auto results = client_->search(query, 5);
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results.front().object_id, 3u);
    // Scores are descending.
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_LE(results[i].score, results[i - 1].score);
    }
}

TEST_F(MieEndToEnd, ResultsDecryptToOriginalObject) {
    load_objects(5);
    const auto query = generator_.make(1);
    const auto results = client_->search(query, 1);
    ASSERT_FALSE(results.empty());
    const auto decrypted = client_->decrypt_result(results.front());
    EXPECT_EQ(decrypted.id, 1u);
    EXPECT_EQ(decrypted.text, generator_.make(1).text);
    EXPECT_EQ(decrypted.image.width(), 64);
}

TEST_F(MieEndToEnd, StoredBlobsAreNotPlaintext) {
    load_objects(1);
    // Search returns the ciphertext blob; it must differ from the plaintext
    // serialization (semantic security smoke test).
    const auto results = client_->search(generator_.make(0), 1);
    ASSERT_FALSE(results.empty());
    const Bytes plaintext = encode_object(generator_.make(0));
    EXPECT_NE(results.front().encrypted_object, plaintext);
}

TEST_F(MieEndToEnd, UpdateAfterTrainIndexesDynamically) {
    load_objects(6);
    client_->train();
    const auto before = server_.stats("repo");
    client_->update(generator_.make(100));
    const auto after = server_.stats("repo");
    EXPECT_EQ(after.num_objects, before.num_objects + 1);
    // New object is searchable without retraining.
    const auto results = client_->search(generator_.make(100), 3);
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results.front().object_id, 100u);
}

TEST_F(MieEndToEnd, ReUpdateReplacesObject) {
    load_objects(3);
    client_->train();
    auto changed = generator_.make(1);
    changed.text = "completely different replacement tags here";
    client_->update(changed);
    EXPECT_EQ(server_.stats("repo").num_objects, 3u);
    const auto decrypted =
        client_->decrypt_result(client_->search(changed, 1).front());
    EXPECT_EQ(decrypted.text, changed.text);
}

TEST_F(MieEndToEnd, RemoveDeletesObjectAndIndexEntries) {
    load_objects(5);
    client_->train();
    client_->remove(2);
    EXPECT_EQ(server_.stats("repo").num_objects, 4u);
    const auto results = client_->search(generator_.make(2), 5);
    for (const auto& result : results) {
        EXPECT_NE(result.object_id, 2u);
    }
    // Removing again is a no-op.
    client_->remove(2);
    EXPECT_EQ(server_.stats("repo").num_objects, 4u);
}

TEST_F(MieEndToEnd, MultipleUsersShareRepositoryWithSharedKey) {
    // User 2 has the repository key but their own transport and secret.
    net::MeteredTransport transport2(server_, net::LinkProfile::loopback());
    MieClient user2(transport2, "repo", repo_key_, to_bytes("user-2-secret"));

    client_->create_repository();
    client_->update(generator_.make(0));
    user2.update(generator_.make(1));
    client_->train();
    user2.update(generator_.make(2));

    EXPECT_EQ(server_.stats("repo").num_objects, 3u);
    // Either user can search the whole repository.
    const auto results = user2.search(generator_.make(0), 1);
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results.front().object_id, 0u);
}

TEST_F(MieEndToEnd, ClientWithoutRepositoryKeyGetsUnrelatedTokens) {
    // A client with a different repository key produces encodings that do
    // not match the stored ones, so its searches return nothing relevant.
    load_objects(4);
    client_->train();
    const auto other_key = RepositoryKey::generate(to_bytes("other-entropy"),
                                                   kSurfDims, 128,
                                                   0.7978845608);
    net::MeteredTransport transport2(server_, net::LinkProfile::loopback());
    MieClient intruder(transport2, "repo", other_key, to_bytes("intruder"));
    // The key holder retrieves every object as its own top-1; the intruder's
    // encodings are unrelated to the stored ones, so it cannot do the same.
    int mine_correct = 0, theirs_correct = 0;
    for (std::uint64_t id = 0; id < 4; ++id) {
        const auto mine = client_->search(generator_.make(id), 1);
        if (!mine.empty() && mine.front().object_id == id) ++mine_correct;
        const auto theirs = intruder.search(generator_.make(id), 1);
        if (!theirs.empty() && theirs.front().object_id == id) {
            ++theirs_correct;
        }
    }
    EXPECT_EQ(mine_correct, 4);
    EXPECT_LT(theirs_correct, 3);
}

TEST_F(MieEndToEnd, MeterAttributesSubOperations) {
    load_objects(3);
    const auto& meter = client_->meter();
    EXPECT_GT(meter.seconds(sim::SubOp::kIndex), 0.0);
    EXPECT_GT(meter.seconds(sim::SubOp::kEncrypt), 0.0);
    EXPECT_GE(meter.seconds(sim::SubOp::kNetwork), 0.0);
    EXPECT_DOUBLE_EQ(meter.seconds(sim::SubOp::kTrain), 0.0);
}

TEST_F(MieEndToEnd, TransportMetersBytes) {
    load_objects(2);
    EXPECT_GT(transport_.bytes_up(), 0u);
    EXPECT_GT(transport_.bytes_down(), 0u);
    EXPECT_EQ(transport_.calls(), 3u);  // create + 2 updates
}

TEST_F(MieEndToEnd, UnknownRepositoryIsAnError) {
    net::MeteredTransport transport2(server_, net::LinkProfile::loopback());
    MieClient ghost(transport2, "missing", repo_key_, to_bytes("g"));
    EXPECT_THROW(ghost.search(generator_.make(0), 1), std::invalid_argument);
}

/// Handler decorator that folds every SEARCH reply into a running
/// CRC-32C, so a test can pin the exact bytes the server put on the wire.
class SearchReplyDigest final : public net::RequestHandler {
public:
    explicit SearchReplyDigest(net::RequestHandler& inner) : inner_(inner) {}

    Bytes handle(BytesView request) override {
        Bytes reply = inner_.handle(request);
        if (!request.empty() &&
            static_cast<MieOp>(request[0]) == MieOp::kSearch) {
            state_ = crc32c_update(state_, reply);
            ++replies_;
        }
        return reply;
    }

    /// Digest of the replies seen since the last call, then resets.
    std::uint32_t take() {
        const std::uint32_t digest = crc32c_final(state_);
        state_ = crc32c_init();
        return digest;
    }
    std::size_t replies() const { return replies_; }

private:
    net::RequestHandler& inner_;
    std::uint32_t state_ = crc32c_init();
    std::size_t replies_ = 0;
};

// Pins the SEARCH reply bytes (ranked ids, scores, ciphertexts and the
// work tail) of a small seeded repository: exact TF-IDF, IVF with 4
// probes, and a BM25-trained repository. Each repository sees a removal
// and post-TRAIN updates before it is searched, so index slots have been
// freed and reused. Any change to ranking arithmetic, tie order or reply
// encoding moves these digests.
TEST_F(MieEndToEnd, SearchRepliesArePinned) {
    SearchReplyDigest digest(server_);
    net::MeteredTransport transport(digest, net::LinkProfile::loopback());
    const auto populate = [&](MieClient& client, TrainParams::Ranking ranking) {
        client.train_params = client_->train_params;
        client.train_params.ranking = ranking;
        client.create_repository();
        for (const auto& object : generator_.make_batch(0, 16)) {
            client.update(object);
        }
        client.train();
        client.remove(3);
        client.update(generator_.make(40));
        client.update(generator_.make(41));
    };
    const auto search_digest = [&](MieClient& client, std::size_t probes) {
        client.search_probes = probes;
        for (const std::uint64_t id : {0u, 5u, 40u, 3u}) {
            EXPECT_FALSE(client.search(generator_.make(id), 5).empty());
        }
        return digest.take();
    };
    MieClient tfidf(transport, "pinned-tfidf", repo_key_,
                    to_bytes("pinned-user"));
    populate(tfidf, TrainParams::Ranking::kTfIdf);
    EXPECT_EQ(search_digest(tfidf, 0), 0xF8E08ECBu);
    EXPECT_EQ(search_digest(tfidf, 4), 0xAC0AF420u);
    MieClient bm25(transport, "pinned-bm25", repo_key_,
                   to_bytes("pinned-user"));
    populate(bm25, TrainParams::Ranking::kBm25);
    EXPECT_EQ(search_digest(bm25, 0), 0xCBD9BFB3u);
    EXPECT_EQ(digest.replies(), 12u);
}

TEST(MieObjectCodec, Roundtrip) {
    sim::FlickrLikeGenerator gen(sim::FlickrLikeParams{.image_size = 32});
    const auto object = gen.make(7);
    const auto decoded = decode_object(encode_object(object));
    EXPECT_EQ(decoded.id, object.id);
    EXPECT_EQ(decoded.text, object.text);
    EXPECT_EQ(decoded.image.width(), object.image.width());
    EXPECT_EQ(decoded.image.height(), object.image.height());
    // Pixels survive up to 8-bit quantization.
    EXPECT_NEAR(decoded.image.at(10, 10),
                std::clamp(object.image.at(10, 10), 0.0f, 1.0f), 1.0f / 255);
}

TEST(MieKeys, RepositoryKeyRoundtripAndDataKeys) {
    const auto key =
        RepositoryKey::generate(to_bytes("k"), 64, 64, 0.5);
    const auto parsed = RepositoryKey::deserialize(key.serialize());
    EXPECT_EQ(parsed.dense.seed, key.dense.seed);
    EXPECT_EQ(parsed.sparse.key, key.sparse.key);

    const DataKeyring ring(to_bytes("master"));
    EXPECT_EQ(ring.data_key(1).size(), 32u);
    EXPECT_NE(ring.data_key(1), ring.data_key(2));
    EXPECT_EQ(ring.data_key(1), DataKeyring(to_bytes("master")).data_key(1));
}

}  // namespace
}  // namespace mie
