// DurableServer crash-recovery tests.
//
// Strategy: record a realistic mixed CREATE/UPDATE/TRAIN/REMOVE workload
// once as raw wire requests (via a recording transport), then replay
// those bytes against DurableServer instances under fault injection.
// A "shadow" in-memory MieServer is fed exactly the requests the durable
// server acknowledged; after a crash + recovery, the recovered server
// must match the shadow — every acknowledged operation present, no
// object lost. The only tolerated divergence is the single in-flight
// request whose log record was written but whose ack never returned
// (the classic logged-but-unacknowledged window; replaying it is the
// documented at-least-once behaviour for unacknowledged operations).
#include <gtest/gtest.h>

#include <algorithm>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mie/client.hpp"
#include "mie/durable_server.hpp"
#include "mie/persistence.hpp"
#include "mie/server.hpp"
#include "mie/wire.hpp"
#include "sim/dataset.hpp"
#include "store/file.hpp"

namespace mie {
namespace {

namespace fs = std::filesystem;

constexpr char kRepo[] = "repo";

/// Forwards to a handler while keeping a copy of every request.
class RecordingTransport final : public net::Transport {
public:
    explicit RecordingTransport(net::RequestHandler& handler)
        : handler_(handler) {}

    Bytes call(BytesView request) override {
        requests.emplace_back(request.begin(), request.end());
        return handler_.handle(request);
    }

    std::vector<Bytes> requests;

private:
    net::RequestHandler& handler_;
};

Bytes list_objects_request() {
    net::MessageWriter writer;
    writer.write_u8(static_cast<std::uint8_t>(MieOp::kListObjects));
    writer.write_string(kRepo);
    return writer.take();
}

Bytes stats_request() {
    net::MessageWriter writer;
    writer.write_u8(static_cast<std::uint8_t>(MieOp::kStats));
    writer.write_string(kRepo);
    return writer.take();
}

/// id -> ciphertext blob, order-independent.
std::map<std::uint64_t, Bytes> listing_of(net::RequestHandler& server) {
    const Bytes response = server.handle(list_objects_request());
    net::MessageReader reader(response);
    std::map<std::uint64_t, Bytes> objects;
    const auto count = reader.read_u32();
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint64_t id = reader.read_u64();
        objects[id] = reader.read_bytes();
    }
    return objects;
}

/// Asserts `recovered` holds exactly the same repository state as
/// `expected` (object set with identical blobs, plus index statistics).
/// Holds for pure WAL replay, which re-executes the original request
/// sequence, and for checkpoint restores, whose MIESNAP image carries the
/// trained trees and indexes.
void expect_same_state(net::RequestHandler& recovered,
                       net::RequestHandler& expected) {
    EXPECT_EQ(listing_of(recovered), listing_of(expected));
    EXPECT_EQ(recovered.handle(stats_request()),
              expected.handle(stats_request()));
}

class DurableServerTest : public ::testing::Test {
protected:
    DurableServerTest()
        // Keyed by test name + pid: ctest runs each case as its own
        // process in parallel, so a shared directory would collide.
        : dir_(fs::temp_directory_path() /
               ("mie_durable_test_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()) +
                "_" + std::to_string(::getpid()))) {}

    ~DurableServerTest() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    /// Records the mixed workload once per suite: create, 10 updates,
    /// train, 4 more updates, 2 removes, 1 overwrite.
    static const std::vector<Bytes>& workload() {
        static const std::vector<Bytes> requests = [] {
            MieServer scratch;
            RecordingTransport transport(scratch);
            auto key = RepositoryKey::generate(to_bytes("durable"), 64, 64,
                                               0.7978845608);
            MieClient client(transport, kRepo, key, to_bytes("u"));
            client.train_params.tree_branch = 5;
            client.train_params.tree_depth = 2;
            sim::FlickrLikeGenerator generator(sim::FlickrLikeParams{
                .num_classes = 4, .image_size = 48, .seed = 71});
            client.create_repository();
            for (const auto& object : generator.make_batch(0, 10)) {
                client.update(object);
            }
            client.train();
            for (const auto& object : generator.make_batch(10, 4)) {
                client.update(object);
            }
            client.remove(3);
            client.remove(7);
            client.update(generator.make(5));  // overwrite in place
            return std::move(transport.requests);
        }();
        return requests;
    }

    /// Default small-scale engine options: tiny segments so the workload
    /// rotates several times.
    static DurableServer::Options small_segments(
        std::uint64_t checkpoint_every_bytes = 0) {
        DurableServer::Options options;
        options.wal.segment_bytes = 32 * 1024;
        options.checkpoint_every_bytes = checkpoint_every_bytes;
        return options;
    }

    /// Replays `requests` until the durable server dies; requests that
    /// return normally are applied to `shadow` too. Returns the request
    /// in flight when the crash hit, if any.
    static std::optional<Bytes> drive(DurableServer& durable,
                                      MieServer& shadow,
                                      const std::vector<Bytes>& requests) {
        for (const Bytes& request : requests) {
            try {
                durable.handle(request);
            } catch (const store::IoError&) {
                return request;
            }
            shadow.handle(request);
        }
        return std::nullopt;
    }

    /// True when the two servers agree on the acknowledged state.
    static bool state_matches(net::RequestHandler& a,
                              net::RequestHandler& b) {
        return listing_of(a) == listing_of(b) &&
               a.handle(stats_request()) == b.handle(stats_request());
    }

    /// Recovered state must equal shadow(acked), or — only when a logged
    /// record was in flight — shadow(acked + in-flight).
    static void expect_recovered(DurableServer& recovered, MieServer& shadow,
                                 const std::optional<Bytes>& in_flight) {
        if (state_matches(recovered, shadow)) return;
        ASSERT_TRUE(in_flight.has_value())
            << "recovered state diverges with no in-flight operation";
        shadow.handle(*in_flight);
        expect_same_state(recovered, shadow);
    }

    fs::path dir_;
};

TEST_F(DurableServerTest, WalOnlyRecoveryMatchesUncrashedServer) {
    MieServer shadow;
    {
        DurableServer durable(store::PosixVfs::instance(), dir_,
                              small_segments());
        const auto in_flight = drive(durable, shadow, workload());
        EXPECT_FALSE(in_flight.has_value());
        const auto stats = durable.durability();
        EXPECT_EQ(stats.records_logged, workload().size());
        EXPECT_EQ(stats.checkpoints_written, 0u);
        // Process "crash": the server object is destroyed with no
        // checkpoint and no clean-shutdown hook.
    }
    DurableServer recovered(store::PosixVfs::instance(), dir_,
                            small_segments());
    const auto stats = recovered.durability();
    EXPECT_FALSE(stats.recovered_from_checkpoint);
    EXPECT_EQ(stats.recovered_records, workload().size());
    expect_same_state(recovered, shadow);

    // The WAL -> recover -> stats() equivalence, against the uncrashed
    // in-memory server.
    const auto recovered_stats = recovered.server().stats(kRepo);
    const auto shadow_stats = shadow.stats(kRepo);
    EXPECT_EQ(recovered_stats.num_objects, shadow_stats.num_objects);
    EXPECT_EQ(recovered_stats.trained, shadow_stats.trained);
    EXPECT_EQ(recovered_stats.visual_words, shadow_stats.visual_words);
    EXPECT_EQ(recovered_stats.image_index_terms,
              shadow_stats.image_index_terms);
    EXPECT_EQ(recovered_stats.text_index_terms,
              shadow_stats.text_index_terms);
}

TEST_F(DurableServerTest, RecoveredServerSearchesAndAcceptsNewUpdates) {
    MieServer shadow;
    {
        DurableServer durable(store::PosixVfs::instance(), dir_,
                              small_segments());
        drive(durable, shadow, workload());
    }
    DurableServer recovered(store::PosixVfs::instance(), dir_,
                            small_segments());

    auto key = RepositoryKey::generate(to_bytes("durable"), 64, 64,
                                       0.7978845608);
    sim::FlickrLikeGenerator generator(sim::FlickrLikeParams{
        .num_classes = 4, .image_size = 48, .seed = 71});
    net::MeteredTransport t1(recovered, net::LinkProfile::loopback());
    net::MeteredTransport t2(shadow, net::LinkProfile::loopback());
    MieClient c1(t1, kRepo, key, to_bytes("u"));
    MieClient c2(t2, kRepo, key, to_bytes("u"));
    // Identical ranked results through the recovered and shadow servers
    // (deterministic retraining).
    for (std::uint64_t id = 0; id < 5; ++id) {
        const auto r1 = c1.search(generator.make(id), 4);
        const auto r2 = c2.search(generator.make(id), 4);
        ASSERT_EQ(r1.size(), r2.size()) << id;
        for (std::size_t i = 0; i < r1.size(); ++i) {
            EXPECT_EQ(r1[i].object_id, r2[i].object_id) << id;
            EXPECT_DOUBLE_EQ(r1[i].score, r2[i].score) << id;
        }
    }
    // New mutations keep working (and keep being logged).
    c1.update(generator.make(60));
    const auto results = c1.search(generator.make(60), 2);
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results.front().object_id, 60u);
    EXPECT_GT(recovered.durability().records_logged, 0u);
}

TEST_F(DurableServerTest, CheckpointPlusTailRecovery) {
    MieServer shadow;
    std::size_t checkpoints = 0;
    {
        DurableServer durable(store::PosixVfs::instance(), dir_,
                              small_segments(/*checkpoint_every_bytes=*/
                                             8 * 1024));
        drive(durable, shadow, workload());
        checkpoints = durable.durability().checkpoints_written;
        ASSERT_GE(checkpoints, 1u)
            << "workload too small to trigger the checkpoint threshold";
    }
    DurableServer recovered(store::PosixVfs::instance(), dir_,
                            small_segments(8 * 1024));
    const auto stats = recovered.durability();
    EXPECT_TRUE(stats.recovered_from_checkpoint);
    // Only the records after the last checkpoint replay.
    EXPECT_LT(stats.recovered_records, workload().size());
    expect_same_state(recovered, shadow);
}

TEST_F(DurableServerTest, ManualCheckpointTruncatesLog) {
    MieServer shadow;
    {
        DurableServer durable(store::PosixVfs::instance(), dir_,
                              small_segments());
        drive(durable, shadow, workload());
        durable.checkpoint_now();
    }
    DurableServer recovered(store::PosixVfs::instance(), dir_,
                            small_segments());
    EXPECT_TRUE(recovered.durability().recovered_from_checkpoint);
    EXPECT_EQ(recovered.durability().recovered_records, 0u);
    expect_same_state(recovered, shadow);
}

// The kill-and-recover matrix: crash the server at arbitrary byte
// positions in the log stream (torn tail record / truncated segment are
// produced naturally by tearing at header vs payload offsets), with and
// without checkpointing active (the latter also covers crashes during
// checkpoint writes and between checkpoint and truncation), then verify
// recovery yields exactly the acknowledged state.
TEST_F(DurableServerTest, KillAndRecoverAtArbitraryPoints) {
    // Calibrate: total bytes a faultless run appends.
    std::uint64_t total_bytes = 0;
    {
        store::FaultInjectingVfs vfs(store::PosixVfs::instance());
        MieServer shadow;
        DurableServer durable(vfs, dir_ / "calibrate", small_segments());
        drive(durable, shadow, workload());
        total_bytes = vfs.bytes_appended();
        ASSERT_GT(total_bytes, 0u);
    }

    const std::uint64_t checkpoint_cells[] = {0, 8 * 1024};
    const std::size_t torn_cells[] = {0, 7};
    int cell = 0;
    for (const std::uint64_t checkpoint_every : checkpoint_cells) {
        for (const std::size_t torn : torn_cells) {
            for (int step = 1; step <= 6; ++step) {
                const std::uint64_t fail_at = total_bytes * step / 7;
                const fs::path cell_dir =
                    dir_ / ("cell_" + std::to_string(cell++));
                MieServer shadow;
                std::optional<Bytes> in_flight;
                {
                    store::FaultInjectingVfs vfs(
                        store::PosixVfs::instance());
                    DurableServer durable(vfs, cell_dir,
                                          small_segments(checkpoint_every));
                    vfs.fail_after_bytes(fail_at, torn);
                    in_flight = drive(durable, shadow, workload());
                    ASSERT_TRUE(in_flight.has_value())
                        << "fault at byte " << fail_at << " never fired";
                    EXPECT_TRUE(vfs.crashed());
                }
                DurableServer recovered(store::PosixVfs::instance(),
                                        cell_dir,
                                        small_segments(checkpoint_every));
                SCOPED_TRACE("fail_at=" + std::to_string(fail_at) +
                             " torn=" + std::to_string(torn) +
                             " checkpoint_every=" +
                             std::to_string(checkpoint_every));
                expect_recovered(recovered, shadow, in_flight);
            }
        }
    }
}

// Power-loss cell: with SyncPolicy::kEveryRecord every acknowledged
// record is fsynced, so dropping all unsynced bytes at the crash point
// must still recover every acknowledged operation.
TEST_F(DurableServerTest, PowerLossWithSyncEveryRecord) {
    std::uint64_t total_bytes = 0;
    {
        store::FaultInjectingVfs vfs(store::PosixVfs::instance());
        MieServer shadow;
        DurableServer durable(vfs, dir_ / "calibrate", small_segments());
        drive(durable, shadow, workload());
        total_bytes = vfs.bytes_appended();
    }
    for (int step = 1; step <= 4; ++step) {
        const std::uint64_t fail_at = total_bytes * step / 5;
        const fs::path cell_dir = dir_ / ("power_" + std::to_string(step));
        MieServer shadow;
        std::optional<Bytes> in_flight;
        {
            store::FaultInjectingVfs vfs(store::PosixVfs::instance());
            auto options = small_segments();
            options.wal.sync_policy = store::SyncPolicy::kEveryRecord;
            DurableServer durable(vfs, cell_dir, options);
            vfs.fail_after_bytes(fail_at, 5);
            in_flight = drive(durable, shadow, workload());
            ASSERT_TRUE(in_flight.has_value());
            vfs.power_loss();  // unsynced bytes (the torn tail) vanish
        }
        DurableServer recovered(store::PosixVfs::instance(), cell_dir,
                                small_segments());
        SCOPED_TRACE("fail_at=" + std::to_string(fail_at));
        expect_recovered(recovered, shadow, in_flight);
    }
}

// Corrupt-CRC cell: flip a byte inside the last durable record. Recovery
// must detect the corruption, never apply garbage, and serve exactly the
// log prefix before the corrupted record.
TEST_F(DurableServerTest, CorruptCrcYieldsExactPrefixState) {
    MieServer shadow;
    const auto& requests = workload();
    {
        DurableServer durable(store::PosixVfs::instance(), dir_,
                              small_segments());
        // Apply everything but keep the shadow one mutating request
        // behind: the last request is the one we will corrupt.
        for (std::size_t i = 0; i + 1 < requests.size(); ++i) {
            durable.handle(requests[i]);
            shadow.handle(requests[i]);
        }
        durable.handle(requests.back());  // acked, but about to corrupt
    }
    // Find the last WAL segment and flip a byte in its final record's
    // payload (the CRC check must catch it).
    const fs::path wal_dir = dir_ / "wal";
    std::vector<fs::path> segments =
        store::PosixVfs::instance().list_dir(wal_dir);
    std::sort(segments.begin(), segments.end());
    ASSERT_FALSE(segments.empty());
    const fs::path last_segment = segments.back();
    const auto size = fs::file_size(last_segment);
    {
        std::fstream f(last_segment,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(static_cast<std::streamoff>(size - 3));
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5A);  // guaranteed to change
        f.seekp(static_cast<std::streamoff>(size - 3));
        f.write(&byte, 1);
    }
    DurableServer recovered(store::PosixVfs::instance(), dir_,
                            small_segments());
    EXPECT_TRUE(recovered.durability().tail_truncated);
    expect_same_state(recovered, shadow);
    // The recovered server still accepts new mutations.
    net::MessageWriter writer;
    writer.write_u8(static_cast<std::uint8_t>(MieOp::kRemove));
    writer.write_string(kRepo);
    writer.write_u64(0);
    const Bytes remove_request = writer.take();
    recovered.handle(remove_request);
    shadow.handle(remove_request);
    expect_same_state(recovered, shadow);
}

// A saved snapshot of a durable server loads into a plain server with
// the exact state: save/load and checkpoints share the MIESNAP image.
TEST_F(DurableServerTest, SnapshotPersistenceInteroperates) {
    MieServer shadow;
    {
        DurableServer durable(store::PosixVfs::instance(), dir_,
                              small_segments());
        drive(durable, shadow, workload());
        save_server_snapshot(durable.server(), dir_ / "manual.snap");
    }
    MieServer restored;
    load_server_snapshot(restored, dir_ / "manual.snap");
    expect_same_state(restored, shadow);
}

}  // namespace
}  // namespace mie
