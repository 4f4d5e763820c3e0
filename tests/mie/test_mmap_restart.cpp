// Checkpoint restart path (DurableServer's MIESNAP checkpoints) and the
// IVF-probed search through the full client/server wire.
//
// The snapshot serializes the vocab trees and inverted indexes verbatim
// — so a checkpoint restart must be BIT-exact against the pre-crash
// server, including per-term index counters, and re-exporting the
// snapshot after a restart must reproduce the same bytes. Corrupted /
// truncated / deleted snapshot files, and checkpoint records that are
// not MIESREF stubs, must fall back to full WAL replay without losing an
// acknowledged operation — or fail loudly when the log was truncated.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "index/snapshot.hpp"
#include "mie/client.hpp"
#include "mie/durable_server.hpp"
#include "mie/server.hpp"
#include "mie/wire.hpp"
#include "net/transport.hpp"
#include "sim/dataset.hpp"
#include "store/checkpoint.hpp"
#include "store/file.hpp"

namespace mie {
namespace {

namespace fs = std::filesystem;

constexpr char kRepo[] = "repo";
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

struct WidthGuard {
    ~WidthGuard() { exec::set_max_threads(0); }
};

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

/// Bit-exact equality: object store AND every derived index counter.
void expect_same_state(net::RequestHandler& recovered,
                       net::RequestHandler& expected) {
    EXPECT_EQ(listing_of(recovered), listing_of(expected));
    EXPECT_EQ(recovered.handle(stats_request()),
              expected.handle(stats_request()));
}

RepositoryKey test_key() {
    return RepositoryKey::generate(to_bytes("mmap"), 64, 64, 0.7978845608);
}

sim::FlickrLikeGenerator make_generator() {
    return sim::FlickrLikeGenerator(sim::FlickrLikeParams{
        .num_classes = 4, .image_size = 48, .seed = 71});
}

class MmapRestartTest : public ::testing::Test {
protected:
    MmapRestartTest()
        : dir_(fs::temp_directory_path() /
               ("mie_mmap_restart_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()) +
                "_" + std::to_string(::getpid()))) {}

    ~MmapRestartTest() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    /// create + 10 updates + train + 4 updates, recorded as wire bytes.
    static const std::vector<Bytes>& workload() {
        static const std::vector<Bytes> requests = [] {
            MieServer scratch;
            RecordingTransport transport(scratch);
            auto key = test_key();
            MieClient client(transport, kRepo, key, to_bytes("u"));
            client.train_params.tree_branch = 5;
            client.train_params.tree_depth = 2;
            auto generator = make_generator();
            client.create_repository();
            for (const auto& object : generator.make_batch(0, 10)) {
                client.update(object);
            }
            client.train();
            for (const auto& object : generator.make_batch(10, 4)) {
                client.update(object);
            }
            return std::move(transport.requests);
        }();
        return requests;
    }

    static void drive(net::RequestHandler& server,
                      const std::vector<Bytes>& requests) {
        for (const Bytes& request : requests) server.handle(request);
    }

    /// Overwrites the checkpoint record at `lsn` in `dir` with a payload
    /// that is not a MIESREF stub.
    static void write_inline_checkpoint(const fs::path& dir,
                                        store::Lsn lsn) {
        store::CheckpointStore(store::PosixVfs::instance(),
                               dir / "checkpoints")
            .write(lsn, to_bytes("an inline image, not a MIESREF stub"));
    }

    /// The single snapshot file the stub checkpoint published.
    fs::path snapshot_file() const {
        const auto entries =
            store::PosixVfs::instance().list_dir(dir_ / "snapshots");
        EXPECT_EQ(entries.size(), 1u);
        return entries.empty() ? fs::path{} : entries.front();
    }

    fs::path dir_;
};

TEST_F(MmapRestartTest, CheckpointRestartIsBitExact) {
    MieServer shadow;
    drive(shadow, workload());
    Bytes exported_before;
    {
        DurableServer durable(store::PosixVfs::instance(), dir_);
        drive(durable, workload());
        durable.checkpoint_now();
        exported_before = durable.server().export_mapped_snapshot();
        EXPECT_TRUE(fs::exists(snapshot_file()));
    }
    DurableServer recovered(store::PosixVfs::instance(), dir_);
    const auto stats = recovered.durability();
    EXPECT_TRUE(stats.recovered_from_checkpoint);
    EXPECT_EQ(stats.recovered_records, 0u);
    // Mapped checkpoints carry trees + indexes verbatim: strict equality,
    // not just the object store.
    expect_same_state(recovered, shadow);
    // Re-exporting after the mmap restore reproduces the same bytes.
    EXPECT_EQ(recovered.server().export_mapped_snapshot(), exported_before);
}

TEST_F(MmapRestartTest, WalTailReplaysOnTopOfMappedSnapshot) {
    const auto& requests = workload();
    const std::size_t cut = requests.size() - 3;
    MieServer shadow;
    drive(shadow, requests);
    {
        DurableServer durable(store::PosixVfs::instance(), dir_);
        for (std::size_t i = 0; i < cut; ++i) durable.handle(requests[i]);
        durable.checkpoint_now();
        for (std::size_t i = cut; i < requests.size(); ++i) {
            durable.handle(requests[i]);
        }
    }
    DurableServer recovered(store::PosixVfs::instance(), dir_);
    const auto stats = recovered.durability();
    EXPECT_TRUE(stats.recovered_from_checkpoint);
    EXPECT_EQ(stats.recovered_records, requests.size() - cut);
    expect_same_state(recovered, shadow);
}

// Damage the published checkpoint in four ways; every variant must
// fall back to full WAL replay (the log was never truncated past LSN 1)
// and recover the acknowledged state exactly.
TEST_F(MmapRestartTest, DamagedSnapshotFallsBackToWalReplay) {
    MieServer shadow;
    drive(shadow, workload());
    const char* damages[] = {"corrupt", "truncate", "delete", "inline"};
    for (const char* damage : damages) {
        SCOPED_TRACE(damage);
        const fs::path cell_dir = dir_ / damage;
        store::Lsn checkpoint_lsn = 0;
        {
            DurableServer durable(store::PosixVfs::instance(), cell_dir);
            drive(durable, workload());
            durable.checkpoint_now();
            checkpoint_lsn = durable.durability().last_lsn;
        }
        const auto entries =
            store::PosixVfs::instance().list_dir(cell_dir / "snapshots");
        ASSERT_EQ(entries.size(), 1u);
        const fs::path snapshot = entries.front();
        const auto size = fs::file_size(snapshot);
        if (std::string(damage) == "corrupt") {
            std::fstream f(snapshot,
                           std::ios::in | std::ios::out | std::ios::binary);
            f.seekp(static_cast<std::streamoff>(size / 2));
            const char byte = 0x5A;
            f.write(&byte, 1);
        } else if (std::string(damage) == "truncate") {
            fs::resize_file(snapshot, size / 2);
        } else if (std::string(damage) == "delete") {
            fs::remove(snapshot);
        } else {
            write_inline_checkpoint(cell_dir, checkpoint_lsn);
        }
        DurableServer recovered(store::PosixVfs::instance(), cell_dir);
        const auto stats = recovered.durability();
        EXPECT_FALSE(stats.recovered_from_checkpoint);
        EXPECT_EQ(stats.recovered_records, workload().size());
        expect_same_state(recovered, shadow);
    }
}

// A checkpoint that is not a MIESREF stub, after that checkpoint has
// truncated WAL segments: the history full replay would need is gone, so
// opening must fail loudly rather than come up empty or partial.
TEST_F(MmapRestartTest, InlineCheckpointAfterTruncationFailsToOpen) {
    DurableServer::Options options;
    options.wal.segment_bytes = 1024;
    store::Lsn checkpoint_lsn = 0;
    {
        DurableServer durable(store::PosixVfs::instance(), dir_, options);
        drive(durable, workload());
        durable.checkpoint_now();
        checkpoint_lsn = durable.durability().last_lsn;
        ASSERT_GT(durable.oldest_log_lsn(), 1u);
    }
    write_inline_checkpoint(dir_, checkpoint_lsn);
    EXPECT_THROW(
        DurableServer(store::PosixVfs::instance(), dir_, options),
        index::SnapshotError);
}

// The probed (ANN) search through the full wire: deterministic at every
// thread count, exact when probes >= cells, strictly less scoring work
// when probes are low, and stable across an mmap restart.
TEST_F(MmapRestartTest, ProbedSearchDeterministicAndCheaperAcrossRestart) {
    const WidthGuard guard;
    MieServer server;
    drive(server, workload());
    auto key = test_key();
    auto generator = make_generator();
    net::MeteredTransport transport(server, net::LinkProfile::loopback());
    MieClient client(transport, kRepo, key, to_bytes("u"));

    // Exact baseline (probes = 0).
    client.search_probes = 0;
    const auto exact = client.search(generator.make(2), 5);
    const auto exact_work = client.last_search_work();
    ASSERT_FALSE(exact.empty());
    ASSERT_GT(exact_work.postings_scored, 0u);
    EXPECT_EQ(exact_work.query_descriptors, exact_work.descriptors_kept);

    // probes = 1: every descriptor outside the top cell is dropped, so
    // scoring work strictly shrinks; results stay deterministic at any
    // thread count.
    client.search_probes = 1;
    const auto probed = client.search(generator.make(2), 5);
    const auto probed_work = client.last_search_work();
    EXPECT_LT(probed_work.postings_scored, exact_work.postings_scored);
    EXPECT_LT(probed_work.descriptors_kept, probed_work.query_descriptors);
    for (const std::size_t threads : kThreadCounts) {
        exec::set_max_threads(threads);
        const auto again = client.search(generator.make(2), 5);
        ASSERT_EQ(again.size(), probed.size()) << threads;
        for (std::size_t i = 0; i < again.size(); ++i) {
            EXPECT_EQ(again[i].object_id, probed[i].object_id) << threads;
            EXPECT_DOUBLE_EQ(again[i].score, probed[i].score) << threads;
        }
    }
    exec::set_max_threads(0);

    // probes >= cell count degenerates to the exact search.
    client.search_probes = 64;
    const auto wide = client.search(generator.make(2), 5);
    ASSERT_EQ(wide.size(), exact.size());
    for (std::size_t i = 0; i < wide.size(); ++i) {
        EXPECT_EQ(wide[i].object_id, exact[i].object_id);
        EXPECT_DOUBLE_EQ(wide[i].score, exact[i].score);
    }
    EXPECT_EQ(client.last_search_work().postings_scored,
              exact_work.postings_scored);

    // Same probed results through a durable server after an mmap restart.
    {
        DurableServer durable(store::PosixVfs::instance(), dir_);
        drive(durable, workload());
        durable.checkpoint_now();
    }
    DurableServer recovered(store::PosixVfs::instance(), dir_);
    ASSERT_TRUE(recovered.durability().recovered_from_checkpoint);
    net::MeteredTransport transport2(recovered,
                                     net::LinkProfile::loopback());
    MieClient client2(transport2, kRepo, key, to_bytes("u"));
    client2.search_probes = 1;
    const auto after = client2.search(generator.make(2), 5);
    ASSERT_EQ(after.size(), probed.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
        EXPECT_EQ(after[i].object_id, probed[i].object_id);
        EXPECT_DOUBLE_EQ(after[i].score, probed[i].score);
    }
    EXPECT_EQ(client2.last_search_work().postings_scored,
              probed_work.postings_scored);
}

}  // namespace
}  // namespace mie
