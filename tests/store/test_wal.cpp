// WAL + checkpoint tests: rotation, replay, torn-tail truncation,
// corruption detection, segment truncation, checkpoint fallback.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "store/checkpoint.hpp"
#include "store/engine.hpp"
#include "store/wal.hpp"

namespace mie::store {
namespace {

namespace fs = std::filesystem;

/// Logs one payload through the engine's append path.
Lsn log_one(StorageEngine& engine, const std::string& payload) {
    const Bytes bytes = to_bytes(payload);
    return engine.log_batch({BytesView(bytes)});
}

class WalTest : public ::testing::Test {
protected:
    WalTest()
        // Keyed by test name + pid: ctest runs each case as its own
        // process in parallel, so a shared directory would collide.
        : dir_(fs::temp_directory_path() /
               ("mie_store_wal_test_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()) +
                "_" + std::to_string(::getpid()))) {}

    ~WalTest() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    /// Collects (lsn, payload-as-string) pairs from replay.
    static std::vector<std::pair<Lsn, std::string>> drain(const Wal& wal,
                                                          Lsn after = 0) {
        std::vector<std::pair<Lsn, std::string>> out;
        wal.replay(after, [&](Lsn lsn, BytesView payload) {
            out.emplace_back(lsn, to_string(payload));
        });
        return out;
    }

    /// Flips one byte at `offset` inside `path`.
    static void corrupt_byte(const fs::path& path, std::uint64_t offset) {
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.seekg(static_cast<std::streamoff>(offset));
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5A);
        f.seekp(static_cast<std::streamoff>(offset));
        f.write(&byte, 1);
    }

    fs::path dir_;
    PosixVfs vfs_;
};

TEST_F(WalTest, AppendAssignsSequentialLsns) {
    Wal wal(vfs_, dir_, {});
    EXPECT_EQ(wal.last_lsn(), 0u);
    EXPECT_EQ(wal.append(to_bytes("a")), 1u);
    EXPECT_EQ(wal.append(to_bytes("b")), 2u);
    EXPECT_EQ(wal.append(to_bytes("c")), 3u);
    EXPECT_EQ(wal.last_lsn(), 3u);
    const auto records = drain(wal);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0], (std::pair<Lsn, std::string>{1, "a"}));
    EXPECT_EQ(records[2], (std::pair<Lsn, std::string>{3, "c"}));
}

TEST_F(WalTest, ReplaySkipsThroughAfter) {
    Wal wal(vfs_, dir_, {});
    for (int i = 0; i < 10; ++i) wal.append(to_bytes(std::to_string(i)));
    const auto records = drain(wal, 7);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].first, 8u);
    EXPECT_EQ(records[2].first, 10u);
}

TEST_F(WalTest, SurvivesReopen) {
    {
        Wal wal(vfs_, dir_, {});
        wal.append(to_bytes("one"));
        wal.append(to_bytes("two"));
        wal.sync();
    }
    Wal wal(vfs_, dir_, {});
    EXPECT_EQ(wal.last_lsn(), 2u);
    EXPECT_FALSE(wal.tail_truncated_on_open());
    EXPECT_EQ(wal.append(to_bytes("three")), 3u);
    const auto records = drain(wal);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[2].second, "three");
}

TEST_F(WalTest, ZeroPreallocatedTailIsEndOfLog) {
    // A process crash can leave the active segment with a zero-filled
    // preallocated tail (mmap appends grow the file in chunks ahead of
    // the logical size). Recovery must read every record and treat the
    // zeros as end-of-log.
    {
        Wal wal(vfs_, dir_, {});
        wal.append(to_bytes("one"));
        wal.append(to_bytes("two"));
        wal.sync();
    }
    const auto segments = vfs_.list_dir(dir_);
    ASSERT_EQ(segments.size(), 1u);
    {
        std::ofstream f(segments.front(),
                        std::ios::binary | std::ios::app);
        const std::string zeros(64 * 1024, '\0');
        f.write(zeros.data(),
                static_cast<std::streamsize>(zeros.size()));
    }
    Wal wal(vfs_, dir_, {});
    EXPECT_EQ(wal.last_lsn(), 2u);
    const auto records = drain(wal);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[1].second, "two");
    // The log keeps working past the repaired tail.
    EXPECT_EQ(wal.append(to_bytes("three")), 3u);
}

TEST_F(WalTest, RotatesAtSegmentThreshold) {
    Wal::Options options;
    options.segment_bytes = 128;  // tiny segments force rotation
    Wal wal(vfs_, dir_, {options});
    for (int i = 0; i < 50; ++i) {
        wal.append(to_bytes("payload-" + std::to_string(i)));
    }
    EXPECT_GT(wal.num_segments(), 3u);
    // Reopen sees the same records across all segments.
    wal.sync();
    Wal reopened(vfs_, dir_, {options});
    const auto records = drain(reopened);
    ASSERT_EQ(records.size(), 50u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].first, i + 1);
        EXPECT_EQ(records[i].second, "payload-" + std::to_string(i));
    }
}

TEST_F(WalTest, TornTailIsTruncatedOnReopen) {
    {
        Wal wal(vfs_, dir_, {});
        wal.append(to_bytes("good-1"));
        wal.append(to_bytes("good-2"));
        wal.sync();
    }
    // Simulate a torn record: append garbage that looks like a partial
    // record header.
    const auto segments = vfs_.list_dir(dir_);
    ASSERT_EQ(segments.size(), 1u);
    {
        std::ofstream f(segments[0], std::ios::binary | std::ios::app);
        f.write("\x40\x00\x00\x00\xAB", 5);
    }
    Wal wal(vfs_, dir_, {});
    EXPECT_TRUE(wal.tail_truncated_on_open());
    EXPECT_EQ(wal.last_lsn(), 2u);
    const auto records = drain(wal);
    ASSERT_EQ(records.size(), 2u);
    // Appends continue cleanly after the truncated tail.
    EXPECT_EQ(wal.append(to_bytes("good-3")), 3u);
    EXPECT_EQ(drain(wal).size(), 3u);
}

TEST_F(WalTest, CorruptCrcStopsRecoveryAtCorruption) {
    std::uint64_t first_record_offset = 0;
    {
        Wal wal(vfs_, dir_, {});
        wal.append(to_bytes("aaaa"));
        first_record_offset = Wal::kHeaderBytes;
        wal.append(to_bytes("bbbb"));
        wal.append(to_bytes("cccc"));
        wal.sync();
    }
    const auto segments = vfs_.list_dir(dir_);
    ASSERT_EQ(segments.size(), 1u);
    // Flip a payload byte of record 2: its CRC no longer matches.
    const std::uint64_t record2_payload =
        first_record_offset + Wal::kRecordHeaderBytes + 4 +
        Wal::kRecordHeaderBytes;
    corrupt_byte(segments[0], record2_payload);

    Wal wal(vfs_, dir_, {});
    EXPECT_TRUE(wal.tail_truncated_on_open());
    // Only the prefix before the corruption survives; the corrupted
    // record and everything after it are discarded, never applied.
    EXPECT_EQ(wal.last_lsn(), 1u);
    const auto records = drain(wal);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].second, "aaaa");
}

TEST_F(WalTest, TruncatedSegmentFileRecoversPrefix) {
    Wal::Options options;
    options.segment_bytes = 1 << 20;
    {
        Wal wal(vfs_, dir_, {options});
        for (int i = 0; i < 5; ++i) {
            wal.append(to_bytes("record-" + std::to_string(i)));
        }
        wal.sync();
    }
    const auto segments = vfs_.list_dir(dir_);
    ASSERT_EQ(segments.size(), 1u);
    // Chop the file mid-way through the last record.
    const auto size = vfs_.file_size(segments[0]);
    vfs_.truncate_file(segments[0], size - 5);

    Wal wal(vfs_, dir_, {options});
    EXPECT_TRUE(wal.tail_truncated_on_open());
    EXPECT_EQ(wal.last_lsn(), 4u);
    EXPECT_EQ(drain(wal).size(), 4u);
}

TEST_F(WalTest, TruncateThroughDropsCoveredSegments) {
    Wal::Options options;
    options.segment_bytes = 96;
    Wal wal(vfs_, dir_, {options});
    for (int i = 0; i < 40; ++i) {
        wal.append(to_bytes("x" + std::to_string(i)));
    }
    const std::size_t before = wal.num_segments();
    ASSERT_GT(before, 2u);
    const Lsn last = wal.last_lsn();
    wal.truncate_through(last);
    // Only the active segment may remain.
    EXPECT_LT(wal.num_segments(), before);
    // Remaining records replay without error and continue from last+1.
    EXPECT_EQ(wal.append(to_bytes("after")), last + 1);
    Wal reopened(vfs_, dir_, {options});
    EXPECT_EQ(reopened.last_lsn(), last + 1);
}

TEST_F(WalTest, EveryRecordSyncPolicySurvivesPowerLoss) {
    FaultInjectingVfs faulty(vfs_);
    Wal::Options options;
    options.sync_policy = SyncPolicy::kEveryRecord;
    {
        Wal wal(faulty, dir_, {options});
        wal.append(to_bytes("acked-1"));
        wal.append(to_bytes("acked-2"));
    }
    faulty.power_loss();  // drops anything unsynced — nothing, here
    faulty.reset();
    Wal wal(vfs_, dir_, {});
    EXPECT_EQ(wal.last_lsn(), 2u);
    EXPECT_EQ(drain(wal).size(), 2u);
}

TEST_F(WalTest, NoSyncPolicyLosesUnsyncedTailOnPowerLoss) {
    FaultInjectingVfs faulty(vfs_);
    Wal::Options options;
    options.sync_policy = SyncPolicy::kOnRotate;
    {
        Wal wal(faulty, dir_, {options});
        wal.append(to_bytes("lost-1"));
        wal.append(to_bytes("lost-2"));
        // no sync, no rotation: records sit in the "page cache"
    }
    faulty.power_loss();
    faulty.reset();
    Wal wal(vfs_, dir_, {});
    // The records are gone — exactly the documented kOnRotate window.
    EXPECT_EQ(wal.last_lsn(), 0u);
}

// ---------------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------------

TEST_F(WalTest, CheckpointRoundtrip) {
    CheckpointStore store(vfs_, dir_);
    EXPECT_FALSE(store.load_latest().has_value());
    store.write(7, to_bytes("snapshot-at-7"));
    const auto loaded = store.load_latest();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->lsn, 7u);
    EXPECT_EQ(loaded->snapshot, to_bytes("snapshot-at-7"));
}

TEST_F(WalTest, NewerCheckpointReplacesOlder) {
    CheckpointStore store(vfs_, dir_);
    store.write(3, to_bytes("old"));
    store.write(9, to_bytes("new"));
    const auto loaded = store.load_latest();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->lsn, 9u);
    EXPECT_EQ(loaded->snapshot, to_bytes("new"));
    // The old file was removed after the new one became durable.
    EXPECT_EQ(vfs_.list_dir(dir_).size(), 1u);
}

TEST_F(WalTest, CorruptCheckpointFallsBackToOlder) {
    CheckpointStore store(vfs_, dir_);
    store.write(3, to_bytes("good-old"));
    // Forge a newer, corrupt checkpoint by hand (write() would have
    // removed the older one, so build the file directly).
    store.write(9, to_bytes("good-new"));
    store.write(3, to_bytes("good-old"));  // re-create the older one
    const auto files = vfs_.list_dir(dir_);
    for (const auto& path : files) {
        if (path.filename().string().find("00000009") != std::string::npos) {
            corrupt_byte(path, 30);  // inside the snapshot body
        }
    }
    const auto loaded = store.load_latest();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->lsn, 3u);
    EXPECT_EQ(loaded->snapshot, to_bytes("good-old"));
}

// ---------------------------------------------------------------------------
// StorageEngine: checkpoint + replay orchestration
// ---------------------------------------------------------------------------

TEST_F(WalTest, EngineRecoversCheckpointPlusTail) {
    std::vector<std::string> applied;
    std::string restored;
    StorageEngine::Options options;
    options.wal.segment_bytes = 256;
    options.checkpoint_every_bytes = 0;  // manual checkpoints only
    {
        StorageEngine engine(
            vfs_, dir_, options,
            [&](BytesView s) { restored = to_string(s); },
            [&](BytesView p) { applied.push_back(to_string(p)); });
        log_one(engine, "op-1");
        log_one(engine, "op-2");
        engine.checkpoint(to_bytes("state-after-2"));
        log_one(engine, "op-3");
        log_one(engine, "op-4");
        engine.sync();
    }
    applied.clear();
    restored.clear();
    StorageEngine engine(
        vfs_, dir_, options,
        [&](BytesView s) { restored = to_string(s); },
        [&](BytesView p) { applied.push_back(to_string(p)); });
    EXPECT_EQ(restored, "state-after-2");
    ASSERT_EQ(applied.size(), 2u);
    EXPECT_EQ(applied[0], "op-3");
    EXPECT_EQ(applied[1], "op-4");
    EXPECT_TRUE(engine.recovery().had_checkpoint);
    EXPECT_EQ(engine.recovery().checkpoint_lsn, 2u);
    EXPECT_EQ(engine.last_lsn(), 4u);
    // Appends continue with fresh LSNs.
    EXPECT_EQ(log_one(engine, "op-5"), 5u);
}

TEST_F(WalTest, CrashBetweenCheckpointAndTruncateIsSafe) {
    // Model the crash window by building the on-disk state it leaves:
    // a durable checkpoint at LSN 2 while ALL log segments still exist.
    std::vector<std::string> applied;
    std::string restored;
    {
        Wal wal(vfs_, dir_ / "wal", {});
        wal.append(to_bytes("op-1"));
        wal.append(to_bytes("op-2"));
        wal.append(to_bytes("op-3"));
        wal.sync();
        CheckpointStore checkpoints(vfs_, dir_ / "checkpoints");
        checkpoints.write(2, to_bytes("state-after-2"));
        // crash here: truncate_through(2) never ran
    }
    StorageEngine::Options options;
    StorageEngine engine(
        vfs_, dir_, options,
        [&](BytesView s) { restored = to_string(s); },
        [&](BytesView p) { applied.push_back(to_string(p)); });
    EXPECT_EQ(restored, "state-after-2");
    // Records covered by the checkpoint are NOT replayed twice.
    ASSERT_EQ(applied.size(), 1u);
    EXPECT_EQ(applied[0], "op-3");
}

// ---------------------------------------------------------------------------
// Batched appends (group commit).
// ---------------------------------------------------------------------------

/// Vfs wrapper that counts File::sync() calls — evidence that a batch
/// costs one flush, not one per record.
class SyncCountingVfs final : public Vfs {
public:
    explicit SyncCountingVfs(Vfs& base) : base_(base) {}

    std::size_t syncs = 0;

    std::unique_ptr<File> open_append(const fs::path& path) override {
        return std::make_unique<CountingFile>(base_.open_append(path), *this);
    }
    std::unique_ptr<File> create_truncate(const fs::path& path) override {
        return std::make_unique<CountingFile>(base_.create_truncate(path),
                                              *this);
    }
    Bytes read_file(const fs::path& path) const override {
        return base_.read_file(path);
    }
    bool exists(const fs::path& path) const override {
        return base_.exists(path);
    }
    std::uint64_t file_size(const fs::path& path) const override {
        return base_.file_size(path);
    }
    std::vector<fs::path> list_dir(const fs::path& dir) const override {
        return base_.list_dir(dir);
    }
    void remove_file(const fs::path& path) override {
        base_.remove_file(path);
    }
    void truncate_file(const fs::path& path,
                       std::uint64_t new_size) override {
        base_.truncate_file(path, new_size);
    }
    void rename(const fs::path& from, const fs::path& to) override {
        base_.rename(from, to);
    }
    void create_directories(const fs::path& dir) override {
        base_.create_directories(dir);
    }
    void sync_dir(const fs::path& dir) override { base_.sync_dir(dir); }

private:
    class CountingFile final : public File {
    public:
        CountingFile(std::unique_ptr<File> inner, SyncCountingVfs& owner)
            : inner_(std::move(inner)), owner_(owner) {}
        void append(BytesView data) override { inner_->append(data); }
        void append_parts(BytesView header, BytesView payload) override {
            inner_->append_parts(header, payload);
        }
        void sync() override {
            ++owner_.syncs;
            inner_->sync();
        }
        void flush_async() override { inner_->flush_async(); }
        std::uint64_t size() const override { return inner_->size(); }

    private:
        std::unique_ptr<File> inner_;
        SyncCountingVfs& owner_;
    };

    Vfs& base_;
};

TEST_F(WalTest, AppendBatchAssignsSequentialLsnsAndReplays) {
    Wal wal(vfs_, dir_, {});
    const Bytes a = to_bytes("a"), b = to_bytes("b"), c = to_bytes("c");
    EXPECT_EQ(wal.append_batch({BytesView(a), BytesView(b), BytesView(c)}),
              3u);
    EXPECT_EQ(wal.append(to_bytes("d")), 4u);  // interleaves seamlessly
    const Bytes e = to_bytes("e");
    EXPECT_EQ(wal.append_batch({BytesView(e)}), 5u);
    const auto records = drain(wal);
    ASSERT_EQ(records.size(), 5u);
    EXPECT_EQ(records[0], (std::pair<Lsn, std::string>{1, "a"}));
    EXPECT_EQ(records[2], (std::pair<Lsn, std::string>{3, "c"}));
    EXPECT_EQ(records[4], (std::pair<Lsn, std::string>{5, "e"}));
}

TEST_F(WalTest, AppendBatchEmptyIsANoop) {
    Wal wal(vfs_, dir_, {});
    EXPECT_EQ(wal.append_batch({}), 0u);
    EXPECT_EQ(wal.last_lsn(), 0u);
}

TEST_F(WalTest, AppendBatchCostsOneFsyncUnderSyncEveryRecord) {
    SyncCountingVfs counting(vfs_);
    Wal::Options options;
    options.sync_policy = SyncPolicy::kEveryRecord;
    Wal wal(counting, dir_, options);

    const std::size_t baseline = counting.syncs;
    std::vector<Bytes> payloads;
    std::vector<BytesView> views;
    for (int i = 0; i < 16; ++i) {
        payloads.push_back(to_bytes("record-" + std::to_string(i)));
    }
    for (const Bytes& p : payloads) views.push_back(BytesView(p));
    wal.append_batch(views);
    // Group commit: 16 records, ONE flush.
    EXPECT_EQ(counting.syncs - baseline, 1u);

    const std::size_t before_serial = counting.syncs;
    for (const Bytes& p : payloads) wal.append(BytesView(p));
    // The serial path pays per record — the cost the batch amortizes.
    EXPECT_EQ(counting.syncs - before_serial, payloads.size());
}

TEST_F(WalTest, AppendBatchSurvivesReopenAndRotation) {
    Wal::Options options;
    options.segment_bytes = 128;  // force rotations inside the batch
    {
        Wal wal(vfs_, dir_, options);
        std::vector<Bytes> payloads;
        std::vector<BytesView> views;
        for (int i = 0; i < 32; ++i) {
            payloads.push_back(
                to_bytes("payload-" + std::to_string(i) + std::string(16, 'x')));
        }
        for (const Bytes& p : payloads) views.push_back(BytesView(p));
        EXPECT_EQ(wal.append_batch(views), 32u);
        EXPECT_GT(wal.num_segments(), 1u);
    }
    Wal reopened(vfs_, dir_, options);
    EXPECT_FALSE(reopened.tail_truncated_on_open());
    const auto records = drain(reopened);
    ASSERT_EQ(records.size(), 32u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].first, i + 1);
        EXPECT_EQ(records[i].second.substr(0, 8),
                  ("payload-" + std::to_string(i)).substr(0, 8));
    }
}

TEST_F(WalTest, EngineCheckpointDueFollowsThreshold) {
    StorageEngine::Options options;
    options.checkpoint_every_bytes = 64;
    StorageEngine engine(
        vfs_, dir_, options, [](BytesView) {}, [](BytesView) {});
    EXPECT_FALSE(engine.checkpoint_due());
    log_one(engine, "a long enough payload to cross the threshold");
    log_one(engine, "second payload");
    EXPECT_TRUE(engine.checkpoint_due());
    engine.checkpoint(to_bytes("snap"));
    EXPECT_FALSE(engine.checkpoint_due());
}

// -- read_from tail reader (the replication feed) ------------------------

TEST_F(WalTest, ReadFromDeliversBoundedBatchesInOrder) {
    Wal wal(vfs_, dir_, {});
    for (int i = 0; i < 10; ++i) wal.append(to_bytes("r" + std::to_string(i)));

    std::vector<std::pair<Lsn, std::string>> got;
    const auto sink = [&got](Lsn lsn, BytesView payload) {
        got.emplace_back(lsn, to_string(payload));
    };

    Wal::TailRead tail = wal.read_from(0, 4, sink);
    EXPECT_EQ(tail.records, 4u);
    EXPECT_EQ(tail.last_lsn, 4u);
    EXPECT_FALSE(tail.end_of_log);
    ASSERT_EQ(got.size(), 4u);
    EXPECT_EQ(got.front(), (std::pair<Lsn, std::string>{1, "r0"}));
    EXPECT_EQ(got.back(), (std::pair<Lsn, std::string>{4, "r3"}));

    got.clear();
    tail = wal.read_from(4, 4, sink);
    EXPECT_EQ(tail.records, 4u);
    EXPECT_EQ(tail.last_lsn, 8u);
    EXPECT_FALSE(tail.end_of_log);

    got.clear();
    tail = wal.read_from(8, 4, sink);
    EXPECT_EQ(tail.records, 2u);
    EXPECT_EQ(tail.last_lsn, 10u);
    EXPECT_TRUE(tail.end_of_log);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got.back(), (std::pair<Lsn, std::string>{10, "r9"}));

    // Caught-up reader: nothing delivered, end_of_log reported.
    got.clear();
    tail = wal.read_from(10, 4, sink);
    EXPECT_EQ(tail.records, 0u);
    EXPECT_EQ(tail.last_lsn, 0u);
    EXPECT_TRUE(tail.end_of_log);
    EXPECT_TRUE(got.empty());
}

TEST_F(WalTest, ReadFromSpansRotatedSegments) {
    Wal::Options options;
    options.segment_bytes = 96;  // tiny segments force rotation
    Wal wal(vfs_, dir_, options);
    for (int i = 0; i < 24; ++i) {
        wal.append(to_bytes("record-" + std::to_string(i)));
    }
    ASSERT_GT(wal.num_segments(), 2u);

    // One big read crosses every segment boundary in order.
    std::vector<Lsn> lsns;
    const Wal::TailRead all = wal.read_from(
        0, 100, [&lsns](Lsn lsn, BytesView) { lsns.push_back(lsn); });
    EXPECT_EQ(all.records, 24u);
    EXPECT_TRUE(all.end_of_log);
    ASSERT_EQ(lsns.size(), 24u);
    for (std::size_t i = 0; i < lsns.size(); ++i) EXPECT_EQ(lsns[i], i + 1);

    // A bounded read whose window straddles a boundary stays contiguous.
    lsns.clear();
    const Wal::TailRead window = wal.read_from(
        5, 6, [&lsns](Lsn lsn, BytesView) { lsns.push_back(lsn); });
    EXPECT_EQ(window.records, 6u);
    EXPECT_EQ(window.last_lsn, 11u);
    EXPECT_FALSE(window.end_of_log);
    ASSERT_EQ(lsns.size(), 6u);
    EXPECT_EQ(lsns.front(), 6u);
    EXPECT_EQ(lsns.back(), 11u);
}

TEST_F(WalTest, ReadFromSeesActiveSegmentRecordsImmediately) {
    Wal wal(vfs_, dir_, {});
    wal.append(to_bytes("unsynced"));  // no sync(): still only page cache
    std::vector<std::pair<Lsn, std::string>> got;
    const Wal::TailRead tail =
        wal.read_from(0, 10, [&got](Lsn lsn, BytesView payload) {
            got.emplace_back(lsn, to_string(payload));
        });
    EXPECT_EQ(tail.records, 1u);
    EXPECT_TRUE(tail.end_of_log);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], (std::pair<Lsn, std::string>{1, "unsynced"}));
}

TEST_F(WalTest, OldestLsnTracksTruncation) {
    Wal::Options options;
    options.segment_bytes = 96;
    Wal wal(vfs_, dir_, options);
    for (int i = 0; i < 24; ++i) {
        wal.append(to_bytes("record-" + std::to_string(i)));
    }
    EXPECT_EQ(wal.oldest_lsn(), 1u);
    wal.truncate_through(12);
    const Lsn oldest = wal.oldest_lsn();
    EXPECT_GT(oldest, 1u);
    EXPECT_LE(oldest, 13u);  // only fully-covered segments are deleted

    // A reader whose offset predates the retained head detects the gap
    // via oldest_lsn(); a reader at/after the head still reads cleanly.
    EXPECT_LT(0u + 1, oldest);  // the "needs snapshot" predicate
    std::vector<Lsn> lsns;
    const Wal::TailRead tail = wal.read_from(
        oldest - 1, 100, [&lsns](Lsn lsn, BytesView) { lsns.push_back(lsn); });
    EXPECT_TRUE(tail.end_of_log);
    ASSERT_FALSE(lsns.empty());
    EXPECT_EQ(lsns.front(), oldest);
    EXPECT_EQ(lsns.back(), 24u);
}

TEST_F(WalTest, EngineExposesTailReader) {
    StorageEngine::Options options;
    StorageEngine engine(
        vfs_, dir_, options, [](BytesView) {}, [](BytesView) {});
    log_one(engine, "alpha");
    log_one(engine, "beta");
    EXPECT_EQ(engine.oldest_lsn(), 1u);
    std::vector<std::pair<Lsn, std::string>> got;
    const Wal::TailRead tail =
        engine.read_from(1, 10, [&got](Lsn lsn, BytesView payload) {
            got.emplace_back(lsn, to_string(payload));
        });
    EXPECT_EQ(tail.records, 1u);
    EXPECT_TRUE(tail.end_of_log);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], (std::pair<Lsn, std::string>{2, "beta"}));
}

}  // namespace
}  // namespace mie::store
