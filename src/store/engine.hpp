// Storage engine: WAL + checkpoints + recovery, over opaque payloads.
//
// The engine knows nothing about MIE; it logs byte strings and stores
// byte-string snapshots. The owner (mie::DurableServer) decides what a
// payload means (a mutating RPC request) and what a snapshot holds (a
// stub naming a MIESNAP file).
//
// Layout under `dir`:
//   wal/         segment files (see wal.hpp)
//   checkpoints/ checkpoint files (see checkpoint.hpp)
//
// Recovery invariant: state(latest durable checkpoint) + ordered replay
// of every durable log record with lsn > checkpoint.lsn == the state at
// crash time, restricted to acknowledged operations (an operation is
// acknowledged only after its record is appended under the sync policy).
//
// Checkpoint policy: once `checkpoint_every_bytes` of log have
// accumulated past the last checkpoint, checkpoint_due() turns true; the
// owner then calls checkpoint(snapshot), which durably writes the
// checkpoint at last_lsn() and deletes fully-covered log segments. A
// crash between those two steps is safe: recovery replays from the new
// checkpoint and simply skips the not-yet-truncated older segments.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>

#include "store/checkpoint.hpp"
#include "store/file.hpp"
#include "store/wal.hpp"

namespace mie::store {

class StorageEngine {
public:
    struct Options {
        Wal::Options wal;
        /// Log bytes between checkpoints (0 disables automatic due-ness).
        /// Checkpoints serialize the full repository state, so the
        /// threshold is deliberately large: frequent checkpoints cost far
        /// more than the replay they save.
        std::uint64_t checkpoint_every_bytes = 64u << 20;
    };

    struct RecoveryResult {
        bool had_checkpoint = false;
        Lsn checkpoint_lsn = 0;
        std::size_t replayed_records = 0;
        bool tail_truncated = false;  ///< a torn/corrupt tail was discarded
        Lsn last_lsn = 0;             ///< log position after recovery
    };

    /// Opens the engine and runs recovery: if a valid checkpoint exists,
    /// `restore(snapshot)` is called first; then `apply(payload)` runs
    /// for each later durable log record in order. Appends are accepted
    /// after this returns.
    StorageEngine(Vfs& vfs, std::filesystem::path dir, Options options,
                  const std::function<void(BytesView)>& restore,
                  const std::function<void(BytesView)>& apply);

    const RecoveryResult& recovery() const { return recovery_; }

    /// Appends a batch of operation payloads with ONE sync-policy
    /// application at the end (group commit: a single fsync covers every
    /// record under kEveryRecord). All operations of the batch may be
    /// acknowledged once this returns; on IoError none may be.
    Lsn log_batch(const std::vector<BytesView>& payloads) {
        return wal_.append_batch(payloads);
    }

    /// Forces the log to stable storage (used on clean shutdown and by
    /// callers that batch syncs themselves).
    void sync() { wal_.sync(); }

    /// True when enough log has accumulated that the owner should take a
    /// snapshot and call checkpoint().
    bool checkpoint_due() const;

    /// Durably checkpoints `snapshot` as covering everything logged so
    /// far, then truncates fully-covered log segments.
    void checkpoint(BytesView snapshot);

    Lsn last_lsn() const { return wal_.last_lsn(); }
    Lsn last_checkpoint_lsn() const { return checkpoint_lsn_; }
    std::size_t num_wal_segments() const { return wal_.num_segments(); }

    /// Tail-reads logged payloads with lsn > `after` (replication feed).
    /// The caller must serialize against concurrent log_batch() and
    /// checkpoint() calls, exactly like those serialize with each other.
    Wal::TailRead read_from(
        Lsn after, std::size_t max_records,
        const std::function<void(Lsn, BytesView)>& fn) const {
        return wal_.read_from(after, max_records, fn);
    }

    /// First LSN still present (records below it were truncated by a
    /// checkpoint and can only be served as a snapshot).
    Lsn oldest_lsn() const { return wal_.oldest_lsn(); }

private:
    CheckpointStore checkpoints_;
    Wal wal_;
    Options options_;
    RecoveryResult recovery_;
    Lsn checkpoint_lsn_ = 0;
    std::uint64_t logged_since_checkpoint_base_ = 0;
};

}  // namespace mie::store
