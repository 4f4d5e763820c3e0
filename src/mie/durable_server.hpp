// Durable MIE cloud server: MieServer + write-ahead logging + recovery.
//
// Wraps the in-memory MieServer behind the same net::RequestHandler
// interface. Every mutating opcode (CREATE/UPDATE/REMOVE/TRAIN) is
// appended to a CRC-protected segmented WAL *before* the response is
// returned, so an acknowledged operation survives a crash; read opcodes
// (SEARCH/STATS/LIST_OBJECTS) pass straight through and still enjoy the
// inner server's shared per-repository locking.
//
// Construction runs recovery: the newest durable checkpoint — a stub
// naming a MIESNAP snapshot file (index/snapshot.hpp) — is mapped and
// attached, then later WAL records are replayed in order. A checkpoint
// that is not such a stub, or whose file is damaged, falls back to full
// WAL replay when the whole log is present and throws otherwise. Replay
// is deterministic because log records are the verbatim RPC request bytes
// and the inner server applies them exactly as it did originally
// (training is deterministic in (data, seed)).
//
// A threshold policy turns the log into checkpoints: once
// `checkpoint_every_bytes` of log accumulate, the next mutating request
// also snapshots the server, durably writes the checkpoint, and
// truncates covered WAL segments.
//
// Mutations serialize on one log mutex — the WAL is a single append
// point, and holding the mutex across apply+append keeps memory order
// and log order identical (replay must converge to the acknowledged
// state even when concurrent writers race on the same object id).
// Searches and other reads never take the log mutex.
// Idempotent replay: requests may arrive wrapped in the idempotency
// envelope of net/envelope.hpp. Mutating envelopes are deduplicated
// through a bounded replay cache — a client retry whose original was
// applied (but whose response was lost in transit) gets the original
// response back without re-applying. Enveloped requests are logged
// verbatim, so recovery replay rebuilds the cache and dedup survives a
// server crash: at-least-once delivery, exactly-once application.
// Group commit: handle_batch() is the one commit path. It applies a
// whole batch of mutating requests under one log-mutex acquisition and
// appends all of their WAL records with a single fsync
// (store::Wal::append_batch), amortizing the kEveryRecord flush across
// the batch. No request of the batch is acknowledged before every record
// of the batch is durable. handle() commits a mutation as a one-element
// batch.
#pragma once

#include <filesystem>
#include <mutex>
#include <vector>

#include "mie/server.hpp"
#include "net/batch.hpp"
#include "net/envelope.hpp"
#include "store/engine.hpp"

namespace mie {

class DurableServer final : public net::RequestHandler,
                            public net::BatchRequestHandler {
public:
    /// WAL and checkpoint settings. Checkpoints are always MIESNAP
    /// snapshot files referenced from the engine's checkpoint record by
    /// a tiny stub, so reopening maps the file in O(1) and repositories
    /// materialize lazily on first touch.
    using Options = store::StorageEngine::Options;

    /// Opens (and recovers) the durable server in `dir`. `vfs` must
    /// outlive the server; pass store::PosixVfs::instance() outside
    /// tests.
    DurableServer(store::Vfs& vfs, const std::filesystem::path& dir,
                  Options options = {});

    /// Applies the request; a mutating request is committed as a
    /// one-element handle_batch(), so it is logged before the response is
    /// returned, and its slot's error is rethrown. Throws store::IoError
    /// if logging fails — the caller must treat the operation as not
    /// acknowledged.
    Bytes handle(BytesView request) override;

    /// Group-committed variant: applies every request of the batch in
    /// order, appends all of their log records, then makes them durable
    /// with ONE sync-policy application before returning — so the
    /// committer can ack the whole batch after a single fsync. Failures
    /// are per-request (an invalid request yields its exception in that
    /// slot); a log-write failure fails every applied-but-unlogged slot,
    /// none of which may be acknowledged. Replayed envelopes — across
    /// batches or within one — are answered from the dedup cache without
    /// re-applying.
    std::vector<net::BatchRequestHandler::Result> handle_batch(
        const std::vector<Bytes>& requests) override;

    /// Durability bookkeeping for tests, benchmarks, and ops probes.
    struct DurabilityStats {
        std::size_t records_logged = 0;      ///< since open
        std::size_t checkpoints_written = 0;  ///< since open
        std::size_t recovered_records = 0;    ///< replayed at open
        bool recovered_from_checkpoint = false;
        bool tail_truncated = false;  ///< open discarded a torn tail
        store::Lsn last_lsn = 0;
        /// Replayed envelopes answered from the replay cache (the
        /// mutation was NOT re-applied).
        std::size_t replays_suppressed = 0;
        /// Group commit: handle_batch calls that logged >= 1 record, and
        /// the largest number of records one batch committed.
        std::size_t batches_committed = 0;
        std::size_t max_batch_records = 0;
    };
    DurabilityStats durability() const;

    /// Forces a checkpoint now (clean shutdown, tests).
    void checkpoint_now();

    /// Flushes the WAL to stable storage.
    void sync();

    // -- Replication feed (cluster::ReplicationSource) -------------------
    //
    // A follower replays this server's WAL records through its own
    // handle() path; because records are the verbatim (enveloped) RPC
    // bytes, the follower's state machine, replay cache, and local WAL
    // all rebuild exactly as the primary's did.

    /// Tail-reads logged records with lsn > `after`, up to `max_records`,
    /// under the log mutex (serialized with appends and checkpoints).
    /// Returns the Wal tail-read outcome.
    store::Wal::TailRead read_log_from(
        store::Lsn after, std::size_t max_records,
        const std::function<void(store::Lsn, BytesView)>& fn) const;

    /// First LSN still present in the log. A replication reader whose
    /// offset predates this needs replication_snapshot() instead.
    store::Lsn oldest_log_lsn() const;

    /// A consistent (snapshot, covering-lsn) pair taken under the log
    /// mutex: replaying records with lsn > lsn on top of `snapshot`
    /// reproduces this server's acknowledged state. `snapshot` is a
    /// MIESNAP image (index/snapshot.hpp) carrying the trained trees and
    /// indexes, so installing it needs no retraining.
    struct ReplicationSnapshot {
        Bytes snapshot;
        store::Lsn lsn = 0;
    };
    ReplicationSnapshot replication_snapshot() const;

    /// Replaces this server's state with a replication_snapshot() image:
    /// validates every byte of it (throws index::SnapshotError, changing
    /// nothing, on a bad image), publishes it as this server's checkpoint
    /// exactly as a mapped checkpoint is written, then attaches it.
    void install_replication_snapshot(BytesView image);

    /// The wrapped in-memory server (stats() etc. bypass the wire).
    MieServer& server() { return inner_; }
    const MieServer& server() const { return inner_; }

private:
    void maybe_checkpoint_locked();
    void write_checkpoint_locked();
    /// Writes `image` as snapshots/snapshot-<lsn>.misnap, logs the
    /// MIESREF checkpoint stub referencing it, and sweeps older files.
    void publish_snapshot_locked(BytesView image);

    MieServer inner_;
    /// (client, seq) -> response for enveloped mutations, rebuilt from
    /// the WAL during recovery. Declared before engine_: the engine's
    /// recovery replay inserts into it.
    // mielint: guarded_by(log_mutex_)
    net::ReplayCache replay_cache_;
    /// Snapshot-file plumbing; declared before engine_ because the
    /// engine's recovery restore callback reads them.
    store::Vfs& vfs_;
    std::filesystem::path dir_;
    store::StorageEngine engine_;
    /// Serializes mutating ops end-to-end (apply + log + checkpoint) so
    /// WAL order matches application order. Lock order: log_mutex_
    /// before the inner server's locks.
    mutable std::mutex log_mutex_;
    // mielint: guarded_by(log_mutex_)
    std::size_t records_logged_ = 0;
    // mielint: guarded_by(log_mutex_)
    std::size_t checkpoints_written_ = 0;
    // mielint: guarded_by(log_mutex_)
    std::size_t replays_suppressed_ = 0;
    // mielint: guarded_by(log_mutex_)
    std::size_t batches_committed_ = 0;
    // mielint: guarded_by(log_mutex_)
    std::size_t max_batch_records_ = 0;
};

}  // namespace mie
