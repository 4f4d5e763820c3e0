// A cluster node: one shard replica = role gate + DurableServer.
//
// Every node hosts a full durable MIE server (WAL, checkpoints, replay
// cache) plus the cluster control plane (mie::ClusterOp). The role gate
// is the only difference between replicas of a shard:
//
//   - kPrimary:  accepts client mutations (logged before ack, as always)
//     and serves the replication feed (kReplPull) to its followers;
//   - kFollower: rejects client mutations with NotPrimaryError, applies
//     replicated records through apply_replicated(), and answers reads —
//     a follower is also a valid (possibly stale) read replica.
//
// Failover = kPromote: the follower flips its role and immediately
// accepts mutations. Safety rests on two invariants rather than on any
// handshake: (1) clients only treat a response as applied after the
// primary logged it, and the fault-matrix tests only require *acked*
// operations to survive; (2) replayed client retries after failover are
// absorbed by the follower's replay cache, which was rebuilt verbatim
// from the shipped WAL records — exactly-once holds across the promote.
//
// The acknowledged replication offset (highest source LSN applied) is
// persisted crash-atomically to `<dir>/repl-offset` so a restarted
// follower resumes pulling where it left off. The persisted value may
// lag the locally-logged truth (crash between apply and flush); the
// re-pulled overlap is deduplicated by the envelope replay cache.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "cluster/replication.hpp"
#include "mie/durable_server.hpp"
#include "net/batch.hpp"
#include "store/file.hpp"
#include "util/bytes.hpp"

namespace mie::cluster {

enum class Role : std::uint8_t {
    kFollower = 0,
    kPrimary = 1,
};

/// A client mutation reached a follower. In-process callers catch this
/// directly; over TCP the connection teardown surfaces as a transport
/// error and the ClusterClient's failover logic takes over either way.
class NotPrimaryError : public std::runtime_error {
public:
    NotPrimaryError() : std::runtime_error(
        "cluster: node is not the primary for this shard") {}
};

/// Replication application reached a primary. Fires when a Replicator
/// keeps pumping into a node that was promoted mid-pull (failover raced
/// an in-flight kReplPull): a primary accepting client mutations must
/// never also apply a stale primary's records, or the replicas diverge
/// silently under split-brain. The pump owner must stop replicating —
/// the promoted node is the shard's source of truth now.
class NotFollowerError : public std::runtime_error {
public:
    NotFollowerError() : std::runtime_error(
        "cluster: node is not a follower; refusing to apply "
        "replicated state onto a primary") {}
};

struct NodeOptions {
    Role role = Role::kPrimary;
    DurableServer::Options storage;
    /// Cap on records per kReplPull response served by this node.
    std::size_t max_pull_records = 256;
};

class Node final : public net::RequestHandler, public net::BatchRequestHandler {
public:
    /// Opens (and recovers) the node's durable state in `dir`, including
    /// the persisted replication offset if present.
    Node(store::Vfs& vfs, const std::filesystem::path& dir,
         NodeOptions options = {});

    /// Dispatches cluster control ops, role-gates client mutations, and
    /// forwards everything else to the durable server.
    Bytes handle(BytesView request) override;

    /// Group-commit entry point (reactor). On a follower every slot
    /// fails with NotPrimaryError — the committer only ever receives
    /// mutating requests.
    std::vector<net::BatchRequestHandler::Result> handle_batch(
        const std::vector<Bytes>& requests) override;

    Role role() const;

    /// Follower -> primary takeover (idempotent).
    void promote();

    // -- Follower-side replication application (driven by Replicator) ----

    /// Applies one shipped WAL record tagged with the source's LSN.
    /// Records at or below the acknowledged offset are skipped; fresh
    /// records run through the full durable handle() path (re-apply,
    /// re-log, replay-cache insert) and advance the offset in memory.
    /// Throws NotFollowerError on a primary (promotion raced the pull).
    void apply_replicated(std::uint64_t source_lsn, BytesView record);

    /// Bootstrap path: installs the source's MIESNAP image as local state
    /// and local checkpoint (so the stale local WAL suffix is dead; no
    /// retraining), and fast-forwards the acknowledged offset to
    /// `snapshot_lsn`. Throws NotFollowerError on a primary (promotion
    /// raced the pull) and index::SnapshotError on a malformed image;
    /// either way nothing changes.
    void restore_replication_snapshot(std::uint64_t snapshot_lsn,
                                      BytesView snapshot);

    /// Crash-atomically persists the in-memory acknowledged offset (no-op
    /// when unchanged since the last flush).
    void flush_replication_offset();

    /// Highest source LSN applied (the acknowledged replication offset).
    std::uint64_t acked_lsn() const;

    struct ReplicationStats {
        std::size_t records_applied = 0;    ///< fresh records applied
        std::size_t records_skipped = 0;    ///< at/below the acked offset
        std::size_t snapshots_restored = 0;
    };
    ReplicationStats replication() const;

    DurableServer& durable() { return durable_; }
    const DurableServer& durable() const { return durable_; }

private:
    Bytes handle_cluster(BytesView request);
    void load_replication_offset();

    store::Vfs& vfs_;
    std::filesystem::path offset_path_;
    DurableServer durable_;
    ReplicationSource source_;
    /// Guards role_ and the replication offset/stats; held across the
    /// follower-side apply so offset checks and the durable apply are
    /// atomic. Lock order: mutex_ before durable_'s log mutex (nothing
    /// inside DurableServer calls back into the node).
    mutable std::mutex mutex_;
    // mielint: guarded_by(mutex_)
    Role role_;
    // mielint: guarded_by(mutex_)
    std::uint64_t acked_lsn_ = 0;
    // mielint: guarded_by(mutex_)
    bool acked_dirty_ = false;
    // mielint: guarded_by(mutex_)
    ReplicationStats repl_stats_;
};

}  // namespace mie::cluster
