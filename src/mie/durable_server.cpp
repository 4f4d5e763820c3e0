#include "mie/durable_server.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "index/snapshot.hpp"
#include "mie/wire.hpp"

namespace mie {

namespace {

/// Every checkpoint record is a stub referencing a MIESNAP file under
/// dir/snapshots/: 8-byte magic "MIESREF\n" followed by the raw file
/// name.
constexpr char kSnapshotStubMagic[8] = {'M', 'I', 'E', 'S',
                                        'R', 'E', 'F', '\n'};

bool is_snapshot_stub(BytesView payload) {
    return payload.size() > sizeof(kSnapshotStubMagic) &&
           std::memcmp(payload.data(), kSnapshotStubMagic,
                       sizeof(kSnapshotStubMagic)) == 0;
}

std::string stub_file_name(BytesView payload) {
    return std::string(payload.begin() + sizeof(kSnapshotStubMagic),
                       payload.end());
}

std::string snapshot_file_name(store::Lsn lsn) {
    char name[40];
    std::snprintf(name, sizeof(name), "snapshot-%020llu.misnap",
                  static_cast<unsigned long long>(lsn));
    return name;
}

/// A request with its idempotency envelope, if any, peeled off.
struct Unwrapped {
    std::optional<net::Envelope> env;
    BytesView inner;

    bool mutating() const {
        return is_mutating(static_cast<MieOp>(inner[0]));
    }
};

Unwrapped unwrap(BytesView request) {
    if (request.empty()) {
        throw std::invalid_argument("DurableServer: empty request");
    }
    Unwrapped unwrapped{net::parse_envelope(request), request};
    if (unwrapped.env) unwrapped.inner = unwrapped.env->inner;
    if (unwrapped.inner.empty()) {
        throw std::invalid_argument("DurableServer: empty request");
    }
    return unwrapped;
}

}  // namespace

DurableServer::DurableServer(store::Vfs& vfs,
                             const std::filesystem::path& dir,
                             Options options)
    : vfs_(vfs),
      dir_(dir),
      engine_(
          vfs, dir, options,
          [this](BytesView checkpoint) {
              if (!is_snapshot_stub(checkpoint)) {
                  throw index::SnapshotError(
                      "DurableServer: checkpoint is not a MIESREF stub");
              }
              // O(1) restart: map the referenced snapshot file and attach
              // it; repositories materialize lazily on first touch. The
              // eager CRC pass makes ANY corruption throw here — before
              // state is mutated — so the engine can still fall back to
              // full WAL replay.
              auto mapped = index::MappedSnapshot::open(
                  dir_ / "snapshots" / stub_file_name(checkpoint));
              mapped->verify_all_sections();
              inner_.attach_mapped_snapshot(std::move(mapped));
          },
          [this](BytesView payload) {
              // Enveloped records re-enter the replay cache during
              // recovery, so a client retry that straddles a crash is
              // still deduplicated (the inner apply regenerates the
              // original response deterministically).
              const auto env = net::parse_envelope(payload);
              Bytes response = inner_.handle(env ? env->inner : payload);
              if (env) {
                  replay_cache_.insert(env->client_id, env->seq,
                                       std::move(response));
              }
          }) {}

Bytes DurableServer::handle(BytesView request) {
    const Unwrapped unwrapped = unwrap(request);
    // Reads answer before the log mutex: searches never wait on commits.
    if (!unwrapped.mutating()) return inner_.handle(unwrapped.inner);
    auto result =
        std::move(handle_batch({Bytes(request.begin(), request.end())})[0]);
    if (result.error) std::rethrow_exception(result.error);
    return std::move(result.response);
}

std::vector<net::BatchRequestHandler::Result> DurableServer::handle_batch(
    const std::vector<Bytes>& requests) {
    std::vector<net::BatchRequestHandler::Result> results(requests.size());
    if (requests.empty()) return results;

    const std::scoped_lock lock(log_mutex_);
    // Applied-but-not-yet-logged requests of this batch. Replay-cache
    // inserts are staged and performed only after the batch is durable,
    // so a log failure cannot leave a cached response for a lost
    // mutation.
    struct Staged {
        enum class Kind : std::uint8_t {
            kPlain,      ///< mutating, not enveloped
            kEnveloped,  ///< mutating, cache (client_id, seq) after commit
            kDuplicate,  ///< within-batch replay of an earlier kEnveloped
        };
        std::size_t index;
        Kind kind = Kind::kPlain;
        std::uint64_t client_id = 0;
        std::uint64_t seq = 0;
    };
    std::vector<Staged> staged;
    std::vector<BytesView> to_log;

    for (std::size_t i = 0; i < requests.size(); ++i) {
        const BytesView request = requests[i];
        try {
            const Unwrapped unwrapped = unwrap(request);
            const auto& env = unwrapped.env;
            if (!unwrapped.mutating()) {
                // Read-only requests need no logging; answer in place so
                // a mixed batch keeps per-request ordering.
                results[i].response = inner_.handle(unwrapped.inner);
                continue;
            }
            if (env) {
                if (const Bytes* cached =
                        replay_cache_.lookup(env->client_id, env->seq)) {
                    ++replays_suppressed_;
                    results[i].response = *cached;
                    continue;
                }
                // A duplicate WITHIN this batch: the earlier occurrence
                // was applied and staged; answer with its response after
                // commit. Clients are synchronous, so this only happens
                // when a retransmit lands in the same batch as its
                // original — both then share the original's fate.
                bool duplicate = false;
                for (const Staged& s : staged) {
                    if (s.kind == Staged::Kind::kEnveloped &&
                        s.client_id == env->client_id && s.seq == env->seq) {
                        ++replays_suppressed_;
                        staged.push_back(Staged{i,
                                                Staged::Kind::kDuplicate,
                                                env->client_id, env->seq});
                        duplicate = true;
                        break;
                    }
                }
                if (duplicate) continue;
            }
            results[i].response = inner_.handle(unwrapped.inner);
            to_log.push_back(request);
            staged.push_back(
                env ? Staged{i, Staged::Kind::kEnveloped, env->client_id,
                             env->seq}
                    : Staged{i});
        } catch (...) {
            results[i].error = std::current_exception();
        }
    }

    if (to_log.empty()) return results;
    try {
        // One append_batch = one fsync for every record staged above;
        // nothing below is an acknowledgement until this returns.
        engine_.log_batch(to_log);
    } catch (...) {
        // The batch is not durable: none of the applied requests may be
        // acknowledged. Recovery discards the torn suffix; clients retry
        // through the envelope.
        const std::exception_ptr error = std::current_exception();
        for (const Staged& s : staged) {
            results[s.index].response.clear();
            results[s.index].error = error;
        }
        return results;
    }
    for (const Staged& s : staged) {
        if (s.kind == Staged::Kind::kEnveloped) {
            replay_cache_.insert(s.client_id, s.seq,
                                 results[s.index].response);
        } else if (s.kind == Staged::Kind::kDuplicate) {
            // The original committed just above; copy its response.
            if (const Bytes* cached =
                    replay_cache_.lookup(s.client_id, s.seq)) {
                results[s.index].response = *cached;
            }
        }
    }
    records_logged_ += to_log.size();
    ++batches_committed_;
    max_batch_records_ = std::max(max_batch_records_, to_log.size());
    maybe_checkpoint_locked();
    return results;
}

store::Wal::TailRead DurableServer::read_log_from(
    store::Lsn after, std::size_t max_records,
    const std::function<void(store::Lsn, BytesView)>& fn) const {
    const std::scoped_lock lock(log_mutex_);
    return engine_.read_from(after, max_records, fn);
}

store::Lsn DurableServer::oldest_log_lsn() const {
    const std::scoped_lock lock(log_mutex_);
    return engine_.oldest_lsn();
}

DurableServer::ReplicationSnapshot DurableServer::replication_snapshot()
    const {
    // Lock order: log_mutex_ before the inner server's locks (same as the
    // checkpoint path), so the snapshot is a consistent cut at last_lsn.
    const std::scoped_lock lock(log_mutex_);
    ReplicationSnapshot snap;
    snap.snapshot = inner_.export_mapped_snapshot();
    snap.lsn = engine_.last_lsn();
    return snap;
}

void DurableServer::install_replication_snapshot(BytesView image) {
    // Validate first (layout + every section CRC), so a bad image throws
    // before the disk or the in-memory state changes.
    auto mapped =
        index::MappedSnapshot::from_bytes(Bytes(image.begin(), image.end()));
    mapped->verify_all_sections();
    const std::scoped_lock lock(log_mutex_);
    // Publish before attaching: the image becomes this server's
    // checkpoint, so the local WAL suffix it supersedes is dead for every
    // later recovery.
    publish_snapshot_locked(image);
    inner_.attach_mapped_snapshot(std::move(mapped));
}

// mielint: acquires(log_mutex_)
void DurableServer::maybe_checkpoint_locked() {
    if (!engine_.checkpoint_due()) return;
    write_checkpoint_locked();
}

// mielint: acquires(log_mutex_)
void DurableServer::write_checkpoint_locked() {
    publish_snapshot_locked(inner_.export_mapped_snapshot());
}

// mielint: acquires(log_mutex_)
void DurableServer::publish_snapshot_locked(BytesView image) {
    // Ordering for crash safety: the snapshot file is published first
    // (atomically), then the checkpoint record that references it. A
    // crash in between leaves an unreferenced file that the next
    // successful checkpoint's sweep removes. The LSN is stable across
    // both steps because the log mutex is held.
    const store::Lsn lsn = engine_.last_lsn();
    const std::string name = snapshot_file_name(lsn);
    const std::filesystem::path snap_dir = dir_ / "snapshots";
    vfs_.create_directories(snap_dir);
    store::atomic_write_file(vfs_, snap_dir / name, image);
    Bytes stub(kSnapshotStubMagic,
               kSnapshotStubMagic + sizeof(kSnapshotStubMagic));
    stub.insert(stub.end(), name.begin(), name.end());
    engine_.checkpoint(stub);
    ++checkpoints_written_;
    // Sweep superseded snapshot files. Deleting a file that a still-lazy
    // repository has mapped is safe: the mapping pins the inode.
    for (const auto& entry : vfs_.list_dir(snap_dir)) {
        if (entry.filename() != name) vfs_.remove_file(entry);
    }
}

void DurableServer::checkpoint_now() {
    const std::scoped_lock lock(log_mutex_);
    write_checkpoint_locked();
}

void DurableServer::sync() {
    const std::scoped_lock lock(log_mutex_);
    engine_.sync();
}

DurableServer::DurabilityStats DurableServer::durability() const {
    const std::scoped_lock lock(log_mutex_);
    DurabilityStats stats;
    stats.records_logged = records_logged_;
    stats.checkpoints_written = checkpoints_written_;
    stats.recovered_records = engine_.recovery().replayed_records;
    stats.recovered_from_checkpoint = engine_.recovery().had_checkpoint;
    stats.tail_truncated = engine_.recovery().tail_truncated;
    stats.last_lsn = engine_.last_lsn();
    stats.replays_suppressed = replays_suppressed_;
    stats.batches_committed = batches_committed_;
    stats.max_batch_records = max_batch_records_;
    return stats;
}

}  // namespace mie
