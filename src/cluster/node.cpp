#include "cluster/node.hpp"

#include <algorithm>
#include <string_view>

#include "mie/wire.hpp"
#include "net/envelope.hpp"
#include "net/message.hpp"

namespace mie::cluster {
namespace {

/// `<dir>/repl-offset` layout: 8-byte magic + u64 LE acknowledged LSN.
/// Written crash-atomically; a missing/short/mismatched file reads as 0
/// (the replicator then re-pulls from the start, and dedup absorbs the
/// overlap — losing the offset file is a performance bug, not a
/// correctness bug).
constexpr std::string_view kOffsetMagic = "MIEROFF1";
constexpr std::size_t kOffsetFileSize = 16;

}  // namespace

Node::Node(store::Vfs& vfs, const std::filesystem::path& dir,
           NodeOptions options)
    : vfs_(vfs),
      offset_path_(dir / "repl-offset"),
      durable_(vfs, dir, options.storage),
      source_(durable_, options.max_pull_records),
      role_(options.role) {
    load_replication_offset();
}

Role Node::role() const {
    const std::scoped_lock lock(mutex_);
    return role_;
}

void Node::promote() {
    const std::scoped_lock lock(mutex_);
    role_ = Role::kPrimary;
}

Bytes Node::handle(BytesView request) {
    if (request.empty()) {
        throw std::invalid_argument("cluster::Node: empty request");
    }
    // Cluster control ops are node-to-node traffic and never enveloped;
    // a leading 0xE7 byte always means an enveloped client request.
    if (request[0] != net::kEnvelopeMagic && is_cluster_op(request[0])) {
        return handle_cluster(request);
    }
    if (is_mutating_request(request) && role() != Role::kPrimary) {
        throw NotPrimaryError();
    }
    return durable_.handle(request);
}

std::vector<net::BatchRequestHandler::Result> Node::handle_batch(
    const std::vector<Bytes>& requests) {
    if (role() == Role::kPrimary) return durable_.handle_batch(requests);
    std::vector<net::BatchRequestHandler::Result> results(requests.size());
    const std::exception_ptr error =
        std::make_exception_ptr(NotPrimaryError());
    for (auto& result : results) result.error = error;
    return results;
}

Bytes Node::handle_cluster(BytesView request) {
    net::MessageReader reader(request);
    const auto op = static_cast<ClusterOp>(reader.read_u8());
    net::MessageWriter writer;
    switch (op) {
        case ClusterOp::kReplPull:
            return source_.serve_pull(reader);
        case ClusterOp::kReplState: {
            const std::scoped_lock lock(mutex_);
            writer.write_u8(static_cast<std::uint8_t>(role_));
            writer.write_u64(durable_.durability().last_lsn);
            writer.write_u64(role_ == Role::kPrimary
                                 ? durable_.durability().last_lsn
                                 : acked_lsn_);
            return writer.take();
        }
        case ClusterOp::kPromote:
            promote();
            writer.write_u8(1);
            return writer.take();
    }
    throw std::invalid_argument("cluster::Node: unknown cluster opcode");
}

void Node::apply_replicated(std::uint64_t source_lsn, BytesView record) {
    const std::scoped_lock lock(mutex_);
    // Promotion may race an in-flight pull: the check lives under the
    // same lock that promote() takes, so a record that lost the race can
    // never slide in after the role flip.
    if (role_ == Role::kPrimary) throw NotFollowerError();
    if (source_lsn <= acked_lsn_) {
        ++repl_stats_.records_skipped;
        return;
    }
    // Full durable path: the record re-applies (or is suppressed by the
    // replay cache when this is a crash-recovery overlap), re-logs into
    // the follower's own WAL, and lands in the follower's replay cache —
    // the follower stays promotable at every record boundary.
    durable_.handle(record);
    acked_lsn_ = source_lsn;
    acked_dirty_ = true;
    ++repl_stats_.records_applied;
}

void Node::restore_replication_snapshot(std::uint64_t snapshot_lsn,
                                        BytesView snapshot) {
    const std::scoped_lock lock(mutex_);
    if (role_ == Role::kPrimary) throw NotFollowerError();
    // Installed as a local checkpoint too: the restored state must not be
    // combined with this node's pre-existing WAL suffix on a later
    // recovery. A bad image throws before anything changes.
    durable_.install_replication_snapshot(snapshot);
    acked_lsn_ = snapshot_lsn;
    acked_dirty_ = true;
    ++repl_stats_.snapshots_restored;
}

void Node::flush_replication_offset() {
    const std::scoped_lock lock(mutex_);
    if (!acked_dirty_) return;
    Bytes data;
    data.reserve(kOffsetFileSize);
    data.insert(data.end(), kOffsetMagic.begin(), kOffsetMagic.end());
    for (int i = 0; i < 8; ++i) {
        data.push_back(static_cast<std::uint8_t>(acked_lsn_ >> (8 * i)));
    }
    store::atomic_write_file(vfs_, offset_path_, data);
    acked_dirty_ = false;
}

std::uint64_t Node::acked_lsn() const {
    const std::scoped_lock lock(mutex_);
    return acked_lsn_;
}

Node::ReplicationStats Node::replication() const {
    const std::scoped_lock lock(mutex_);
    return repl_stats_;
}

void Node::load_replication_offset() {
    if (!vfs_.exists(offset_path_)) return;
    const Bytes data = vfs_.read_file(offset_path_);
    if (data.size() != kOffsetFileSize ||
        !std::equal(kOffsetMagic.begin(), kOffsetMagic.end(), data.begin())) {
        return;  // unreadable offset: re-pull from 0, dedup absorbs it
    }
    std::uint64_t lsn = 0;
    for (int i = 0; i < 8; ++i) {
        lsn |= static_cast<std::uint64_t>(data[8 + static_cast<std::size_t>(i)])
               << (8 * i);
    }
    // mielint: allow(R8): ctor-only helper; no other thread exists yet
    acked_lsn_ = lsn;
}

}  // namespace mie::cluster
