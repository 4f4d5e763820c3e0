// Tracing decorators over the public interfaces the MIE stack accepts.
//
// Each probe forwards to the wrapped object unchanged and, while the
// global Recorder is enabled, records a span around the call plus the
// counts seen at that boundary. Nothing here reaches inside a module:
//
//   TracingTransport    net::Transport          client side of an RPC
//   TracingReadHandler  net::RequestHandler     reactor read path (exec pool)
//   TracingBatchHandler net::BatchRequestHandler what GroupCommitter drives
//   TracingVfs / File   store::Vfs, store::File what DurableServer writes to
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "net/batch.hpp"
#include "net/transport.hpp"
#include "store/file.hpp"
#include "trace.hpp"
#include "util/bytes.hpp"

namespace perfbench {

/// Request id as both ends of a connection compute it: the envelope's
/// (client id, seq) for mutations, digest plus occurrence otherwise.
class RequestIdentity {
public:
    std::uint64_t id_of(mie::BytesView request);

private:
    OccurrenceIds occurrences_;
};

/// Parsed tail of a SEARCH response (MieServer::SearchWork).
struct SearchTail {
    std::uint64_t results = 0;
    std::uint64_t postings_scored = 0;
    std::uint64_t query_descriptors = 0;
    std::uint64_t descriptors_kept = 0;
};
/// Parses a SEARCH response; throws std::out_of_range on a short reply.
SearchTail parse_search_tail(mie::BytesView response);

/// Result ids of a SEARCH response, in rank order.
std::vector<std::uint64_t> search_result_ids(mie::BytesView response);

/// True when `request` (enveloped or not) is a SEARCH.
bool is_search_request(mie::BytesView request);

/// Client-side RPC probe. Span names: "net.rpc.mutation", "net.rpc.search",
/// "net.rpc.train", "net.rpc.other", or `name_override` for every call
/// (the follower's replication link uses "cluster.pull").
class TracingTransport final : public mie::net::Transport {
public:
    TracingTransport(mie::net::Transport& inner, RequestIdentity& ids,
                     const char* name_override = nullptr)
        : inner_(inner), ids_(ids), name_override_(name_override) {}

    mie::Bytes call(mie::BytesView request) override;
    void reconnect() override { inner_.reconnect(); }
    double network_seconds() const override {
        return inner_.network_seconds();
    }

private:
    mie::net::Transport& inner_;
    RequestIdentity& ids_;
    const char* name_override_;
};

/// Server read-path probe: "mie.search" for SEARCH, "mie.read" otherwise.
class TracingReadHandler final : public mie::net::RequestHandler {
public:
    explicit TracingReadHandler(mie::net::RequestHandler& inner)
        : inner_(inner) {}
    mie::Bytes handle(mie::BytesView request) override;

private:
    mie::net::RequestHandler& inner_;
    RequestIdentity ids_;
};

/// Group-commit probe: one "mie.batch" span per handle_batch call (value =
/// batch size; the Vfs spans of the commit nest under it), plus one
/// "reactor.batch_member" span per enveloped request covering the same
/// interval, keyed by the request's envelope id, whose value is the batch
/// span's id. Members are not children, so they do not eat the batch's
/// self time.
class TracingBatchHandler final : public mie::net::BatchRequestHandler {
public:
    explicit TracingBatchHandler(mie::net::BatchRequestHandler& inner)
        : inner_(inner) {}
    std::vector<Result> handle_batch(
        const std::vector<mie::Bytes>& requests) override;

private:
    mie::net::BatchRequestHandler& inner_;
};

/// Storage probe. Files under a "snapshots" or "checkpoints" directory
/// belong to checkpoints ("store.checkpoint_io"); all other files are WAL
/// segments ("store.append", "store.fsync", count "store.wal_bytes"). A
/// "store.checkpoint" span runs from the snapshot file's creation to the
/// rename that publishes the checkpoint record.
class TracingVfs final : public mie::store::Vfs {
public:
    explicit TracingVfs(mie::store::Vfs& inner) : inner_(inner) {}

    std::unique_ptr<mie::store::File> open_append(
        const std::filesystem::path& path) override;
    std::unique_ptr<mie::store::File> create_truncate(
        const std::filesystem::path& path) override;
    mie::Bytes read_file(const std::filesystem::path& path) const override {
        return inner_.read_file(path);
    }
    bool exists(const std::filesystem::path& path) const override {
        return inner_.exists(path);
    }
    std::uint64_t file_size(const std::filesystem::path& path) const override {
        return inner_.file_size(path);
    }
    std::vector<std::filesystem::path> list_dir(
        const std::filesystem::path& dir) const override {
        return inner_.list_dir(dir);
    }
    void remove_file(const std::filesystem::path& path) override;
    void truncate_file(const std::filesystem::path& path,
                       std::uint64_t new_size) override {
        inner_.truncate_file(path, new_size);
    }
    void rename(const std::filesystem::path& from,
                const std::filesystem::path& to) override;
    void create_directories(const std::filesystem::path& dir) override {
        inner_.create_directories(dir);
    }
    void sync_dir(const std::filesystem::path& dir) override;

private:
    mie::store::Vfs& inner_;
    std::mutex mutex_;
    std::int64_t checkpoint_start_ns_ = -1;  // guarded by mutex_
};

}  // namespace perfbench
