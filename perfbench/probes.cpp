#include "probes.hpp"

#include <stdexcept>

#include "mie/wire.hpp"
#include "net/envelope.hpp"
#include "net/message.hpp"

namespace perfbench {
namespace {

using mie::Bytes;
using mie::BytesView;

Recorder& rec() { return Recorder::global(); }

const char* rpc_span_name(BytesView request) {
    const BytesView inner = mie::net::envelope_inner(request);
    if (inner.empty()) return "net.rpc.other";
    if (mie::is_cluster_op(inner[0])) return "net.rpc.other";
    switch (static_cast<mie::MieOp>(inner[0])) {
        case mie::MieOp::kUpdate:
        case mie::MieOp::kRemove: return "net.rpc.mutation";
        case mie::MieOp::kSearch: return "net.rpc.search";
        case mie::MieOp::kTrain: return "net.rpc.train";
        default: return "net.rpc.other";
    }
}

/// Which part of the store a path belongs to.
bool is_checkpoint_path(const std::filesystem::path& path) {
    const auto dir = path.parent_path().filename();
    return dir == "snapshots" || dir == "checkpoints";
}

class TracingFile final : public mie::store::File {
public:
    TracingFile(std::unique_ptr<mie::store::File> inner, bool checkpoint)
        : inner_(std::move(inner)), checkpoint_(checkpoint) {}

    void append(BytesView data) override {
        const ScopedSpan span(write_name());
        inner_->append(data);
        count_bytes(data.size());
    }
    void append_parts(BytesView header, BytesView payload) override {
        const ScopedSpan span(write_name());
        inner_->append_parts(header, payload);
        count_bytes(header.size() + payload.size());
    }
    void sync() override {
        const ScopedSpan span(sync_name());
        inner_->sync();
    }
    void flush_async() override {
        const ScopedSpan span(sync_name());
        inner_->flush_async();
    }
    std::uint64_t size() const override { return inner_->size(); }

private:
    const char* write_name() const {
        return checkpoint_ ? "store.checkpoint_io" : "store.append";
    }
    const char* sync_name() const {
        return checkpoint_ ? "store.checkpoint_io" : "store.fsync";
    }
    void count_bytes(std::size_t n) {
        if (!checkpoint_) rec().count("store.wal_bytes", static_cast<double>(n));
    }

    std::unique_ptr<mie::store::File> inner_;
    bool checkpoint_;
};

}  // namespace

std::uint64_t RequestIdentity::id_of(BytesView request) {
    if (const auto env = mie::net::parse_envelope(request)) {
        return envelope_request_id(env->client_id, env->seq);
    }
    return occurrences_.next(digest_bytes(request.data(), request.size()));
}

SearchTail parse_search_tail(BytesView response) {
    mie::net::MessageReader reader(response);
    SearchTail tail;
    tail.results = reader.read_u32();
    for (std::uint64_t i = 0; i < tail.results; ++i) {
        reader.read_u64();
        reader.read_f64();
        reader.read_bytes();
    }
    if (reader.remaining() >= 24) {
        tail.postings_scored = reader.read_u64();
        tail.query_descriptors = reader.read_u64();
        tail.descriptors_kept = reader.read_u64();
    }
    return tail;
}

std::vector<std::uint64_t> search_result_ids(BytesView response) {
    mie::net::MessageReader reader(response);
    const auto count = reader.read_u32();
    std::vector<std::uint64_t> ids;
    for (std::uint32_t i = 0; i < count; ++i) {
        ids.push_back(reader.read_u64());
        reader.read_f64();
        reader.read_bytes();
    }
    return ids;
}

bool is_search_request(BytesView request) {
    const BytesView inner = mie::net::envelope_inner(request);
    return !inner.empty() &&
           static_cast<mie::MieOp>(inner[0]) == mie::MieOp::kSearch;
}

Bytes TracingTransport::call(BytesView request) {
    if (!rec().enabled()) return inner_.call(request);
    const char* name =
        name_override_ != nullptr ? name_override_ : rpc_span_name(request);
    const std::uint64_t id = ids_.id_of(request);
    const std::uint64_t parent = rec().current();
    const std::int64_t start = rec().now_ns();
    Bytes response = inner_.call(request);
    rec().record(name, id, start, rec().now_ns(),
                 static_cast<double>(request.size()), parent);
    const std::string prefix(name);
    rec().count(prefix + ".calls", 1.0);
    rec().count(prefix + ".request_bytes", static_cast<double>(request.size()));
    rec().count(prefix + ".response_bytes",
                static_cast<double>(response.size()));
    if (name_override_ == nullptr && is_search_request(request)) {
        const SearchTail tail = parse_search_tail(response);
        rec().count("index.searches", 1.0);
        rec().count("index.postings_scored",
                    static_cast<double>(tail.postings_scored));
        rec().count("index.query_descriptors",
                    static_cast<double>(tail.query_descriptors));
        rec().count("index.descriptors_kept",
                    static_cast<double>(tail.descriptors_kept));
    }
    return response;
}

Bytes TracingReadHandler::handle(BytesView request) {
    if (!rec().enabled()) return inner_.handle(request);
    const bool search = is_search_request(request);
    const ScopedSpan span(search ? "mie.search" : "mie.read",
                          ids_.id_of(request));
    return inner_.handle(request);
}

std::vector<mie::net::BatchRequestHandler::Result>
TracingBatchHandler::handle_batch(const std::vector<Bytes>& requests) {
    if (!rec().enabled()) return inner_.handle_batch(requests);
    const std::int64_t start = rec().now_ns();
    std::uint64_t batch_id = 0;
    std::vector<Result> results;
    {
        ScopedSpan span("mie.batch");
        span.set_value(static_cast<double>(requests.size()));
        batch_id = span.id();
        results = inner_.handle_batch(requests);
    }
    const std::int64_t end = rec().now_ns();
    double request_bytes = 0.0;
    for (const Bytes& request : requests) {
        request_bytes += static_cast<double>(request.size());
        const auto env = mie::net::parse_envelope(request);
        if (!env) continue;
        rec().record("reactor.batch_member",
                     envelope_request_id(env->client_id, env->seq), start,
                     end, static_cast<double>(batch_id));
    }
    rec().count("reactor.batch_request_bytes", request_bytes);
    return results;
}

std::unique_ptr<mie::store::File> TracingVfs::open_append(
    const std::filesystem::path& path) {
    return std::make_unique<TracingFile>(inner_.open_append(path),
                                         is_checkpoint_path(path));
}

std::unique_ptr<mie::store::File> TracingVfs::create_truncate(
    const std::filesystem::path& path) {
    const bool checkpoint = is_checkpoint_path(path);
    if (checkpoint && path.parent_path().filename() == "snapshots") {
        const std::scoped_lock lock(mutex_);
        if (checkpoint_start_ns_ < 0) checkpoint_start_ns_ = rec().now_ns();
    }
    return std::make_unique<TracingFile>(inner_.create_truncate(path),
                                         checkpoint);
}

void TracingVfs::remove_file(const std::filesystem::path& path) {
    const ScopedSpan span(is_checkpoint_path(path) ? "store.checkpoint_io"
                                                   : "store.remove");
    inner_.remove_file(path);
}

void TracingVfs::rename(const std::filesystem::path& from,
                        const std::filesystem::path& to) {
    const bool checkpoint = is_checkpoint_path(to);
    {
        const ScopedSpan span(checkpoint ? "store.checkpoint_io"
                                         : "store.rename");
        inner_.rename(from, to);
    }
    if (checkpoint && to.parent_path().filename() == "checkpoints") {
        std::int64_t start = -1;
        {
            const std::scoped_lock lock(mutex_);
            start = checkpoint_start_ns_;
            checkpoint_start_ns_ = -1;
        }
        if (start >= 0) {
            rec().record("store.checkpoint", 0, start, rec().now_ns());
        }
    }
}

void TracingVfs::sync_dir(const std::filesystem::path& dir) {
    const ScopedSpan span(dir.filename() == "snapshots" ||
                                  dir.filename() == "checkpoints"
                              ? "store.checkpoint_io"
                              : "store.fsync");
    inner_.sync_dir(dir);
}

}  // namespace perfbench
