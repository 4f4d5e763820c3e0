// In-memory span recorder for the benchmark's traced runs.
//
// A span is one timed interval at a layer boundary: a name, start and end
// on the steady clock, the request it belongs to, and the span that was
// open on the same thread when it began (its parent). Spans are appended
// to memory while the workload runs and written out when it ends, so the
// recording side costs one clock read and one short critical section.
//
// A layer's self time is its span's duration minus the part of that
// interval its children cover. Children may overlap one another (a batch
// span's children come from several requests), so the covered part is
// the length of the union of the children's intervals, clipped to the
// parent's interval — never more than the parent's duration.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

struct Span {
    const char* name = "";      ///< static string, e.g. "net.rpc"
    std::uint64_t request = 0;  ///< request id (0 = not request-scoped)
    std::uint64_t id = 0;       ///< unique within the recorder, never 0
    std::uint64_t parent = 0;   ///< enclosing span on the thread, 0 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    double value = 0.0;  ///< a count measured at the boundary (bytes, ...)

    std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Recorder {
public:
    Recorder();
    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    /// The process-wide recorder the benchmark's probes write to.
    static Recorder& global();

    /// Disabled recorders drop everything (begin() returns 0).
    void set_enabled(bool enabled);
    bool enabled() const;

    /// Nanoseconds on the steady clock since this recorder was built.
    std::int64_t now_ns() const;

    /// Opens a span on the calling thread; its parent is the innermost
    /// span still open on this thread. Returns the span id (0 when
    /// disabled); pass it to end().
    std::uint64_t begin(const char* name, std::uint64_t request = 0);

    /// Closes a span opened by begin() on the same thread (normally the
    /// innermost one). Unknown ids are ignored.
    void end(std::uint64_t id, double value = 0.0) noexcept;

    /// Records a span measured elsewhere (e.g. from timestamps taken on
    /// another thread); returns its id (0 when disabled).
    std::uint64_t record(const char* name, std::uint64_t request,
                         std::int64_t start_ns, std::int64_t end_ns,
                         double value = 0.0, std::uint64_t parent = 0);

    /// The innermost open span on the calling thread (0 if none).
    std::uint64_t current() const;

    /// Every closed span, in completion order.
    std::vector<Span> spans() const;

    /// Adds `delta` to a named count (dropped when disabled). Counts are
    /// taken at the same boundaries as spans, so ratios are measured where
    /// the work happens.
    void count(const std::string& name, double delta);
    double counter(const std::string& name) const;
    std::unordered_map<std::string, double> counters() const;

    /// Writes one JSON object per span; returns false on I/O failure.
    bool write_jsonl(const std::string& path) const;

private:
    struct Open {
        const Recorder* owner;
        std::uint64_t id;
        std::uint64_t parent;
        const char* name;
        std::uint64_t request;
        std::int64_t start_ns;
    };
    static std::vector<Open>& thread_stack();

    const std::int64_t epoch_ns_;
    /// Read without the lock on every probe call, so an untraced run pays
    /// one relaxed load per boundary.
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::uint64_t next_id_ = 1;  // guarded by mutex_
    std::vector<Span> spans_;    // guarded by mutex_
    std::unordered_map<std::string, double> counters_;  // guarded by mutex_
};

/// RAII span on the global (or a given) recorder.
class ScopedSpan {
public:
    explicit ScopedSpan(const char* name, std::uint64_t request = 0,
                        Recorder& recorder = Recorder::global())
        : recorder_(recorder), id_(recorder.begin(name, request)) {}
    ~ScopedSpan() { recorder_.end(id_, value_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    void set_value(double value) { value_ = value; }
    std::uint64_t id() const { return id_; }

private:
    Recorder& recorder_;
    std::uint64_t id_;
    double value_ = 0.0;
};

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to its own. Always in [0, duration].
std::unordered_map<std::uint64_t, std::int64_t> self_times(
    const std::vector<Span>& spans);

/// Length of the union of [start, end) intervals clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>
                            intervals,
                        std::int64_t lo, std::int64_t hi);

// -- Request identity ------------------------------------------------------
//
// A mutation is identified by its idempotency envelope (client id, seq),
// which both the client and the server see. A search carries no envelope,
// so it is identified by a digest of its bytes plus how many times those
// same bytes were sent before (the client and the server decorators see
// identical bytes in the same per-digest order).

/// 64-bit mix (splitmix64 finalizer).
std::uint64_t mix64(std::uint64_t x);

/// Request id of an enveloped mutation.
std::uint64_t envelope_request_id(std::uint64_t client_id, std::uint64_t seq);

/// FNV-1a digest of a byte string.
std::uint64_t digest_bytes(const std::uint8_t* data, std::size_t size);

/// Assigns digest-plus-occurrence ids; thread-safe. Each side of a
/// connection (client decorator, server decorator) keeps its own table.
class OccurrenceIds {
public:
    std::uint64_t next(std::uint64_t digest);

private:
    std::mutex mutex_;
    std::unordered_map<std::uint64_t, std::uint64_t> seen_;  // guarded
};

}  // namespace perfbench
