#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

std::int64_t steady_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

Recorder::Recorder() : epoch_ns_(steady_ns()) {}

Recorder& Recorder::global() {
    static Recorder recorder;
    return recorder;
}

void Recorder::set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
}

bool Recorder::enabled() const {
    return enabled_.load(std::memory_order_relaxed);
}

std::int64_t Recorder::now_ns() const { return steady_ns() - epoch_ns_; }

std::vector<Recorder::Open>& Recorder::thread_stack() {
    thread_local std::vector<Open> stack;
    return stack;
}

std::uint64_t Recorder::current() const {
    const auto& stack = thread_stack();
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->owner == this) return it->id;
    }
    return 0;
}

std::uint64_t Recorder::begin(const char* name, std::uint64_t request) {
    if (!enabled()) return 0;
    std::uint64_t id = 0;
    {
        const std::scoped_lock lock(mutex_);
        id = next_id_++;
    }
    const std::uint64_t parent = current();
    thread_stack().push_back({this, id, parent, name, request, now_ns()});
    return id;
}

void Recorder::end(std::uint64_t id, double value) noexcept {
    if (id == 0) return;
    auto& stack = thread_stack();
    // Normally the innermost span; a span closed out of order is still
    // recorded, and its children keep the parent they began under.
    auto it = stack.end();
    while (it != stack.begin()) {
        --it;
        if (it->id == id && it->owner == this) break;
    }
    if (it == stack.end() || it->id != id || it->owner != this) return;
    const Open open = *it;
    stack.erase(it);
    const Span span{open.name,     open.request, open.id, open.parent,
                    open.start_ns, now_ns(),     value};
    try {
        const std::scoped_lock lock(mutex_);
        spans_.push_back(span);
    } catch (...) {
        // Out of memory while tracing: the span is lost, the run goes on.
    }
}

std::uint64_t Recorder::record(const char* name, std::uint64_t request,
                               std::int64_t start_ns, std::int64_t end_ns,
                               double value, std::uint64_t parent) {
    if (!enabled()) return 0;
    const std::scoped_lock lock(mutex_);
    const std::uint64_t id = next_id_++;
    spans_.push_back(Span{name, request, id, parent, start_ns,
                          std::max(start_ns, end_ns), value});
    return id;
}

std::vector<Span> Recorder::spans() const {
    const std::scoped_lock lock(mutex_);
    return spans_;
}

void Recorder::count(const std::string& name, double delta) {
    if (!enabled()) return;
    const std::scoped_lock lock(mutex_);
    counters_[name] += delta;
}

double Recorder::counter(const std::string& name) const {
    const std::scoped_lock lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

std::unordered_map<std::string, double> Recorder::counters() const {
    const std::scoped_lock lock(mutex_);
    return counters_;
}

bool Recorder::write_jsonl(const std::string& path) const {
    const std::vector<Span> all = spans();
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    bool ok = true;
    for (const Span& span : all) {
        ok = std::fprintf(file,
                          "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                          "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                          "\"value\":%.17g}\n",
                          span.name,
                          static_cast<unsigned long long>(span.id),
                          static_cast<unsigned long long>(span.parent),
                          static_cast<unsigned long long>(span.request),
                          static_cast<long long>(span.start_ns),
                          static_cast<long long>(span.end_ns),
                          span.value) > 0 &&
             ok;
    }
    return std::fclose(file) == 0 && ok;
}

std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi) {
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // everything before `reach` is accounted for
    for (auto [start, end] : intervals) {
        start = std::max(start, reach);
        end = std::min(end, hi);
        if (end <= start) continue;
        covered += end - start;
        reach = end;
    }
    return covered;
}

std::unordered_map<std::uint64_t, std::int64_t> self_times(
    const std::vector<Span>& spans) {
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const Span& span : spans) {
        if (span.parent != 0) {
            children[span.parent].emplace_back(span.start_ns, span.end_ns);
        }
    }
    std::unordered_map<std::uint64_t, std::int64_t> self;
    self.reserve(spans.size());
    for (const Span& span : spans) {
        std::int64_t covered = 0;
        const auto it = children.find(span.id);
        if (it != children.end()) {
            covered = covered_ns(it->second, span.start_ns, span.end_ns);
        }
        self[span.id] = std::max<std::int64_t>(0, span.duration_ns() - covered);
    }
    return self;
}

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t envelope_request_id(std::uint64_t client_id, std::uint64_t seq) {
    // Never 0: 0 means "not request-scoped".
    return mix64(client_id ^ mix64(seq)) | 1;
}

std::uint64_t digest_bytes(const std::uint8_t* data, std::size_t size) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        hash = (hash ^ data[i]) * 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t OccurrenceIds::next(std::uint64_t digest) {
    std::uint64_t occurrence = 0;
    {
        const std::scoped_lock lock(mutex_);
        occurrence = seen_[digest]++;
    }
    return mix64(digest ^ mix64(occurrence + 0x51ed)) | 1;
}

}  // namespace perfbench
