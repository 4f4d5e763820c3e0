#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "cluster/node.hpp"
#include "cluster/replication.hpp"
#include "crypto/ctr.hpp"
#include "dpe/dense_dpe.hpp"
#include "fusion/rank_fusion.hpp"
#include "index/bovw.hpp"
#include "index/inverted_index.hpp"
#include "index/ivf.hpp"
#include "index/scoring.hpp"
#include "index/space.hpp"
#include "index/vocab_tree.hpp"
#include "mie/client.hpp"
#include "mie/extract.hpp"
#include "mie/keys.hpp"
#include "mie/object_codec.hpp"
#include "mie/wire.hpp"
#include "net/envelope.hpp"
#include "net/message.hpp"
#include "net/tcp.hpp"
#include "probes.hpp"
#include "reactor/group_commit.hpp"
#include "reactor/reactor.hpp"
#include "sim/dataset.hpp"
#include "store/file.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mie::Bytes;
using mie::BytesView;

// -- Workload constants ------------------------------------------------------
// The MIE settings are the paper-figure ones (bench/common.cpp make_bundle):
// 96x96 Flickr-like objects, 64-d U-SURF at pyramid stride 4, 128-bit
// Dense-DPE, a 17x2 vocabulary tree on the server.

constexpr char kRepo[] = "perfbench";
constexpr std::size_t kLoadObjects = 800;  // exact search ~6 ms of server time
constexpr std::size_t kTailObjects = 32;   // WAL records after the checkpoint
constexpr std::size_t kQueryObjects = 32;  // distinct live search inputs
constexpr std::size_t kProbeQueries = 8;   // probe set: exact + IVF each
constexpr std::size_t kTopK = 10;
constexpr std::size_t kIvfProbes = 4;  // of 17 coarse cells (fig5 sweep)
constexpr int kSetupRepeats = 3;
/// Every timed phase first runs this long unmeasured, so the first
/// checkpoint and cold caches after set-up do not land in the samples.
constexpr double kWarmupSeconds = 2.0;
/// Restarts per group: one group before the timed phase and one after
/// each later set-up repeat. Every restart checks its first reply, the
/// first of each group the whole probe set.
constexpr int kRecoverRepeats = 10;
/// Follower bootstraps per set-up repeat.
constexpr int kBootstrapRepeats = 2;
constexpr double kProbeRate = 100.0;  // probe queries per second, open loop
/// Ingest write mix: new objects, removes, and overwrites for
/// the rest. Equal new and remove shares keep the repository size level.
constexpr double kNewShare = 0.40;
constexpr double kRemoveShare = 0.40;
constexpr double kZipfExponent = 0.99;
constexpr std::uint64_t kNewIdBase = 1'000'000'000;
constexpr std::uint64_t kQueryIdBase = 50'000'000;
constexpr double kUnitSlopeDelta = 0.7978845608028654;  // sqrt(2/pi)

Recorder& rec() { return Recorder::global(); }
double ms_since(std::int64_t start_ns) {
    return static_cast<double>(rec().now_ns() - start_ns) / 1e6;
}

/// Deterministic generator (splitmix64 stream).
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() { return mix64(state_ += 0x9e3779b97f4a7c15ULL); }
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
    std::uint64_t state_;
};

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto last = values.size() - 1;
    const auto idx =
        static_cast<std::size_t>(q * static_cast<double>(last) + 0.5);
    return values[std::min(idx, last)];
}

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

/// The smallest sample. On a shared host a restart or a bootstrap only
/// gets slower when other tenants slow its cores, in stretches of seconds
/// (single restarts swing between about 0.06 and 0.10 s), so the fastest
/// of samples spread over the run reads the operation's own cost.
double fastest(const std::vector<double>& values) {
    return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

mie::RepositoryKey repo_key(std::uint64_t seed) {
    return mie::RepositoryKey::generate(
        mie::to_bytes("perfbench-key-" + std::to_string(seed)), 64, 128,
        kUnitSlopeDelta);
}

const Bytes& user_secret() {
    static const Bytes secret = mie::to_bytes("perfbench-user");
    return secret;
}

mie::TrainParams train_params() {
    mie::TrainParams params;
    params.tree_branch = 17;
    params.tree_depth = 2;
    params.kmeans_iterations = 8;
    params.max_training_samples = 100000;
    return params;
}

std::unique_ptr<mie::MieClient> make_client(mie::net::Transport& transport,
                                            std::uint64_t seed) {
    auto client = std::make_unique<mie::MieClient>(
        transport, kRepo, repo_key(seed), user_secret());
    client->train_params = train_params();
    client->extraction.pyramid.base_stride = 4;
    return client;
}

/// Runs fn(t) on `n` threads and rethrows the first failure after all
/// have joined.
template <typename F>
void run_threads(std::size_t n, F&& fn) {
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
        threads.emplace_back([&, t] {
            try {
                fn(t);
            } catch (...) {
                errors[t] = std::current_exception();
            }
        });
    }
    for (auto& thread : threads) thread.join();
    for (const auto& error : errors) {
        if (error) std::rethrow_exception(error);
    }
}

// -- Request corpus ----------------------------------------------------------

/// Captures what a MieClient sends without a server behind it: mutations
/// are answered with nothing (the client ignores the reply), searches
/// with an empty result list.
class CaptureTransport final : public mie::net::Transport {
public:
    Bytes call(BytesView request) override {
        const BytesView inner = mie::net::envelope_inner(request);
        last.assign(inner.begin(), inner.end());
        if (is_search_request(request)) return Bytes(4, 0);
        return {};
    }
    Bytes last;
};

struct Corpus {
    Bytes create;
    Bytes train;
    std::vector<Bytes> loads;    ///< inner UPDATE for object ids 1..N
    Bytes remove_template;       ///< inner REMOVE (id patched per use)
    std::vector<Bytes> tail;     ///< inner UPDATE for ids N+1..N+T
    std::vector<std::string> texts;  ///< plaintext text of ids 1..N+T
    std::vector<mie::sim::MultimodalObject> queries;  ///< live search inputs
    /// Probe set: [2i] exact, [2i+1] IVF-probed SEARCH of query i.
    std::vector<Bytes> probes;
    std::size_t id_offset = 0;  ///< byte offset of the object id
};

std::uint64_t read_id(const Bytes& inner, std::size_t offset) {
    std::uint64_t id = 0;
    for (int i = 7; i >= 0; --i) id = (id << 8) | inner.at(offset + i);
    return id;
}

void write_id(Bytes& inner, std::size_t offset, std::uint64_t id) {
    for (int i = 0; i < 8; ++i) {
        inner.at(offset + i) = static_cast<std::uint8_t>(id >> (8 * i));
    }
}

/// Standalone per-object client work through the public module APIs, so
/// the traced run sees extraction, DPE encoding and AES-CTR separately
/// (inside MieClient::update they share one meter bucket).
void trace_client_layers(const mie::MieClient& client,
                         const mie::sim::MultimodalObject& object,
                         const mie::dpe::DenseDpe& dense_dpe,
                         const mie::DataKeyring& keyring) {
    mie::MultimodalFeatures features;
    {
        const ScopedSpan span("features.extract");
        features = mie::extract_multimodal(object, client.extraction);
    }
    double descriptors = 0.0;
    for (const auto& [modality, vecs] : features.dense) {
        descriptors += static_cast<double>(vecs.size());
        const ScopedSpan span("dpe.encode");
        const auto codes = dense_dpe.encode_batch(vecs);
        if (codes.size() != vecs.size()) {
            throw std::runtime_error("dpe.encode: short batch");
        }
    }
    rec().count("features.descriptors", descriptors);
    rec().count("features.objects", 1.0);
    const mie::crypto::AesCtr cipher(keyring.data_key(object.id));
    Bytes nonce(mie::crypto::AesCtr::kNonceSize, 0);
    write_id(nonce, 0, object.id);
    Bytes sealed;
    {
        const ScopedSpan span("crypto.seal");
        sealed = cipher.seal(nonce, mie::encode_object(object));
    }
    const ScopedSpan span("crypto.open");
    if (mie::decode_object(cipher.open(sealed)).id != object.id) {
        throw std::runtime_error("crypto: seal/open round trip failed");
    }
}

Corpus record_corpus(std::uint64_t seed, std::size_t threads) {
    const mie::sim::FlickrLikeGenerator generator(mie::sim::FlickrLikeParams{
        .num_classes = 20, .image_size = 96, .seed = seed});
    const std::size_t objects = kLoadObjects + kTailObjects;
    Corpus corpus;
    corpus.loads.resize(kLoadObjects);
    corpus.tail.resize(kTailObjects);
    corpus.texts.resize(objects);
    corpus.queries.resize(kQueryObjects);
    corpus.probes.resize(2 * kProbeQueries);
    corpus.id_offset = 1 + 4 + sizeof(kRepo) - 1;

    run_threads(threads, [&](std::size_t t) {
        CaptureTransport capture;
        auto client = make_client(capture, seed);
        const mie::dpe::DenseDpe dense_dpe(repo_key(seed).dense);
        const mie::DataKeyring keyring(user_secret());
        if (t == 0) {
            client->create_repository();
            corpus.create = capture.last;
            client->train();
            corpus.train = capture.last;
            client->remove(1);
            corpus.remove_template = capture.last;
        }
        for (std::size_t i = t; i < objects; i += threads) {
            const std::uint64_t id = i + 1;
            const auto object = generator.make(id);
            corpus.texts[i] = object.text;
            client->update(object);
            if (i < kLoadObjects) {
                corpus.loads[i] = capture.last;
            } else {
                corpus.tail[i - kLoadObjects] = capture.last;
            }
            if (rec().enabled() && i % 8 == 0) {
                trace_client_layers(*client, object, dense_dpe, keyring);
            }
        }
        for (std::size_t q = t; q < kQueryObjects; q += threads) {
            corpus.queries[q] = generator.make(kQueryIdBase + q);
            if (q >= kProbeQueries) continue;
            for (const std::size_t probes : {std::size_t{0}, kIvfProbes}) {
                client->search_probes = probes;
                client->search(corpus.queries[q], kTopK);
                corpus.probes[2 * q + (probes == 0 ? 0 : 1)] = capture.last;
            }
        }
    });
    if (read_id(corpus.loads.at(0), corpus.id_offset) != 1 ||
        read_id(corpus.remove_template, corpus.id_offset) != 1) {
        throw std::logic_error("corpus: unexpected UPDATE/REMOVE layout");
    }
    return corpus;
}

// -- The stack under test ----------------------------------------------------

mie::cluster::NodeOptions node_options(mie::cluster::Role role) {
    mie::cluster::NodeOptions options;
    options.role = role;
    options.storage.wal.sync_policy = mie::store::SyncPolicy::kEveryRecord;
    return options;
}

/// Primary: reactor + group committer in front of a cluster::Node (the
/// role gate plus the replication feed over one DurableServer), with the
/// benchmark's probes on every interface the stack accepts.
class Primary {
public:
    explicit Primary(fs::path dir)
        : dir_(std::move(dir)),
          vfs_(mie::store::PosixVfs::instance()),
          node_(vfs_, dir_, node_options(mie::cluster::Role::kPrimary)),
          read_(node_),
          batch_(node_),
          committer_(batch_),
          server_(read_, &committer_, [](BytesView request) {
              return mie::is_mutating_request(request);
          }) {
        server_.start();
    }
    ~Primary() {
        server_.stop();
        committer_.stop();
    }
    Primary(const Primary&) = delete;
    Primary& operator=(const Primary&) = delete;

    std::uint16_t port() const { return server_.port(); }
    mie::cluster::Node& node() { return node_; }
    const fs::path& dir() const { return dir_; }

private:
    fs::path dir_;
    TracingVfs vfs_;
    mie::cluster::Node node_;
    TracingReadHandler read_;
    TracingBatchHandler batch_;
    mie::reactor::GroupCommitter committer_;
    mie::reactor::ReactorServer server_;
};

/// One client connection; mutations get a fresh envelope every send.
class Link {
public:
    Link(std::uint16_t port, RequestIdentity& ids, std::uint64_t client_id)
        : tcp_("127.0.0.1", port), traced_(tcp_, ids), client_id_(client_id) {}

    Bytes mutate(BytesView inner) {
        return traced_.call(mie::net::envelope_wrap(client_id_, ++seq_, inner));
    }
    Bytes call(BytesView request) { return traced_.call(request); }
    mie::net::Transport& transport() { return traced_; }

private:
    mie::net::TcpTransport tcp_;
    TracingTransport traced_;
    std::uint64_t client_id_;
    std::uint64_t seq_ = 0;
};

bool status_ok(const Bytes& response) {
    return !response.empty() && response[0] == 1;
}

// -- Set-up --------------------------------------------------------------------

struct Setup {
    Corpus corpus;
    std::unique_ptr<Primary> primary;
    double seconds = 0.0;
};

/// Records the corpus, starts a primary in `dir`, loads the repository
/// over `threads` connections and trains it.
Setup run_setup(const Options& options, const fs::path& dir,
                RequestIdentity& ids) {
    const std::int64_t start = rec().now_ns();
    Setup setup;
    setup.corpus = record_corpus(options.seed, options.load_threads);
    setup.primary = std::make_unique<Primary>(dir);
    const Corpus& corpus = setup.corpus;
    const std::uint16_t port = setup.primary->port();
    Link control(port, ids, mix64(options.seed ^ 0xC0));
    if (!status_ok(control.mutate(corpus.create))) {
        throw std::runtime_error("setup: CREATE failed");
    }
    run_threads(options.load_threads, [&](std::size_t t) {
        Link link(port, ids, mix64(options.seed ^ (0x10 + t)));
        for (std::size_t i = t; i < corpus.loads.size();
             i += options.load_threads) {
            if (!status_ok(link.mutate(corpus.loads[i]))) {
                throw std::runtime_error("setup: load UPDATE failed");
            }
        }
    });
    if (!status_ok(control.mutate(corpus.train))) {
        throw std::runtime_error("setup: TRAIN failed");
    }
    setup.seconds = static_cast<double>(rec().now_ns() - start) / 1e9;
    return setup;
}

// -- Open-loop generator -----------------------------------------------------

/// One measured operation: when it completed and how long it took.
struct Sample {
    std::int64_t done_ns = 0;
    double ms = 0.0;
};

struct OpenLoop {
    std::vector<double> late_ms;  ///< send time minus due time
    std::vector<Bytes> replies;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/// Sends each request at its due time (one every 1 / rate), one
/// outstanding request at a time, recording how late each send was.
OpenLoop run_open_loop(Link& link, const std::vector<Bytes>& requests,
                       double rate) {
    OpenLoop out;
    const std::int64_t start = rec().now_ns();
    for (std::size_t k = 0; k < requests.size(); ++k) {
        const auto due = start + static_cast<std::int64_t>(
                                     static_cast<double>(k) * 1e9 / rate);
        const std::int64_t now = rec().now_ns();
        if (now < due) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        const std::int64_t sent = rec().now_ns();
        rec().record("loadgen.late", 0, due, sent);
        ++out.attempted;
        try {
            Bytes reply = link.call(requests[k]);
            out.late_ms.push_back(static_cast<double>(sent - due) / 1e6);
            if (parse_search_tail(reply).results == 0) ++out.failed;
            out.replies.push_back(std::move(reply));
        } catch (const std::exception&) {
            ++out.failed;
            out.replies.emplace_back();
            link.transport().reconnect();
        }
    }
    return out;
}

// -- Closed-loop writers -----------------------------------------------------

/// Zipf rank in [0, n) (rank 0 hottest), by inverting the continuous
/// power law; `u` is uniform in [0, 1).
std::size_t zipf_rank(std::size_t n, double u) {
    const double a = 1.0 - kZipfExponent;
    const double top = std::pow(static_cast<double>(n) + 1.0, a);
    const double x = std::pow((top - 1.0) * u + 1.0, 1.0 / a);
    return std::min(n - 1, static_cast<std::size_t>(std::max(0.0, x - 1.0)));
}

/// One writer connection's operation stream. New objects are recorded
/// UPDATEs re-addressed to fresh ids; removes take one of the
/// connection's own live fresh objects, drawn Zipf by recency; overwrites
/// resend a recorded UPDATE of a loaded id (drawn Zipf, hot set chosen by
/// the seed) under a fresh envelope, which exercises the server's
/// remove_document path. New and
/// remove shares are equal, so the repository size — and with it the
/// per-update index cost, which grows with posting-list length — stays
/// level through a run. Each connection's effect on the object count is
/// known exactly.
class WriteMix {
public:
    WriteMix(const Corpus& corpus, std::uint64_t seed, std::size_t conn)
        : corpus_(corpus), rng_(mix64(seed ^ (0xA11CE + conn))), conn_(conn) {
        // One seed-chosen hot set shared by every connection.
        Rng shuffle(mix64(seed ^ 0x5407));
        hot_.resize(corpus.loads.size());
        std::iota(hot_.begin(), hot_.end(), std::size_t{0});
        for (std::size_t i = hot_.size(); i > 1; --i) {
            std::swap(hot_[i - 1], hot_[shuffle.next() % i]);
        }
    }

    struct Op {
        Bytes inner;
        bool existing = false;  ///< overwrite or remove of a stored id
        bool fresh = false;     ///< inserts `id`
        bool remove = false;    ///< removes live_fresh_[index]
        std::uint64_t id = 0;
        std::size_t index = 0;
    };

    Op next() {
        Op op;
        const double u = rng_.uniform();
        if (u < kNewShare) {
            const std::uint64_t k = next_fresh_++;
            op.id = kNewIdBase + conn_ * 100'000'000ULL + k;
            op.inner = corpus_.loads[(k + 97 * conn_) % corpus_.loads.size()];
            write_id(op.inner, corpus_.id_offset, op.id);
            op.fresh = true;
            return op;
        }
        op.existing = true;
        if (u < kNewShare + kRemoveShare && !live_fresh_.empty()) {
            const std::size_t rank =
                zipf_rank(live_fresh_.size(), rng_.uniform());
            op.index = live_fresh_.size() - 1 - rank;  // rank 0 = newest
            op.inner = corpus_.remove_template;
            write_id(op.inner, corpus_.id_offset, live_fresh_[op.index]);
            op.remove = true;
            return op;
        }
        op.inner = corpus_.loads[hot_[zipf_rank(hot_.size(), rng_.uniform())]];
        return op;
    }

    /// Applies an acked op to the expected state.
    void acked(const Op& op) {
        if (op.fresh) live_fresh_.push_back(op.id);
        if (op.remove) {
            live_fresh_.erase(live_fresh_.begin() +
                              static_cast<std::ptrdiff_t>(op.index));
        }
    }

    /// Objects this connection added to the repository so far.
    std::size_t net_change() const { return live_fresh_.size(); }

private:
    const Corpus& corpus_;
    Rng rng_;
    std::size_t conn_;
    std::vector<std::size_t> hot_;  ///< loaded indices, hottest first
    std::vector<std::uint64_t> live_fresh_;  ///< insertion order
    std::uint64_t next_fresh_ = 0;
};

/// Latency medians are medians over kWindows equal windows of the
/// measured period, throughput the median over its whole seconds: a
/// checkpoint stall or a burst of noise from other tenants moves one
/// window, not the result.
constexpr int kWindows = 8;

struct Phase {
    std::vector<Sample> main;
    std::vector<Sample> side;
    /// Search counts a user query of either kind as one operation.
    bool side_counts_as_ops = false;
    std::int64_t start_ns = 0;
    double seconds = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void merge_counts(std::uint64_t attempted_ops, std::uint64_t failed_ops) {
        attempted += attempted_ops;
        failed += failed_ops;
    }

    double ops_per_s() const {
        const auto whole = static_cast<std::size_t>(seconds);
        std::vector<double> per_second(std::max<std::size_t>(1, whole), 0.0);
        auto add = [&](const std::vector<Sample>& samples) {
            for (const Sample& sample : samples) {
                const auto s = static_cast<std::size_t>(
                    (sample.done_ns - start_ns) / 1'000'000'000);
                if (sample.done_ns >= start_ns && s < per_second.size()) {
                    per_second[s] += 1.0;
                }
            }
        };
        add(main);
        if (side_counts_as_ops) add(side);
        return percentile(per_second, 0.5);
    }

    double latency_ms(const std::vector<Sample>& samples, double q) const {
        const double window_ns = seconds * 1e9 / kWindows;
        std::vector<std::vector<double>> windows(kWindows);
        for (const Sample& sample : samples) {
            const auto w = static_cast<std::size_t>(std::max(
                0.0, static_cast<double>(sample.done_ns - start_ns) / window_ns));
            windows[std::min<std::size_t>(w, kWindows - 1)].push_back(sample.ms);
        }
        std::vector<double> per_window;
        for (auto& window : windows) {
            if (!window.empty()) per_window.push_back(percentile(window, q));
        }
        return percentile(per_window, 0.5);
    }
};

struct WriterState {
    std::unique_ptr<Link> link;
    std::unique_ptr<WriteMix> mix;
};

std::vector<WriterState> make_writers(const Setup& setup, const Options& options,
                                      RequestIdentity& ids, std::size_t n) {
    std::vector<WriterState> writers(n);
    for (std::size_t c = 0; c < n; ++c) {
        writers[c].link = std::make_unique<Link>(
            setup.primary->port(), ids, mix64(options.seed ^ (0x20 + c)));
        writers[c].mix = std::make_unique<WriteMix>(setup.corpus, options.seed, c);
    }
    return writers;
}

/// A timed phase: load runs from now until `end`; operations that start
/// at or after `from` (after the warm-up) are measured.
struct Timing {
    std::int64_t from = 0;
    std::int64_t end = 0;

    explicit Timing(double seconds)
        : from(rec().now_ns() + static_cast<std::int64_t>(kWarmupSeconds * 1e9)),
          end(from + static_cast<std::int64_t>(seconds * 1e9)) {}
    bool measured(std::int64_t t) const { return t >= from; }
    /// Seconds from `from` until now.
    double elapsed() const {
        return static_cast<double>(rec().now_ns() - from) / 1e9;
    }
};

/// Closed loop: each writer sends its next op as soon as the previous one
/// is durably acknowledged, until the phase ends.
void run_writer(WriterState& writer, const Timing& timing,
                std::vector<Sample>& all, std::vector<Sample>& existing,
                std::uint64_t& attempted, std::uint64_t& failed) {
    while (rec().now_ns() < timing.end) {
        const WriteMix::Op op = writer.mix->next();
        ++attempted;
        const std::int64_t start = rec().now_ns();
        try {
            const Bytes reply = writer.link->mutate(op.inner);
            const double ms = ms_since(start);
            if (!status_ok(reply)) {
                ++failed;
                continue;
            }
            writer.mix->acked(op);
            if (!timing.measured(start)) continue;
            const Sample sample{rec().now_ns(), ms};
            all.push_back(sample);
            if (op.existing) existing.push_back(sample);
        } catch (const std::exception&) {
            ++failed;
            writer.link->transport().reconnect();
        }
    }
}

Phase ingest_phase(std::vector<WriterState>& writers, double seconds) {
    Phase phase;
    const std::size_t n = writers.size();
    std::vector<std::vector<Sample>> all(n), existing(n);
    std::vector<std::uint64_t> attempted(n, 0), failed(n, 0);
    const Timing timing(seconds);
    run_threads(n, [&](std::size_t c) {
        run_writer(writers[c], timing, all[c], existing[c], attempted[c],
                   failed[c]);
    });
    phase.start_ns = timing.from;
    phase.seconds = timing.elapsed();
    for (std::size_t c = 0; c < n; ++c) {
        phase.main.insert(phase.main.end(), all[c].begin(), all[c].end());
        phase.side.insert(phase.side.end(), existing[c].begin(),
                          existing[c].end());
        phase.merge_counts(attempted[c], failed[c]);
    }
    return phase;
}

/// Live users: each client extracts, encodes, sends, parses and decrypts
/// the top hit — once exact, once IVF-probed — per query.
Phase search_phase(const Setup& setup, const Options& options,
                   RequestIdentity& ids, std::size_t clients, double seconds) {
    Phase phase;
    const Corpus& corpus = setup.corpus;
    std::vector<std::vector<Sample>> exact(clients), probed(clients);
    std::vector<std::uint64_t> attempted(clients, 0), failed(clients, 0);
    std::vector<std::vector<std::string>> failures(clients);
    const Timing timing(seconds);
    run_threads(clients, [&](std::size_t c) {
        Link link(setup.primary->port(), ids, mix64(options.seed ^ (0x30 + c)));
        auto client = make_client(link.transport(), options.seed);
        for (std::size_t k = c; rec().now_ns() < timing.end; k += clients) {
            const auto& query = corpus.queries[k % corpus.queries.size()];
            for (const std::size_t probes : {std::size_t{0}, kIvfProbes}) {
                client->search_probes = probes;
                ++attempted[c];
                auto& meter = client->meter();
                const double index_before =
                    meter.seconds(mie::sim::SubOp::kIndex);
                const double encrypt_before =
                    meter.seconds(mie::sim::SubOp::kEncrypt);
                const std::int64_t t0 = rec().now_ns();
                try {
                    ScopedSpan span(probes == 0 ? "query.exact" : "query.ivf");
                    const auto results = client->search(query, kTopK);
                    if (results.empty()) throw std::runtime_error("no results");
                    mie::sim::MultimodalObject top;
                    {
                        const ScopedSpan open("crypto.open");
                        top = client->decrypt_result(results[0]);
                    }
                    const std::uint64_t id = results[0].object_id;
                    if (top.id != id || id == 0 || id > corpus.texts.size() ||
                        top.text != corpus.texts[id - 1]) {
                        throw std::runtime_error("top hit decrypts wrong");
                    }
                    const double ms = ms_since(t0);
                    if (timing.measured(t0)) {
                        (probes == 0 ? exact[c] : probed[c])
                            .push_back({rec().now_ns(), ms});
                    }
                    if (rec().enabled()) {
                        const auto index_ns = static_cast<std::int64_t>(
                            (meter.seconds(mie::sim::SubOp::kIndex) -
                             index_before) * 1e9);
                        const auto encrypt_ns = static_cast<std::int64_t>(
                            (meter.seconds(mie::sim::SubOp::kEncrypt) -
                             encrypt_before) * 1e9);
                        rec().record("features.extract", 0, t0, t0 + index_ns,
                                     0.0, span.id());
                        rec().record("dpe.encode", 0, t0 + index_ns,
                                     t0 + index_ns + encrypt_ns, 0.0,
                                     span.id());
                        rec().count("features.descriptors",
                                    static_cast<double>(
                                        client->last_search_work()
                                            .query_descriptors));
                        rec().count("features.objects", 1.0);
                    }
                } catch (const std::exception& e) {
                    ++failed[c];
                    if (failures[c].size() < 4) {
                        failures[c].push_back(std::string("search: ") +
                                              e.what());
                    }
                    link.transport().reconnect();
                }
            }
        }
    });
    phase.start_ns = timing.from;
    phase.seconds = timing.elapsed();
    for (std::size_t c = 0; c < clients; ++c) {
        phase.main.insert(phase.main.end(), exact[c].begin(), exact[c].end());
        phase.side.insert(phase.side.end(), probed[c].begin(), probed[c].end());
        phase.merge_counts(attempted[c], failed[c]);
        phase.failures.insert(phase.failures.end(), failures[c].begin(),
                              failures[c].end());
    }
    phase.side_counts_as_ops = true;
    return phase;
}

// -- Index-layer mirror (traced runs) ----------------------------------------
//
// The server's index layers run inside one SEARCH handler. The traced run
// rebuilds the same tree and postings through the public index API from
// the same codes, TrainParams and seed (training is deterministic), times
// quantize / score / fuse per probe query, and checks that its top-k
// equals the server's reply.

struct ParsedModalities {
    std::map<mie::ModalityId, std::vector<mie::dpe::BitCode>> dense;
    std::map<mie::ModalityId, std::vector<std::pair<std::string, std::uint32_t>>>
        sparse;
};

ParsedModalities read_modalities(mie::net::MessageReader& reader) {
    ParsedModalities out;
    const auto num_dense = reader.read_u8();
    for (std::uint8_t m = 0; m < num_dense; ++m) {
        const mie::ModalityId id = reader.read_u8();
        const auto count = reader.read_u32();
        auto& codes = out.dense[id];
        for (std::uint32_t i = 0; i < count; ++i) {
            codes.push_back(mie::dpe::BitCode::deserialize(reader.read_bytes()));
        }
    }
    const auto num_sparse = reader.read_u8();
    for (std::uint8_t m = 0; m < num_sparse; ++m) {
        const mie::ModalityId id = reader.read_u8();
        const auto count = reader.read_u32();
        auto& terms = out.sparse[id];
        for (std::uint32_t i = 0; i < count; ++i) {
            const Bytes token = reader.read_bytes();
            const auto freq = reader.read_u32();
            terms.emplace_back(std::string(token.begin(), token.end()), freq);
        }
    }
    return out;
}

class IndexMirror {
public:
    /// Trains on the loaded objects and indexes the tail, as the server did.
    IndexMirror(const Corpus& corpus, const mie::TrainParams& params) {
        std::vector<std::pair<std::uint64_t, ParsedModalities>> loaded;
        for (const Bytes& request : corpus.loads) loaded.push_back(parse_update(request));
        std::sort(loaded.begin(), loaded.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        for (const auto& [id, object] : loaded) {
            for (const auto& [modality, codes] : object.dense) {
                if (!codes.empty()) dense_[modality];
            }
        }
        for (auto& [modality, state] : dense_) {
            std::size_t total = 0;
            for (const auto& [id, object] : loaded) {
                const auto it = object.dense.find(modality);
                if (it != object.dense.end()) total += it->second.size();
            }
            const std::size_t stride = std::max<std::size_t>(
                1, total / std::max<std::size_t>(1, params.max_training_samples));
            std::vector<mie::dpe::BitCode> training;
            std::size_t cursor = 0;
            for (const auto& [id, object] : loaded) {
                const auto it = object.dense.find(modality);
                if (it == object.dense.end()) continue;
                for (const auto& code : it->second) {
                    if (cursor++ % stride == 0) training.push_back(code);
                }
            }
            Tree::Params tree_params;
            tree_params.branch = params.tree_branch;
            tree_params.depth = params.tree_depth;
            tree_params.kmeans_iterations = params.kmeans_iterations;
            state.tree = Tree::build(training, tree_params, params.seed + modality);
            state.ivf = Ivf::build(state.tree);
        }
        for (const auto& [id, object] : loaded) add(id, object);
        for (const Bytes& request : corpus.tail) {
            const auto [id, object] = parse_update(request);
            add(id, object);
        }
    }

    /// Top-k ids for a recorded SEARCH, timing each layer.
    std::vector<std::uint64_t> search(const Bytes& request) const {
        mie::net::MessageReader reader(request);
        reader.read_u8();
        reader.read_string();
        const auto top_k = static_cast<std::size_t>(reader.read_u32());
        const ParsedModalities query = read_modalities(reader);
        const std::size_t probes = reader.remaining() >= 4 ? reader.read_u32() : 0;
        const std::size_t pool = std::max<std::size_t>(top_k * 4, 32);

        std::vector<std::vector<mie::index::ScoredDoc>> lists;
        std::uint64_t words = 0;
        for (const auto& [modality, codes] : query.dense) {
            const auto it = dense_.find(modality);
            if (it == dense_.end() || it->second.tree.empty() || codes.empty()) {
                continue;
            }
            {
                const ScopedSpan span("index.quantize");
                for (const auto& code : codes) words += it->second.tree.quantize(code);
            }
            const ScopedSpan span("index.score");
            const auto histogram = mie::index::ivf_histogram(
                it->second.tree, it->second.ivf, codes, probes, nullptr,
                &it->second.index);
            lists.push_back(mie::index::rank_tfidf(it->second.index, histogram,
                                                   objects_.size(), pool));
        }
        for (const auto& [modality, terms] : query.sparse) {
            const auto it = sparse_.find(modality);
            if (it == sparse_.end() || terms.empty()) continue;
            const ScopedSpan span("index.score");
            mie::index::QueryHistogram histogram;
            for (const auto& [term, freq] : terms) histogram[term] = freq;
            lists.push_back(mie::index::rank_tfidf(it->second, histogram,
                                                   objects_.size(), pool));
        }
        rec().count("index.mirror_words", static_cast<double>(words));
        std::vector<mie::index::ScoredDoc> fused;
        {
            const ScopedSpan span("fusion.fuse");
            fused = mie::fusion::log_isr_fusion(lists, top_k);
        }
        std::vector<std::uint64_t> ids;
        for (const auto& doc : fused) ids.push_back(doc.doc);
        return ids;
    }

private:
    using Tree = mie::index::VocabTree<mie::index::HammingSpace>;
    using Ivf = mie::index::IvfQuantizer<mie::index::HammingSpace>;
    struct Dense {
        Tree tree;
        Ivf ivf;
        mie::index::InvertedIndex index;
    };

    static std::pair<std::uint64_t, ParsedModalities> parse_update(
        const Bytes& request) {
        mie::net::MessageReader reader(request);
        reader.read_u8();
        reader.read_string();
        const std::uint64_t id = reader.read_u64();
        reader.read_bytes();  // sealed object
        return {id, read_modalities(reader)};
    }

    void add(std::uint64_t id, const ParsedModalities& object) {
        objects_.push_back(id);
        for (const auto& [modality, codes] : object.dense) {
            const auto it = dense_.find(modality);
            if (it == dense_.end() || it->second.tree.empty()) continue;
            for (const auto& code : codes) {
                it->second.index.add(
                    mie::index::visual_word_term(it->second.tree.quantize(code)),
                    id, 1);
            }
        }
        for (const auto& [modality, terms] : object.sparse) {
            auto& index = sparse_[modality];
            for (const auto& [term, freq] : terms) index.add(term, id, freq);
        }
    }

    std::map<mie::ModalityId, Dense> dense_;
    std::map<mie::ModalityId, mie::index::InvertedIndex> sparse_;
    std::vector<std::uint64_t> objects_;
};

// -- Metric assembly -----------------------------------------------------------

struct LayerInputs {
    double ivf_recall = 0.0;
    double recovered_records = 0.0;
    double recovered_from_checkpoint = 0.0;
    double snapshots_restored = 0.0;
    double bootstraps = 0.0;
    double untraced_p50_ms = 0.0;
    double traced_p50_ms = 0.0;
    std::vector<double> late_ms;  ///< probe sends
    /// Start of the traced timed phase, and the counts before it.
    std::int64_t timed_start_ns = 0;
    std::unordered_map<std::string, double> counts_before;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Samples of the traced timed phase when it has any, else of the set-up
/// phases: each layer is measured where the workload exercises it.
struct Window {
    std::vector<double> timed;
    std::vector<double> setup;
    void add(bool in_timed, double v) {
        (in_timed ? timed : setup).push_back(v);
    }
    const std::vector<double>& pick() const {
        return timed.empty() ? setup : timed;
    }
};

std::vector<Metric> layer_metrics(const LayerInputs& in) {
    const std::vector<Span> spans = rec().spans();
    const auto self = self_times(spans);
    auto ms = [](std::int64_t ns) { return static_cast<double>(ns) / 1e6; };
    auto timed = [&](const Span& s) { return s.start_ns >= in.timed_start_ns; };

    std::map<std::string, Window> durations;
    std::unordered_map<std::uint64_t, const Span*> rpc_mutation, rpc_search,
        server_search, by_id;
    std::vector<const Span*> members;
    for (const Span& span : spans) {
        durations[span.name].add(timed(span), ms(span.duration_ns()));
        by_id[span.id] = &span;
        const std::string_view name = span.name;
        if (name == "net.rpc.mutation") rpc_mutation[span.request] = &span;
        if (name == "net.rpc.search") rpc_search[span.request] = &span;
        if (name == "mie.search") server_search[span.request] = &span;
        if (name == "reactor.batch_member") members.push_back(&span);
    }
    // batch span id -> store span name -> ns spent under that batch
    std::unordered_map<std::uint64_t, std::map<std::string, std::int64_t>>
        store_under;
    Window batch_sizes;
    for (const Span& span : spans) {
        const std::string_view name = span.name;
        if (name == "mie.batch") batch_sizes.add(timed(span), span.value);
        if (span.parent == 0 || name.rfind("store.", 0) != 0) continue;
        const auto parent = by_id.find(span.parent);
        if (parent != by_id.end() &&
            std::string_view(parent->second->name) == "mie.batch") {
            store_under[span.parent][span.name] += span.duration_ns();
        }
    }
    auto mean_of = [&](const char* name) { return mean(durations[name].pick()); };

    // Write path, per durably acked request, as the request experienced
    // it: the batch it rode in counts in full for every member, so
    // wait + apply + store + ack add up to the client's RPC time.
    Window wait, ack, apply, append, fsync, unaccounted;
    for (const Span* member : members) {
        const auto it = rpc_mutation.find(member->request);
        if (it == rpc_mutation.end()) continue;
        const Span& call = *it->second;
        const bool t = timed(call);
        const auto batch_id = static_cast<std::uint64_t>(member->value);
        double store_total = 0.0;
        double part_append = 0.0;
        double part_fsync = 0.0;
        for (const auto& [name, ns] : store_under[batch_id]) {
            store_total += ms(ns);
            if (name == "store.append") part_append = ms(ns);
            if (name == "store.fsync") part_fsync = ms(ns);
        }
        const double w = ms(member->start_ns - call.start_ns);
        const double a = ms(call.end_ns - member->end_ns);
        const double self_ms = ms(self.at(batch_id));
        wait.add(t, w);
        ack.add(t, a);
        apply.add(t, self_ms);
        append.add(t, part_append);
        fsync.add(t, part_fsync);
        unaccounted.add(t, ms(call.duration_ns()) -
                               (w + self_ms + store_total + a));
    }
    Window read_overhead;
    for (const auto& [id, server] : server_search) {
        const auto it = rpc_search.find(id);
        if (it == rpc_search.end()) continue;
        read_overhead.add(timed(*it->second), ms(it->second->duration_ns()) -
                                                  ms(server->duration_ns()));
    }
    Window rpc;
    for (const Span& span : spans) {
        const std::string_view name = span.name;
        if (name == "net.rpc.mutation" || name == "net.rpc.search") {
            rpc.add(timed(span), ms(span.duration_ns()));
        }
    }
    const double members_n = static_cast<double>(apply.pick().size());
    const double wal_fsyncs =
        static_cast<double>(durations["store.fsync"].pick().size());

    // Counts of the traced timed phase when it has any, else of the run.
    auto count = [&](const std::string& name, bool in_timed) {
        const double total = rec().counter(name);
        if (!in_timed) return total;
        const auto it = in.counts_before.find(name);
        return total - (it == in.counts_before.end() ? 0.0 : it->second);
    };
    auto count_ratio = [&](std::initializer_list<const char*> num,
                           std::initializer_list<const char*> den) {
        for (const bool in_timed : {true, false}) {
            double n = 0.0, d = 0.0;
            for (const char* name : num) n += count(name, in_timed);
            for (const char* name : den) d += count(name, in_timed);
            if (d > 0.0) return n / d;
        }
        return 0.0;
    };
    const auto& sizes = batch_sizes.pick();
    const char* calls[] = {"net.rpc.mutation.calls", "net.rpc.search.calls"};

    return {
        {"features.extract_ms", mean_of("features.extract"), "ms"},
        {"features.descriptors_per_object",
         count_ratio({"features.descriptors"}, {"features.objects"}), "count"},
        {"dpe.encode_ms", mean_of("dpe.encode"), "ms"},
        {"crypto.seal_ms", mean_of("crypto.seal"), "ms"},
        {"crypto.open_ms", mean_of("crypto.open"), "ms"},
        {"net.rpc_ms", mean(rpc.pick()), "ms"},
        {"net.request_bytes",
         count_ratio({"net.rpc.mutation.request_bytes",
                      "net.rpc.search.request_bytes"},
                     {calls[0], calls[1]}),
         "bytes"},
        {"net.response_bytes",
         count_ratio({"net.rpc.mutation.response_bytes",
                      "net.rpc.search.response_bytes"},
                     {calls[0], calls[1]}),
         "bytes"},
        {"mie.search_ms", mean_of("mie.search"), "ms"},
        {"reactor.read_overhead_ms", mean(read_overhead.pick()), "ms"},
        {"reactor.commit_wait_ms", mean(wait.pick()), "ms"},
        {"reactor.ack_ms", mean(ack.pick()), "ms"},
        {"reactor.batch_size_mean", mean(sizes), "count"},
        {"reactor.batch_size_max",
         sizes.empty() ? 0.0 : *std::max_element(sizes.begin(), sizes.end()),
         "count"},
        {"reactor.batches", static_cast<double>(sizes.size()), "count"},
        {"mie.apply_ms", mean(apply.pick()), "ms"},
        {"store.append_ms", mean(append.pick()), "ms"},
        {"store.fsync_ms", mean(fsync.pick()), "ms"},
        {"store.fsyncs_per_update", ratio(wal_fsyncs, members_n), "ratio"},
        {"store.bytes_per_update",
         count_ratio({"store.wal_bytes"}, {"reactor.batch_request_bytes"}),
         "ratio"},
        {"store.checkpoints",
         static_cast<double>(durations["store.checkpoint"].pick().size()),
         "count"},
        {"store.checkpoint_ms", mean_of("store.checkpoint"), "ms"},
        {"store.recovered_records", in.recovered_records, "count"},
        {"store.recovered_from_checkpoint", in.recovered_from_checkpoint,
         "count"},
        {"mie.train_s", mean_of("net.rpc.train") / 1e3, "s"},
        {"cluster.pulled_bytes",
         ratio(rec().counter("cluster.pull.response_bytes"), in.bootstraps),
         "bytes"},
        {"cluster.pull_rounds",
         ratio(rec().counter("cluster.pull.calls"), in.bootstraps), "count"},
        {"cluster.snapshots_restored",
         ratio(in.snapshots_restored, in.bootstraps), "count"},
        {"index.postings_per_query",
         count_ratio({"index.postings_scored"}, {"index.searches"}), "count"},
        {"index.descriptors_kept_ratio",
         count_ratio({"index.descriptors_kept"}, {"index.query_descriptors"}),
         "ratio"},
        {"index.ivf_recall_at_10", in.ivf_recall, "ratio"},
        {"index.quantize_ms", mean_of("index.quantize"), "ms"},
        {"index.score_ms", mean_of("index.score"), "ms"},
        {"fusion.fuse_ms", mean_of("fusion.fuse"), "ms"},
        {"loadgen.late_p99_ms", percentile(in.late_ms, 0.99), "ms"},
        {"trace.overhead_pct",
         100.0 * (ratio(in.traced_p50_ms, in.untraced_p50_ms) - 1.0), "%"},
        {"trace.unaccounted_ms", mean(unaccounted.pick()), "ms"},
    };
}

// -- The run -------------------------------------------------------------------

void fail(Outcome& out, const std::string& what) {
    ++out.failed;
    if (out.failures.size() < 16) out.failures.push_back(what);
}

void copy_tree(const fs::path& from, const fs::path& to) {
    fs::remove_all(to);
    fs::copy(from, to, fs::copy_options::recursive);
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"ingest", "search"};
    return names;
}

Outcome run_workload(const Options& options) {
    const std::string& workload = options.workload;
    if (std::find(workload_names().begin(), workload_names().end(), workload) ==
        workload_names().end()) {
        throw std::invalid_argument("unknown workload " + workload);
    }
    Outcome out;
    RequestIdentity client_ids;
    fs::create_directories(options.workdir);

    // Set-up. This one's primary serves the run; the other set-up repeats
    // run after the timed phase, between restart groups.
    std::vector<double> setup_seconds;
    rec().set_enabled(options.trace);
    Setup setup = run_setup(options, options.workdir / "primary-0", client_ids);
    setup_seconds.push_back(setup.seconds);
    Primary& primary = *setup.primary;
    const Corpus& corpus = setup.corpus;
    LayerInputs layers;

    auto probe = [&](Primary& source, std::vector<double>& late_ms) {
        Link link(source.port(), client_ids, 0);
        OpenLoop probes = run_open_loop(link, corpus.probes, kProbeRate);
        out.attempted += probes.attempted;
        for (std::uint64_t i = 0; i < probes.failed; ++i) {
            fail(out, "probe search failed");
        }
        late_ms.insert(late_ms.end(), probes.late_ms.begin(),
                       probes.late_ms.end());
        return std::move(probes.replies);
    };
    auto check_replies = [&](mie::net::RequestHandler& handler,
                             const std::vector<Bytes>& expected,
                             const std::string& who) {
        for (std::size_t i = 0; i < corpus.probes.size(); ++i) {
            ++out.attempted;
            try {
                if (handler.handle(corpus.probes[i]) != expected[i]) {
                    fail(out, who + ": probe reply differs from the primary's");
                }
            } catch (const std::exception& e) {
                fail(out, who + ": probe failed: " + e.what());
            }
        }
    };

    // Post-set-up, 1: checkpoint, then bootstrap fresh followers from the
    // live primary. A follower restores the legacy snapshot and retrains
    // over every object it holds; bootstrapping before any post-TRAIN
    // update keeps its tree identical to the primary's, so the replies
    // must match byte for byte. Every set-up's primary serves one group.
    std::vector<double> bootstrap_seconds;
    auto bootstrap_group = [&](Primary& source, std::vector<double>& late_ms) {
        source.node().durable().checkpoint_now();
        const std::vector<Bytes> trained_replies = probe(source, late_ms);
        for (int rep = 0; rep < kBootstrapRepeats; ++rep) {
            const fs::path dir =
                options.workdir / ("follower-" + std::to_string(rep));
            fs::remove_all(dir);
            {
                RequestIdentity pull_ids;
                mie::net::TcpTransport tcp("127.0.0.1", source.port());
                TracingTransport link(tcp, pull_ids, "cluster.pull");
                const std::int64_t start = rec().now_ns();
                mie::cluster::Node follower(
                    mie::store::PosixVfs::instance(), dir,
                    node_options(mie::cluster::Role::kFollower));
                mie::cluster::Replicator replicator(follower, link);
                replicator.sync();
                bootstrap_seconds.push_back(
                    static_cast<double>(rec().now_ns() - start) / 1e9);
                check_replies(follower, trained_replies, "bootstrapped follower");
                if (rec().enabled()) {
                    const auto stats = follower.replication();
                    layers.snapshots_restored +=
                        static_cast<double>(stats.snapshots_restored);
                    layers.bootstraps += 1.0;
                }
            }
            fs::remove_all(dir);
        }
    };
    bootstrap_group(primary, layers.late_ms);

    // Post-set-up, 2: a fixed WAL tail after the checkpoint, the probe set
    // against the resulting state, then restarts from a copy of the
    // primary's directory (checkpoint + tail replay + first search).
    {
        Link link(primary.port(), client_ids, mix64(options.seed ^ 0x7A11));
        for (const Bytes& request : corpus.tail) {
            ++out.attempted;
            if (!status_ok(link.mutate(request))) fail(out, "tail UPDATE refused");
        }
    }
    const std::vector<Bytes> expected = probe(primary, layers.late_ms);
    double recall = 0.0;
    for (std::size_t q = 0; q < kProbeQueries; ++q) {
        const auto exact = search_result_ids(expected[2 * q]);
        const auto probed = search_result_ids(expected[2 * q + 1]);
        std::size_t hit = 0;
        for (const auto id : probed) {
            hit += std::count(exact.begin(), exact.end(), id);
        }
        recall += exact.empty() ? 1.0
                                : static_cast<double>(hit) /
                                      static_cast<double>(exact.size());
    }
    layers.ivf_recall = recall / static_cast<double>(kProbeQueries);

    // Restarts read a frozen copy of the primary's directory (checkpoint +
    // tail), so the groups after the timed phase reopen the same state as
    // the first.
    const fs::path recover_source = options.workdir / "recover-source";
    copy_tree(primary.dir(), recover_source);
    std::vector<double> recover_seconds;
    auto reopen_group = [&](int group) {
        for (int rep = 0; rep < kRecoverRepeats; ++rep) {
            const fs::path copy = options.workdir /
                                  ("reopen-" + std::to_string(group) + "-" +
                                   std::to_string(rep));
            copy_tree(recover_source, copy);
            {
                const std::int64_t start = rec().now_ns();
                mie::cluster::Node reopened(
                    mie::store::PosixVfs::instance(), copy,
                    node_options(mie::cluster::Role::kPrimary));
                const Bytes first = reopened.handle(corpus.probes[0]);
                recover_seconds.push_back(
                    static_cast<double>(rec().now_ns() - start) / 1e9);
                if (first != expected[0]) {
                    fail(out, "reopened server: first reply differs from the primary's");
                }
                if (rep == 0) check_replies(reopened, expected, "reopened server");
                const auto stats = reopened.durable().durability();
                layers.recovered_records =
                    static_cast<double>(stats.recovered_records);
                layers.recovered_from_checkpoint =
                    stats.recovered_from_checkpoint ? 1 : 0;
            }
            fs::remove_all(copy);
        }
    };
    reopen_group(0);

    if (options.trace) {
        const IndexMirror mirror(corpus, train_params());
        for (std::size_t i = 0; i < corpus.probes.size(); ++i) {
            ++out.attempted;
            if (mirror.search(corpus.probes[i]) != search_result_ids(expected[i])) {
                fail(out, "index mirror top-k differs from the server's reply");
            }
        }
    }

    // The timed phase. A traced run measures it twice: untraced first (for
    // trace.overhead_pct), then traced.
    const std::size_t n = options.load_threads;
    std::vector<WriterState> writers;
    if (workload == "ingest") writers = make_writers(setup, options, client_ids, n);
    auto timed = [&] {
        if (workload == "ingest") return ingest_phase(writers, options.seconds);
        return search_phase(setup, options, client_ids,
                            std::max<std::size_t>(1, n / 2), options.seconds);
    };
    Phase phase;
    if (options.trace) {
        rec().set_enabled(false);
        const Phase untraced = timed();
        out.attempted += untraced.attempted;
        for (std::uint64_t i = 0; i < untraced.failed; ++i) fail(out, "operation failed");
        layers.untraced_p50_ms = untraced.latency_ms(untraced.main, 0.5);
        rec().set_enabled(true);
    }
    layers.timed_start_ns = rec().now_ns();
    layers.counts_before = rec().counters();
    phase = timed();
    rec().set_enabled(false);
    out.attempted += phase.attempted;
    for (std::uint64_t i = 0; i < phase.failed; ++i) {
        fail(out, phase.failures.empty() ? "operation failed" : phase.failures.front());
    }
    layers.traced_p50_ms = phase.latency_ms(phase.main, 0.5);

    // Exactly-once gate: the object count is the corpus's inserts minus
    // removes, whatever order the connections' ops interleaved in.
    std::int64_t expected_objects = kLoadObjects + kTailObjects;
    for (const auto& writer : writers) expected_objects += writer.mix->net_change();
    writers.clear();
    ++out.attempted;
    const auto objects =
        primary.node().durable().server().stats(kRepo).num_objects;
    if (static_cast<std::int64_t>(objects) != expected_objects) {
        fail(out, "exactly-once gate: " + std::to_string(objects) +
                      " objects, expected " + std::to_string(expected_objects));
    }

    // The further set-ups, each with a bootstrap group and then a restart
    // group, so restarts and bootstraps sample the host's speed over the
    // whole run. Restarts right after the ingest phase read about 40%
    // slower for some seconds, so no group starts there.
    setup.primary.reset();
    for (int rep = 1; rep < kSetupRepeats; ++rep) {
        const fs::path dir = options.workdir / ("primary-" + std::to_string(rep));
        Setup again = run_setup(options, dir, client_ids);
        setup_seconds.push_back(again.seconds);
        std::vector<double> late_ms;
        bootstrap_group(*again.primary, late_ms);
        again.primary.reset();
        fs::remove_all(dir);
        reopen_group(rep);
    }
    fs::remove_all(recover_source);

    if (options.trace) {
        out.metrics = layer_metrics(layers);
        if (!options.trace_path.empty()) rec().write_jsonl(options.trace_path);
    } else {
        auto median = [](const std::vector<double>& v) { return percentile(v, 0.5); };
        out.metrics = {
            {"setup_s", median(setup_seconds), "s"},
            {"recover_s", fastest(recover_seconds), "s"},
            {"bootstrap_s", fastest(bootstrap_seconds), "s"},
            {"main_ops_per_s", phase.ops_per_s(), "1/s"},
            {"main_p50_ms", phase.latency_ms(phase.main, 0.50), "ms"},
            {"side_p50_ms", phase.latency_ms(phase.side, 0.50), "ms"},
        };
    }
    fs::remove_all(options.workdir);
    out.correct = out.failed == 0;
    return out;
}

}  // namespace perfbench
