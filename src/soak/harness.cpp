#include "soak/harness.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "cluster/client.hpp"
#include "cluster/node.hpp"
#include "cluster/replication.hpp"
#include "cluster/router.hpp"
#include "crypto/secret.hpp"
#include "mie/client.hpp"
#include "mie/keys.hpp"
#include "mie/server.hpp"
#include "mie/wire.hpp"
#include "net/envelope.hpp"
#include "net/error.hpp"
#include "net/faulty.hpp"
#include "net/message.hpp"
#include "net/retry.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "reactor/group_commit.hpp"
#include "reactor/reactor.hpp"
#include "sim/dataset.hpp"
#include "sim/energy.hpp"
#include "store/file.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace mie::soak {
namespace {

namespace fs = std::filesystem;
using cluster::ClusterClient;
using cluster::ClusterSearchResult;
using cluster::Node;
using cluster::NodeOptions;
using cluster::Replicator;
using cluster::RepoSearch;
using cluster::Role;
using cluster::Router;
using cluster::ShardEndpoints;
using reactor::GroupCommitter;
using reactor::ReactorServer;

constexpr int kSoakSchemaVersion = 1;

// ---------------------------------------------------------------------------
// Hosted replicas
// ---------------------------------------------------------------------------

/// One replica hosted the production way: Node + GroupCommitter +
/// ReactorServer on 127.0.0.1. Destroying it is a hard kill (server
/// stops, in-flight connections die).
struct Replica {
    Replica(store::Vfs& vfs, const fs::path& dir, Role role,
            std::size_t pull_batch, std::uint16_t port)
        : node(vfs, dir, make_options(role, pull_batch)),
          committer(node),
          server(node, &committer, is_mutating_request, make_reactor(port)) {
        server.start();
    }

    ~Replica() {
        server.stop();
        committer.stop();
    }

    static NodeOptions make_options(Role role, std::size_t pull_batch) {
        NodeOptions options;
        options.role = role;
        options.max_pull_records = pull_batch;
        return options;
    }

    static reactor::ReactorOptions make_reactor(std::uint16_t port) {
        reactor::ReactorOptions options;
        options.port = port;
        return options;
    }

    Node node;
    GroupCommitter committer;
    ReactorServer server;
};

/// A replica's slot in the cluster: its directory and fault VFS survive
/// crashes of the hosted stack, so power_loss()/restart cycles see the
/// same simulated disk.
struct ReplicaSlot {
    fs::path dir;
    std::unique_ptr<store::FaultInjectingVfs> vfs;
    std::unique_ptr<Replica> hosted;
    /// Incremented per restart; the offsets-monotone oracle applies
    /// within one generation (a crash may legally roll the offset back).
    std::uint64_t generation = 0;
    std::uint64_t last_offset = 0;

    void open(const fs::path& slot_dir, Role role, std::size_t pull_batch,
              std::uint16_t port) {
        dir = slot_dir;
        if (!vfs) {
            vfs = std::make_unique<store::FaultInjectingVfs>(
                store::PosixVfs::instance());
        }
        hosted =
            std::make_unique<Replica>(*vfs, dir, role, pull_batch, port);
        last_offset = hosted->node.acked_lsn();
    }
};

/// Client link stack to one replica: real TCP under seeded fault
/// injection under bounded retries (backoff modeled, not slept).
struct Link {
    Link(std::uint16_t port, const net::FaultPlan& plan)
        : tcp("127.0.0.1", port), faulty(tcp, plan), retry(faulty) {
        retry.set_sleeper([](double) {});
    }

    net::TcpTransport tcp;
    net::FaultyTransport faulty;
    net::RetryingTransport retry;
};

struct Shard {
    ReplicaSlot primary;
    ReplicaSlot follower;
    /// Bootstrapped from the promoted follower after a kill.
    ReplicaSlot replacement;
    bool killed = false;
    std::unique_ptr<Link> primary_link;
    std::unique_ptr<Link> follower_link;
};

// ---------------------------------------------------------------------------
// Client-side decorators
// ---------------------------------------------------------------------------

/// Outermost client layer: retries the SAME request bytes until the
/// cluster acks (replaying identical enveloped bytes is what keeps
/// exactly-once intact across spurious timeouts), and records every
/// acked mutation in global ack order for the shadow oracles.
class AckedTransport final : public net::Transport {
public:
    explicit AckedTransport(net::Transport& inner) : inner_(inner) {}

    Bytes call(BytesView request) override {
        const Bytes bytes(request.begin(), request.end());
        for (int attempt = 0;; ++attempt) {
            try {
                Bytes response = inner_.call(bytes);
                retries_ += static_cast<std::uint64_t>(attempt);
                if (is_mutating_request(bytes)) acked_.push_back(bytes);
                return response;
            } catch (const net::TransportError&) {
                if (attempt + 1 >= kMaxAttempts) throw;
                try {
                    inner_.reconnect();
                } catch (const net::TransportError&) {
                    // Dead endpoints stay dead; the routed retry below
                    // triggers the ClusterClient's failover instead.
                }
            }
        }
    }

    void reconnect() override { inner_.reconnect(); }
    double network_seconds() const override {
        return inner_.network_seconds();
    }
    double server_seconds() const override {
        return inner_.server_seconds();
    }

    const std::vector<Bytes>& acked() const { return acked_; }
    std::uint64_t retries() const { return retries_; }

private:
    static constexpr int kMaxAttempts = 64;

    net::Transport& inner_;
    std::vector<Bytes> acked_;
    std::uint64_t retries_ = 0;
};

/// Records the last request/response passing through (used to lift the
/// byte-exact kSearch requests for the scatter/gather oracle).
class CaptureTransport final : public net::Transport {
public:
    explicit CaptureTransport(net::Transport& inner) : inner_(inner) {}

    Bytes call(BytesView request) override {
        last_request_.assign(request.begin(), request.end());
        last_response_ = inner_.call(request);
        return last_response_;
    }

    void reconnect() override { inner_.reconnect(); }
    double network_seconds() const override {
        return inner_.network_seconds();
    }
    double server_seconds() const override {
        return inner_.server_seconds();
    }

    const Bytes& last_request() const { return last_request_; }
    const Bytes& last_response() const { return last_response_; }

private:
    net::Transport& inner_;
    Bytes last_request_;
    Bytes last_response_;
};

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

/// Repository id a (possibly enveloped) client request routes by.
std::string routed_repo(BytesView request) {
    net::MessageReader reader(net::envelope_inner(request));
    reader.read_u8();  // opcode
    return reader.read_string();
}

/// Nearest-rank percentile over unsorted samples; 0 when empty.
double percentile_ms(std::vector<double> samples, double q) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    return samples[std::min(rank == 0 ? 0 : rank - 1, samples.size() - 1)];
}

std::string repo_name(std::uint32_t repo) {
    return "soak-repo-" + std::to_string(repo);
}

/// Client-side master secret per (repo, device class). Never sent to the
/// server; the secret-hygiene oracle scans for it (and keys derived from
/// it) in every server artifact.
Bytes master_secret(std::uint32_t repo, bool mobile) {
    return to_bytes(std::string("soak-master-secret-") +
                    (mobile ? "mobile-" : "desktop-") +
                    std::to_string(repo));
}

bool contains_bytes(const Bytes& haystack, const Bytes& needle) {
    if (needle.empty() || haystack.size() < needle.size()) return false;
    return std::search(haystack.begin(), haystack.end(), needle.begin(),
                       needle.end()) != haystack.end();
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct RepoClients {
    std::unique_ptr<MieClient> mobile;
    std::unique_ptr<MieClient> desktop;
};

class SoakRun {
public:
    explicit SoakRun(const SoakOptions& options) : options_(options) {
        if (options_.root_dir.empty()) {
            throw std::invalid_argument("soak: root_dir is required");
        }
        if (options_.num_shards == 0) {
            throw std::invalid_argument("soak: need >= 1 shard");
        }
        if (options_.epochs == 0) {
            throw std::invalid_argument("soak: need >= 1 epoch");
        }
    }

    SoakReport run();

private:
    void build_cluster();
    void build_clients();
    void generate_script();
    void setup_repositories();
    void run_epoch(std::size_t epoch);
    void execute_event(const sim::FleetEvent& event);
    void chaos_power_loss();
    void chaos_kill_primary();
    void sync_shard(std::uint32_t shard_index);
    void pump_into(ReplicaSlot& slot, std::uint16_t source_port,
                   std::uint64_t source_last_lsn);
    OracleOutcomes check_oracles();
    bool check_exactly_once();
    bool check_scatter_gather();
    bool check_secrets();
    std::uint32_t final_state_digest();
    Node& shard_truth(Shard& shard);

    SoakOptions options_;
    SplitMix64 chaos_rng_{0};
    sim::FleetScript script_;
    std::vector<Shard> shards_;
    std::unique_ptr<ClusterClient> cluster_;
    std::unique_ptr<AckedTransport> acked_;
    // mielint: allow(R5): element type RepositoryKey is secret-safe (zeroizing)
    std::vector<RepositoryKey> repo_keys_;
    std::vector<sim::FlickrLikeGenerator> generators_;
    std::vector<RepoClients> clients_;

    std::uint32_t kill_shard_ = 0;
    std::uint32_t power_loss_shard_ = 0;
    std::size_t kill_at_event_ = 0;
    std::size_t power_loss_at_event_ = 0;
    bool kill_done_ = false;
    bool power_loss_done_ = false;

    std::size_t events_executed_ = 0;
    std::vector<double> epoch_latencies_ms_;
    std::uint64_t recoveries_ = 0;
    bool offsets_monotone_ = true;
    SoakReport report_;
};

Node& SoakRun::shard_truth(Shard& shard) {
    return shard.killed ? shard.follower.hosted->node
                        : shard.primary.hosted->node;
}

void SoakRun::build_cluster() {
    fs::create_directories(options_.root_dir);
    net::FaultPlan plan;
    plan.rate = options_.fault_rate;
    shards_.resize(options_.num_shards);
    std::vector<ShardEndpoints> endpoints;
    for (std::uint32_t s = 0; s < options_.num_shards; ++s) {
        Shard& shard = shards_[s];
        const fs::path shard_dir =
            options_.root_dir / ("shard-" + std::to_string(s));
        shard.primary.open(shard_dir / "p", Role::kPrimary,
                           options_.pull_batch, 0);
        shard.follower.open(shard_dir / "f", Role::kFollower,
                            options_.pull_batch, 0);
        // Distinct fault streams per link, all derived from the seed.
        plan.seed = options_.seed ^ (0x1000u + 2u * s);
        shard.primary_link = std::make_unique<Link>(
            shard.primary.hosted->server.port(), plan);
        plan.seed = options_.seed ^ (0x1000u + 2u * s + 1u);
        shard.follower_link = std::make_unique<Link>(
            shard.follower.hosted->server.port(), plan);
        endpoints.push_back(ShardEndpoints{&shard.primary_link->retry,
                                           &shard.follower_link->retry});
    }
    cluster_ = std::make_unique<ClusterClient>(std::move(endpoints));
    acked_ = std::make_unique<AckedTransport>(*cluster_);
}

void SoakRun::build_clients() {
    const std::size_t repos = options_.fleet.num_repositories;
    repo_keys_.reserve(repos);
    generators_.reserve(repos);
    clients_.reserve(repos);
    for (std::uint32_t repo = 0; repo < repos; ++repo) {
        repo_keys_.push_back(RepositoryKey::generate(
            to_bytes("soak-repo-key-" + std::to_string(repo)), 64, 64,
            0.7978845608));
        sim::FlickrLikeParams params;
        params.num_classes = 2;
        params.image_size = static_cast<int>(options_.image_size);
        params.seed = options_.seed ^ (0x5EEDu + repo);
        generators_.emplace_back(params);

        RepoClients pair;
        pair.mobile = std::make_unique<MieClient>(
            *acked_, repo_name(repo), repo_keys_[repo],
            master_secret(repo, true),
            sim::DeviceProfile::mobile().cpu_scale);
        pair.desktop = std::make_unique<MieClient>(
            *acked_, repo_name(repo), repo_keys_[repo],
            master_secret(repo, false),
            sim::DeviceProfile::desktop().cpu_scale);
        for (MieClient* client : {pair.mobile.get(), pair.desktop.get()}) {
            client->train_params.tree_branch = 4;
            client->train_params.tree_depth = 2;
        }
        clients_.push_back(std::move(pair));
    }
}

void SoakRun::generate_script() {
    sim::FleetParams fleet = options_.fleet;
    fleet.seed = options_.seed;
    fleet.num_events = options_.fleet.num_events * options_.epochs;
    script_ = sim::FleetScript::generate(fleet);

    chaos_rng_ = SplitMix64(options_.seed ^ 0xC4A05ULL);
    kill_shard_ = static_cast<std::uint32_t>(
        chaos_rng_.next_below(options_.num_shards));
    power_loss_shard_ = options_.num_shards > 1
                            ? (kill_shard_ + 1) % options_.num_shards
                            : kill_shard_;
    // Power loss strikes in the first third, the kill in the last third;
    // on a single shard the order matters (the power-lossed follower must
    // be healthy again before it can be promoted).
    power_loss_at_event_ = script_.events.size() / 3;
    kill_at_event_ = script_.events.size() * 2 / 3;
}

void SoakRun::setup_repositories() {
    for (std::uint32_t repo = 0; repo < options_.fleet.num_repositories;
         ++repo) {
        MieClient& client = *clients_[repo].mobile;
        client.create_repository();
        for (const std::uint64_t id : script_.setup[repo]) {
            client.update(generators_[repo].make(id));
        }
        client.train();
    }
}

void SoakRun::execute_event(const sim::FleetEvent& event) {
    MieClient& client = event.mobile ? *clients_[event.repo].mobile
                                     : *clients_[event.repo].desktop;
    switch (event.kind) {
        case sim::FleetOpKind::kAdd:
        case sim::FleetOpKind::kUpdate:
            client.update(generators_[event.repo].make(event.object_id));
            break;
        case sim::FleetOpKind::kRemove:
            client.remove(event.object_id);
            break;
        case sim::FleetOpKind::kSearch:
            client.search(generators_[event.repo].make(event.object_id),
                          options_.top_k);
            break;
    }
}

void SoakRun::pump_into(ReplicaSlot& slot, std::uint16_t source_port,
                        std::uint64_t source_last_lsn) {
    net::TcpTransport wire("127.0.0.1", source_port);
    Replicator replicator(slot.hosted->node, wire, options_.pull_batch);
    for (;;) {
        const Replicator::PumpResult round = replicator.pump();
        // Offsets-monotone oracle: within a replica generation the acked
        // offset never regresses, and never runs past the source.
        if (round.acked_lsn < slot.last_offset ||
            round.acked_lsn > source_last_lsn) {
            offsets_monotone_ = false;
        }
        slot.last_offset = round.acked_lsn;
        if (round.caught_up) return;
    }
}

void SoakRun::sync_shard(std::uint32_t shard_index) {
    Shard& shard = shards_[shard_index];
    if (!shard.killed) {
        pump_into(shard.follower, shard.primary.hosted->server.port(),
                  shard.primary.hosted->node.durable().durability().last_lsn);
    } else if (shard.replacement.hosted) {
        // The replacement pulls from the surviving replica (promoted or
        // not — the replication feed is role-independent).
        pump_into(shard.replacement, shard.follower.hosted->server.port(),
                  shard.follower.hosted->node.durable().durability().last_lsn);
    }
}

void SoakRun::chaos_power_loss() {
    Shard& shard = shards_[power_loss_shard_];
    if (shard.killed) return;  // single-replica shard: nothing to crash
    ReplicaSlot& slot = shard.follower;
    const std::uint16_t port = slot.hosted->server.port();
    slot.hosted.reset();
    slot.vfs->power_loss();  // roll files back to their synced sizes
    slot.vfs->reset();
    slot.open(slot.dir, Role::kFollower, options_.pull_batch, port);
    ++slot.generation;
    ++recoveries_;
    // Recovery re-pull: the persisted offset may lag the crashed node's
    // memory; the overlap re-ships and dedup absorbs it.
    sync_shard(power_loss_shard_);
}

void SoakRun::chaos_kill_primary() {
    Shard& shard = shards_[kill_shard_];
    // Acked-must-survive discipline: drain replication while the primary
    // is still alive, then kill it for good. (Asynchronous replication
    // cannot promise durability of acked-but-unshipped records; shipping
    // synchronously at the kill point is the soak's stand-in for the
    // quorum ack a production deployment would use.)
    sync_shard(kill_shard_);
    shard.primary.hosted.reset();
    shard.killed = true;
    // Bootstrap a replacement follower from the surviving replica on a
    // fresh directory: a from-zero pull (records or snapshot, the
    // source's retention decides).
    shard.replacement.open(
        options_.root_dir / ("shard-" + std::to_string(kill_shard_)) / "r",
        Role::kFollower, options_.pull_batch, 0);
    ++recoveries_;
    sync_shard(kill_shard_);
}

void SoakRun::run_epoch(std::size_t epoch) {
    const std::size_t per_epoch = options_.fleet.num_events;
    const std::size_t begin = epoch * per_epoch;
    const std::size_t end = begin + per_epoch;
    epoch_latencies_ms_.clear();

    EpochReport out;
    out.epoch = epoch;
    const std::uint64_t retries_before = acked_->retries();
    const std::uint64_t failovers_before = cluster_->stats().failovers;
    const std::uint64_t recoveries_before = recoveries_;

    for (std::size_t i = begin; i < end; ++i) {
        if (options_.power_loss_follower && !power_loss_done_ &&
            i >= power_loss_at_event_) {
            power_loss_done_ = true;
            chaos_power_loss();
        }
        if (options_.kill_primary && !kill_done_ && i >= kill_at_event_) {
            kill_done_ = true;
            chaos_kill_primary();
        }
        const Stopwatch watch;
        execute_event(script_.events[i]);
        epoch_latencies_ms_.push_back(watch.elapsed_seconds() * 1e3);
        ++events_executed_;
    }

    // Quiesce: every surviving follower catches up, then the oracles run
    // over a stable cluster.
    for (std::uint32_t s = 0; s < options_.num_shards; ++s) sync_shard(s);

    out.operations = per_epoch;
    out.acked = per_epoch;  // retry-until-acked: anything less throws
    out.retries = acked_->retries() - retries_before;
    out.failovers = cluster_->stats().failovers - failovers_before;
    out.recoveries = recoveries_ - recoveries_before;
    out.p50_ms = percentile_ms(epoch_latencies_ms_, 0.50);
    out.p95_ms = percentile_ms(epoch_latencies_ms_, 0.95);
    out.p99_ms = percentile_ms(epoch_latencies_ms_, 0.99);
    out.oracles = check_oracles();
    report_.epochs.push_back(out);
}

OracleOutcomes SoakRun::check_oracles() {
    OracleOutcomes outcomes;
    outcomes.exactly_once = check_exactly_once();
    outcomes.scatter_gather = check_scatter_gather();
    outcomes.offsets_monotone = offsets_monotone_;
    outcomes.secrets_redacted = check_secrets();
    return outcomes;
}

bool SoakRun::check_exactly_once() {
    // Rebuild the acked-operations shadow per shard: only operations the
    // fleet saw acknowledged, in acknowledgement order, deduplicated the
    // same way the servers do.
    const Router router(options_.num_shards);
    std::vector<std::unique_ptr<MieServer>> shadows;
    std::vector<std::unique_ptr<net::DedupHandler>> dedups;
    for (std::uint32_t s = 0; s < options_.num_shards; ++s) {
        shadows.push_back(std::make_unique<MieServer>());
        dedups.push_back(std::make_unique<net::DedupHandler>(*shadows[s]));
    }
    for (const Bytes& request : acked_->acked()) {
        dedups[router.shard_of(routed_repo(request))]->handle(request);
    }
    for (std::uint32_t s = 0; s < options_.num_shards; ++s) {
        const Bytes expected = shadows[s]->export_mapped_snapshot();
        Shard& shard = shards_[s];
        std::vector<Node*> replicas;
        if (!shard.killed) replicas.push_back(&shard.primary.hosted->node);
        replicas.push_back(&shard.follower.hosted->node);
        if (shard.replacement.hosted) {
            replicas.push_back(&shard.replacement.hosted->node);
        }
        for (Node* node : replicas) {
            if (node->durable().server().export_mapped_snapshot() !=
                expected) {
                return false;
            }
        }
    }
    return true;
}

bool SoakRun::check_scatter_gather() {
    // Union reference: one node holding every repository, built from the
    // same acked stream.
    MieServer union_server;
    net::DedupHandler union_dedup(union_server);
    for (const Bytes& request : acked_->acked()) {
        union_dedup.handle(request);
    }
    net::MeteredTransport union_wire(union_dedup,
                                     net::LinkProfile::loopback());
    CaptureTransport capture(union_wire);

    std::vector<RepoSearch> queries;
    std::vector<std::vector<ClusterSearchResult>> reference_lists;
    SplitMix64 probe_rng(options_.seed ^ 0x9CA77E2ULL ^
                         (report_.epochs.size() + 1));
    for (std::size_t p = 0; p < options_.search_probes; ++p) {
        const auto repo = static_cast<std::uint32_t>(
            probe_rng.next_below(options_.fleet.num_repositories));
        // Probe clients share the repository key; their own envelope
        // identity is irrelevant (searches are not enveloped).
        MieClient probe(capture, repo_name(repo), repo_keys_[repo],
                        master_secret(repo, false));
        const sim::MultimodalObject query = generators_[repo].make(
            sim::fleet_object_id(repo, 0xFACE00ULL + p));
        probe.search(query, options_.top_k);
        queries.push_back(RepoSearch{repo_name(repo), capture.last_request()});
        reference_lists.push_back(cluster::parse_search_response(
            repo_name(repo), capture.last_response()));
    }

    const std::size_t union_k = options_.top_k * options_.search_probes;
    const std::vector<ClusterSearchResult> expected =
        cluster::merge_ranked(std::move(reference_lists), union_k);

    // The cluster side rides the faulty links; reads are idempotent, so
    // a whole-scatter retry after an exhausted link is safe.
    std::vector<ClusterSearchResult> got;
    for (int attempt = 0;; ++attempt) {
        try {
            got = cluster_->search_union(queries, union_k);
            break;
        } catch (const net::TransportError&) {
            if (attempt >= 16) throw;
        }
    }

    if (got.size() != expected.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].repo_id != expected[i].repo_id ||
            got[i].object_id != expected[i].object_id ||
            got[i].score != expected[i].score ||
            got[i].encrypted_object != expected[i].encrypted_object) {
            return false;
        }
    }
    return true;
}

bool SoakRun::check_secrets() {
    // Client-side secrets that must never reach the server: the per-user
    // master secrets and the per-object data keys derived from them.
    std::vector<Bytes> needles;
    for (std::uint32_t repo = 0; repo < options_.fleet.num_repositories;
         ++repo) {
        for (const bool mobile : {true, false}) {
            Bytes master = master_secret(repo, mobile);
            const DataKeyring ring{Bytes(master)};
            needles.push_back(ring.data_key(sim::fleet_object_id(repo, 0)));
            needles.push_back(ring.data_key(sim::fleet_object_id(repo, 1)));
            needles.push_back(std::move(master));
        }
    }

    // The redaction contract itself: streaming a SecretBytes must never
    // print key material.
    {
        const crypto::SecretBytes secret(BytesView(needles.front()));
        std::ostringstream stream;
        stream << secret;
        const std::string text = stream.str();
        if (text.find("redacted") == std::string::npos) return false;
        if (text.size() > 64) return false;  // suspiciously long = leak
    }

    // Scan every server artifact: on-disk files of every living replica
    // plus their exported snapshots (the "memory dump" stand-in).
    std::vector<Bytes> haystacks;
    const store::PosixVfs& vfs = store::PosixVfs::instance();
    for (Shard& shard : shards_) {
        std::vector<Node*> nodes;
        std::vector<const fs::path*> dirs;
        if (!shard.killed) {
            nodes.push_back(&shard.primary.hosted->node);
            dirs.push_back(&shard.primary.dir);
        }
        nodes.push_back(&shard.follower.hosted->node);
        dirs.push_back(&shard.follower.dir);
        if (shard.replacement.hosted) {
            nodes.push_back(&shard.replacement.hosted->node);
            dirs.push_back(&shard.replacement.dir);
        }
        for (Node* node : nodes) {
            haystacks.push_back(
                node->durable().server().export_mapped_snapshot());
        }
        for (const fs::path* dir : dirs) {
            std::vector<fs::path> files = vfs.list_dir(*dir);
            std::sort(files.begin(), files.end());
            for (const fs::path& file : files) {
                haystacks.push_back(vfs.read_file(file));
            }
        }
    }
    for (const Bytes& haystack : haystacks) {
        for (const Bytes& needle : needles) {
            if (contains_bytes(haystack, needle)) return false;
        }
    }
    return true;
}

std::uint32_t SoakRun::final_state_digest() {
    std::uint32_t state = crc32c_init();
    for (Shard& shard : shards_) {
        const Bytes snapshot =
            shard_truth(shard).durable().server().export_mapped_snapshot();
        state = crc32c_update(state, snapshot);
    }
    return crc32c_final(state);
}

SoakReport SoakRun::run() {
    report_ = SoakReport{};
    report_.seed = options_.seed;
    report_.num_shards = options_.num_shards;

    build_cluster();
    build_clients();
    generate_script();
    setup_repositories();

    const Stopwatch total;
    std::vector<double> all_latencies;
    for (std::size_t epoch = 0; epoch < options_.epochs; ++epoch) {
        run_epoch(epoch);
        all_latencies.insert(all_latencies.end(),
                             epoch_latencies_ms_.begin(),
                             epoch_latencies_ms_.end());
    }
    report_.elapsed_seconds = total.elapsed_seconds();

    report_.operations = events_executed_;
    report_.acked = events_executed_;
    report_.retries = acked_->retries();
    report_.failovers = cluster_->stats().failovers;
    report_.recoveries = recoveries_;
    for (Shard& shard : shards_) {
        report_.faults_injected += shard.primary_link->faulty.stats()
                                       .faults_injected;
        report_.faults_injected += shard.follower_link->faulty.stats()
                                       .faults_injected;
        report_.replays_suppressed += shard.follower.hosted->node.durable()
                                          .durability()
                                          .replays_suppressed;
        if (!shard.killed) {
            report_.replays_suppressed += shard.primary.hosted->node
                                              .durable()
                                              .durability()
                                              .replays_suppressed;
        }
    }
    report_.throughput_ops_per_sec =
        report_.elapsed_seconds > 0.0
            ? static_cast<double>(report_.operations) /
                  report_.elapsed_seconds
            : 0.0;
    report_.p50_ms = percentile_ms(all_latencies, 0.50);
    report_.p95_ms = percentile_ms(all_latencies, 0.95);
    report_.p99_ms = percentile_ms(all_latencies, 0.99);
    report_.state_digest = final_state_digest();

    double mobile_mah = 0.0;
    const sim::DeviceProfile mobile_device = sim::DeviceProfile::mobile();
    // mielint: allow(R3): clients_ is a std::vector; the sum is order-free
    for (const RepoClients& pair : clients_) {
        mobile_mah +=
            sim::energy_of(pair.mobile->meter(), mobile_device).total_mah();
    }
    report_.mobile_energy_mah = mobile_mah;
    return report_;
}

}  // namespace

bool SoakReport::all_oracles_green() const {
    if (epochs.empty()) return false;
    for (const EpochReport& epoch : epochs) {
        if (!epoch.oracles.all_green()) return false;
    }
    return true;
}

std::string SoakReport::to_json() const {
    std::ostringstream json;
    json << "{\n";
    json << "  \"schema_version\": " << kSoakSchemaVersion << ",\n";
    json << "  \"bench\": \"soak\",\n";
    json << "  \"seed\": " << seed << ",\n";
    json << "  \"num_shards\": " << num_shards << ",\n";
    json << "  \"operations\": " << operations << ",\n";
    json << "  \"acked\": " << acked << ",\n";
    json << "  \"retries\": " << retries << ",\n";
    json << "  \"faults_injected\": " << faults_injected << ",\n";
    json << "  \"failovers\": " << failovers << ",\n";
    json << "  \"recoveries\": " << recoveries << ",\n";
    json << "  \"replays_suppressed\": " << replays_suppressed << ",\n";
    json << "  \"elapsed_seconds\": " << elapsed_seconds << ",\n";
    json << "  \"throughput_ops_per_sec\": " << throughput_ops_per_sec
         << ",\n";
    json << "  \"latency_ms\": {\"p50\": " << p50_ms << ", \"p95\": "
         << p95_ms << ", \"p99\": " << p99_ms << "},\n";
    json << "  \"state_digest\": " << state_digest << ",\n";
    json << "  \"mobile_energy_mah\": " << mobile_energy_mah << ",\n";
    json << "  \"all_oracles_green\": "
         << (all_oracles_green() ? "true" : "false") << ",\n";
    json << "  \"epochs\": [\n";
    for (std::size_t i = 0; i < epochs.size(); ++i) {
        const EpochReport& e = epochs[i];
        json << "    {\"epoch\": " << e.epoch
             << ", \"operations\": " << e.operations
             << ", \"retries\": " << e.retries
             << ", \"failovers\": " << e.failovers
             << ", \"recoveries\": " << e.recoveries
             << ", \"p50_ms\": " << e.p50_ms
             << ", \"p95_ms\": " << e.p95_ms
             << ", \"p99_ms\": " << e.p99_ms
             << ", \"oracles\": {\"exactly_once\": "
             << (e.oracles.exactly_once ? "true" : "false")
             << ", \"scatter_gather\": "
             << (e.oracles.scatter_gather ? "true" : "false")
             << ", \"offsets_monotone\": "
             << (e.oracles.offsets_monotone ? "true" : "false")
             << ", \"secrets_redacted\": "
             << (e.oracles.secrets_redacted ? "true" : "false") << "}}"
             << (i + 1 < epochs.size() ? "," : "") << "\n";
    }
    json << "  ]\n";
    json << "}\n";
    return json.str();
}

SoakReport run_soak(const SoakOptions& options) {
    SoakRun run(options);
    return run.run();
}

}  // namespace mie::soak
