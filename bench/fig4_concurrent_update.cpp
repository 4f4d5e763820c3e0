// Figure 4, server edition: N closed-loop clients concurrently updating
// one shared repository over real sockets, against two durable server
// stacks built from the SAME DurableServer (WAL, fsync-per-commit,
// replay dedup):
//
//   blocking  net::TcpServer, thread per connection, every mutating
//             request pays its own WAL append + fsync;
//   reactor   reactor::ReactorServer (epoll loop) funneling mutating
//             requests into reactor::GroupCommitter — pending requests
//             from all connections commit as one WAL batch with ONE
//             fsync, each acked only after its batch is durable.
//
// Request streams are recorded once per client (real MieClient update
// RPCs, idempotency envelopes included) and replayed verbatim against a
// fresh server per scenario, so both stacks serve byte-identical
// workloads. The closed loop reports mutating-opcode throughput and
// p50/p95/p99 latency at 1, 8 and 64 clients; group commit should win
// once concurrency offers batches to amortize the fsync (>= 8 clients).
//
// --fault-rate R (default 0) wraps every client link in deterministic
// fault injection + bounded retries; servers dedupe enveloped replays,
// so each scenario must still end with exactly clients*ops objects.
// --json PATH additionally writes the machine-readable summary to PATH.
//
// --shards N switches to the cluster experiment instead: shard counts
// 1,2,4,... up to N, each shard a cluster::Node primary on its own
// reactor + group committer, with every client writing its own
// repository through a cluster::ClusterClient (HKDF routing). The WAL
// fsync stream — the single-node bottleneck above — is split across
// shards, so throughput should scale until clients stop queueing.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/client.hpp"
#include "cluster/node.hpp"
#include "cluster/router.hpp"
#include "common.hpp"
#include "mie/client.hpp"
#include "mie/durable_server.hpp"
#include "mie/keys.hpp"
#include "mie/wire.hpp"
#include "net/faulty.hpp"
#include "net/retry.hpp"
#include "net/tcp.hpp"
#include "reactor/group_commit.hpp"
#include "reactor/reactor.hpp"
#include "sim/dataset.hpp"
#include "store/file.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace mie;
using namespace mie::bench;

/// Captures every request a recording client sends while still serving
/// it from a live in-process server (streams must be valid RPCs: the
/// scratch server answers creates/updates during recording).
class RecordingTransport final : public net::Transport {
public:
    explicit RecordingTransport(net::RequestHandler& handler)
        : handler_(handler) {}

    Bytes call(BytesView request) override {
        recorded.emplace_back(request.begin(), request.end());
        return handler_.handle(request);
    }

    std::vector<Bytes> recorded;

private:
    net::RequestHandler& handler_;
};

Bytes create_repo_request() {
    net::MessageWriter writer;
    writer.write_u8(static_cast<std::uint8_t>(MieOp::kCreateRepository));
    writer.write_string("bench-repo");
    return writer.take();
}

/// Nearest-rank percentile of an ascending sample vector, in ms.
double percentile_ms(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const auto last = sorted.size() - 1;
    const auto idx = static_cast<std::size_t>(q * static_cast<double>(last) +
                                              0.5);
    return sorted[std::min(idx, last)] * 1e3;
}

struct ScenarioResult {
    std::string mode;
    std::size_t clients = 0;
    std::size_t ops = 0;
    double wall_seconds = 0.0;
    double throughput = 0.0;  ///< mutating ops per second
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    std::size_t records_logged = 0;
    std::size_t batches_committed = 0;
    std::size_t max_batch_records = 0;
    std::size_t replays_suppressed = 0;
    std::uint64_t retries = 0;
    std::uint64_t faults_injected = 0;
    std::size_t objects = 0;
    std::size_t expected_objects = 0;

    bool objects_ok() const { return objects == expected_objects; }
};

ScenarioResult run_scenario(const std::string& mode, std::size_t clients,
                            const std::vector<std::vector<Bytes>>& streams,
                            double fault_rate) {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("mie-fig4-" + mode + "-" + std::to_string(clients) + "-" +
         std::to_string(static_cast<long>(::getpid())));
    fs::remove_all(dir);

    ScenarioResult out;
    out.mode = mode;
    out.clients = clients;
    {
        DurableServer durable(
            store::PosixVfs::instance(), dir,
            {.wal = {.sync_policy = store::SyncPolicy::kEveryRecord}});
        durable.handle(create_repo_request());

        std::unique_ptr<net::TcpServer> blocking;
        std::unique_ptr<reactor::GroupCommitter> committer;
        std::unique_ptr<reactor::ReactorServer> epoll;
        std::uint16_t port = 0;
        if (mode == "blocking") {
            blocking = std::make_unique<net::TcpServer>(durable);
            blocking->start();
            port = blocking->port();
        } else {
            committer = std::make_unique<reactor::GroupCommitter>(durable);
            epoll = std::make_unique<reactor::ReactorServer>(
                durable, committer.get(),
                [](BytesView request) {
                    return is_mutating_request(request);
                });
            epoll->start();
            port = epoll->port();
        }

        // Closed loop: each client thread replays its recorded stream,
        // one outstanding request at a time, timing every call.
        std::vector<std::vector<double>> latencies(clients);
        std::vector<std::exception_ptr> failures(clients);
        std::atomic<std::uint64_t> retries{0};
        std::atomic<std::uint64_t> faults{0};
        Stopwatch wall;
        {
            std::vector<std::thread> threads;
            threads.reserve(clients);
            for (std::size_t c = 0; c < clients; ++c) {
                threads.emplace_back([&, c] {
                    try {
                        net::TcpTransport tcp("127.0.0.1", port);
                        std::unique_ptr<net::FaultyTransport> faulty;
                        std::unique_ptr<net::RetryingTransport> retry;
                        net::Transport* link = &tcp;
                        if (fault_rate > 0.0) {
                            faulty = std::make_unique<net::FaultyTransport>(
                                tcp, net::FaultPlan{.rate = fault_rate,
                                                    .seed = 9000 + c});
                            retry = std::make_unique<net::RetryingTransport>(
                                *faulty,
                                net::RetryPolicy{.max_attempts = 6,
                                                 .jitter_seed = 100 + c});
                            // Backoff stays modeled: the loopback link is
                            // not congested, sleeping only slows the bench.
                            retry->set_sleeper([](double) {});
                            link = retry.get();
                        }
                        auto& samples = latencies[c];
                        samples.reserve(streams[c].size());
                        for (const Bytes& request : streams[c]) {
                            Stopwatch op;
                            link->call(request);
                            samples.push_back(op.elapsed_seconds());
                        }
                        if (retry) {
                            retries += retry->stats().retries;
                            faults += faulty->stats().faults_injected;
                        }
                    } catch (...) {
                        failures[c] = std::current_exception();
                    }
                });
            }
            for (auto& thread : threads) thread.join();
        }
        out.wall_seconds = wall.elapsed_seconds();
        for (const auto& failure : failures) {
            if (failure) std::rethrow_exception(failure);
        }

        if (epoll) {
            epoll->stop();
            committer->stop();
        }
        if (blocking) blocking->stop();

        std::vector<double> merged;
        for (const auto& samples : latencies) {
            merged.insert(merged.end(), samples.begin(), samples.end());
        }
        std::sort(merged.begin(), merged.end());
        out.ops = merged.size();
        out.throughput = out.wall_seconds > 0.0
                             ? static_cast<double>(out.ops) / out.wall_seconds
                             : 0.0;
        out.p50_ms = percentile_ms(merged, 0.50);
        out.p95_ms = percentile_ms(merged, 0.95);
        out.p99_ms = percentile_ms(merged, 0.99);

        const auto durability = durable.durability();
        out.records_logged = durability.records_logged;
        out.batches_committed = durability.batches_committed;
        out.max_batch_records = durability.max_batch_records;
        out.replays_suppressed = durability.replays_suppressed;
        out.retries = retries.load();
        out.faults_injected = faults.load();
        out.objects = durable.server().stats("bench-repo").num_objects;
        std::size_t expected = 0;
        for (std::size_t c = 0; c < clients; ++c) {
            expected += streams[c].size();
        }
        out.expected_objects = expected;
    }
    std::filesystem::remove_all(dir);
    return out;
}

std::string to_json(const std::vector<ScenarioResult>& results,
                    double fault_rate, std::size_t ops_per_client) {
    std::ostringstream json;
    json << "{\"schema_version\":1,"
         << "\"bench\":\"fig4_concurrent_update\",\"fault_rate\":"
         << fault_rate << ",\"threads\":" << bench_threads()
         << ",\"ops_per_client\":" << ops_per_client << ",\"scenarios\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        if (i != 0) json << ",";
        json << "{\"mode\":\"" << r.mode << "\",\"clients\":" << r.clients
             << ",\"ops\":" << r.ops << ",\"wall_seconds\":" << r.wall_seconds
             << ",\"throughput_ops_per_s\":" << r.throughput
             << ",\"p50_ms\":" << r.p50_ms << ",\"p95_ms\":" << r.p95_ms
             << ",\"p99_ms\":" << r.p99_ms
             << ",\"records_logged\":" << r.records_logged
             << ",\"batches_committed\":" << r.batches_committed
             << ",\"max_batch_records\":" << r.max_batch_records
             << ",\"replays_suppressed\":" << r.replays_suppressed
             << ",\"retries\":" << r.retries
             << ",\"faults_injected\":" << r.faults_injected
             << ",\"objects\":" << r.objects
             << ",\"objects_ok\":" << (r.objects_ok() ? "true" : "false")
             << "}";
    }
    json << "],\"reactor_speedup\":{";
    bool first = true;
    for (const auto& r : results) {
        if (r.mode != "reactor") continue;
        for (const auto& b : results) {
            if (b.mode == "blocking" && b.clients == r.clients &&
                b.throughput > 0.0) {
                if (!first) json << ",";
                first = false;
                json << "\"" << r.clients
                     << "\":" << r.throughput / b.throughput;
            }
        }
    }
    json << "}}";
    return json.str();
}

// ---------------------------------------------------------------------------
// --shards mode: the same closed-loop update workload against a sharded
// cluster, one repository per client routed by the HKDF router.
// ---------------------------------------------------------------------------

struct ClusterScenarioResult {
    std::size_t shards = 0;
    std::size_t clients = 0;
    std::size_t ops = 0;
    double wall_seconds = 0.0;
    double throughput = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    std::size_t records_logged = 0;
    bool objects_ok = false;
};

ClusterScenarioResult run_cluster_scenario(
    std::size_t shards, const std::vector<std::string>& repos,
    const std::vector<std::vector<Bytes>>& streams,
    std::size_t ops_per_client) {
    namespace fs = std::filesystem;
    const std::size_t clients = streams.size();
    const fs::path dir =
        fs::temp_directory_path() /
        ("mie-fig4-cluster-" + std::to_string(shards) + "-" +
         std::to_string(static_cast<long>(::getpid())));
    fs::remove_all(dir);

    ClusterScenarioResult out;
    out.shards = shards;
    out.clients = clients;
    {
        // One primary node per shard, each on its own reactor + group
        // committer, fsync per commit — the same durability contract as
        // the single-node scenarios above.
        struct Shard {
            Shard(const fs::path& shard_dir)
                : node(store::PosixVfs::instance(), shard_dir,
                       cluster::NodeOptions{
                           .storage = {.wal = {.sync_policy = store::
                                                   SyncPolicy::kEveryRecord}}}),
                  committer(node),
                  server(node, &committer, [](BytesView request) {
                      return is_mutating_request(request);
                  }) {
                server.start();
            }
            cluster::Node node;
            reactor::GroupCommitter committer;
            reactor::ReactorServer server;
        };
        std::vector<std::unique_ptr<Shard>> cluster;
        for (std::size_t s = 0; s < shards; ++s) {
            cluster.push_back(std::make_unique<Shard>(
                dir / ("shard" + std::to_string(s))));
        }

        std::vector<std::vector<double>> latencies(clients);
        std::vector<std::exception_ptr> failures(clients);
        Stopwatch wall;
        {
            std::vector<std::thread> threads;
            threads.reserve(clients);
            for (std::size_t c = 0; c < clients; ++c) {
                threads.emplace_back([&, c] {
                    try {
                        // Each client owns one connection per shard,
                        // matching one TLS session per endpoint.
                        std::vector<std::unique_ptr<net::TcpTransport>> links;
                        std::vector<cluster::ShardEndpoints> endpoints;
                        for (const auto& shard : cluster) {
                            links.push_back(
                                std::make_unique<net::TcpTransport>(
                                    "127.0.0.1", shard->server.port()));
                            endpoints.push_back({links.back().get(), nullptr});
                        }
                        cluster::ClusterClient router(std::move(endpoints));
                        auto& samples = latencies[c];
                        samples.reserve(streams[c].size());
                        for (const Bytes& request : streams[c]) {
                            Stopwatch op;
                            router.call(request);
                            samples.push_back(op.elapsed_seconds());
                        }
                    } catch (...) {
                        failures[c] = std::current_exception();
                    }
                });
            }
            for (auto& thread : threads) thread.join();
        }
        out.wall_seconds = wall.elapsed_seconds();
        for (const auto& failure : failures) {
            if (failure) std::rethrow_exception(failure);
        }
        for (auto& shard : cluster) {
            shard->server.stop();
            shard->committer.stop();
        }

        std::vector<double> merged;
        for (const auto& samples : latencies) {
            merged.insert(merged.end(), samples.begin(), samples.end());
        }
        std::sort(merged.begin(), merged.end());
        out.ops = merged.size();
        out.throughput = out.wall_seconds > 0.0
                             ? static_cast<double>(out.ops) / out.wall_seconds
                             : 0.0;
        out.p50_ms = percentile_ms(merged, 0.50);
        out.p95_ms = percentile_ms(merged, 0.95);
        out.p99_ms = percentile_ms(merged, 0.99);

        const cluster::Router placement(
            static_cast<std::uint32_t>(shards));
        out.objects_ok = true;
        for (std::size_t c = 0; c < clients; ++c) {
            const auto& owner = cluster[placement.shard_of(repos[c])]->node;
            out.objects_ok =
                out.objects_ok &&
                owner.durable().server().stats(repos[c]).num_objects ==
                    ops_per_client;
        }
        for (const auto& shard : cluster) {
            out.records_logged += shard->node.durable().durability()
                                      .records_logged;
        }
    }
    fs::remove_all(dir);
    return out;
}

int run_cluster_bench(std::size_t max_shards, const std::string& json_path) {
    const std::size_t clients = 16;
    const std::size_t ops_per_client = scaled(24);
    std::cout << "=== Figure 4, cluster edition: " << clients
              << " closed-loop writers over 1.." << max_shards
              << " shards (HKDF routing, one repository per writer) ===\n\n"
              << "Recording per-client request streams...\n";

    // Per-client streams: create + updates for the client's own
    // repository, recorded once and replayed against every shard count
    // (routing is deterministic in the repository id, so the identical
    // bytes exercise every placement).
    std::vector<std::string> repos;
    std::vector<std::vector<Bytes>> streams(clients);
    MieServer scratch;
    for (std::size_t c = 0; c < clients; ++c) {
        repos.push_back("bench-repo-" + std::to_string(c));
        RecordingTransport recorder(scratch);
        MieClient client(recorder, repos[c],
                         RepositoryKey::generate(to_bytes("fig4-" + repos[c]),
                                                 64, 64, 0.7978845608),
                         to_bytes("writer" + std::to_string(c)));
        client.create_repository();
        const sim::FlickrLikeGenerator generator(sim::FlickrLikeParams{
            .num_classes = 8, .image_size = 48, .seed = 300 + c});
        for (std::size_t i = 0; i < ops_per_client; ++i) {
            client.update(generator.make(c * 100000 + i));
        }
        streams[c] = std::move(recorder.recorded);
    }

    std::vector<ClusterScenarioResult> results;
    for (std::size_t shards = 1; shards <= max_shards; shards *= 2) {
        results.push_back(
            run_cluster_scenario(shards, repos, streams, ops_per_client));
        const auto& r = results.back();
        std::printf(
            "  %2zu shard%s: %6zu ops in %6.3fs  %8.1f ops/s  "
            "p50 %6.2fms  p95 %6.2fms  p99 %6.2fms%s\n",
            r.shards, r.shards == 1 ? " " : "s", r.ops, r.wall_seconds,
            r.throughput, r.p50_ms, r.p95_ms, r.p99_ms,
            r.objects_ok ? "" : "  OBJECT-COUNT MISMATCH");
    }

    bool all_ok = true;
    std::ostringstream json;
    json << "{\"schema_version\":1,"
         << "\"bench\":\"fig4_cluster\",\"clients\":" << clients
         << ",\"ops_per_client\":" << ops_per_client
         << ",\"threads\":" << bench_threads() << ",\"scenarios\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        all_ok = all_ok && r.objects_ok;
        if (i != 0) json << ",";
        json << "{\"shards\":" << r.shards << ",\"ops\":" << r.ops
             << ",\"wall_seconds\":" << r.wall_seconds
             << ",\"throughput_ops_per_s\":" << r.throughput
             << ",\"p50_ms\":" << r.p50_ms << ",\"p95_ms\":" << r.p95_ms
             << ",\"p99_ms\":" << r.p99_ms
             << ",\"records_logged\":" << r.records_logged
             << ",\"objects_ok\":" << (r.objects_ok ? "true" : "false")
             << "}";
    }
    json << "],\"scaling_vs_1_shard\":{";
    for (std::size_t i = 1; i < results.size(); ++i) {
        if (i != 1) json << ",";
        json << "\"" << results[i].shards << "\":"
             << (results[0].throughput > 0.0
                     ? results[i].throughput / results[0].throughput
                     : 0.0);
    }
    json << "}}";

    std::printf("\nExactly-once integrity: %s (every repository ended with "
                "exactly its writer's %zu objects)\n",
                all_ok ? "ok" : "VIOLATED", ops_per_client);
    std::cout << "\n" << json.str() << "\n";
    if (!json_path.empty()) {
        std::ofstream file(json_path);
        file << json.str() << "\n";
    }
    return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    mie::bench::configure_threads(argc, argv);
    using namespace mie;
    using namespace mie::bench;

    const double fault_rate =
        parse_double_flag(argc, argv, "--fault-rate", 0.0);
    const std::string json_path =
        parse_string_flag(argc, argv, "--json", "");
    const auto max_shards = static_cast<std::size_t>(
        parse_double_flag(argc, argv, "--shards", 0.0));
    if (max_shards > 0) return run_cluster_bench(max_shards, json_path);
    const std::vector<std::size_t> client_counts = {1, 8, 64};
    const std::size_t max_clients = client_counts.back();
    const std::size_t ops_per_client = scaled(24);

    std::cout << "=== Figure 4: concurrent update over TCP — blocking "
                 "thread-per-connection vs epoll reactor + group commit ===\n"
              << "(" << ops_per_client << " updates per client at 1/8/64 "
              << "clients; WAL fsync per commit; fault rate " << fault_rate
              << ")\n\nRecording per-client request streams (real MieClient "
                 "update RPCs, envelopes included)...\n";

    // Record once, replay everywhere: client c's stream is its enveloped
    // update RPCs for objects c*100000+i, captured against a scratch
    // in-memory server. Replaying the identical bytes against each
    // scenario's fresh DurableServer keeps the comparison exact.
    const auto device = scaled_bench_device(sim::DeviceProfile::desktop());
    MieServer scratch;
    std::vector<std::vector<Bytes>> streams(max_clients);
    {
        const Bytes create = create_repo_request();
        scratch.handle(create);
        for (std::size_t c = 0; c < max_clients; ++c) {
            RecordingTransport recorder(scratch);
            auto client = join_mie_client(device, recorder, 500 + c,
                                          "writer" + std::to_string(c));
            const sim::FlickrLikeGenerator generator(sim::FlickrLikeParams{
                .num_classes = 8, .image_size = 48, .seed = 300 + c});
            for (std::size_t i = 0; i < ops_per_client; ++i) {
                client->update(generator.make(c * 100000 + i));
            }
            streams[c] = std::move(recorder.recorded);
        }
    }

    std::vector<ScenarioResult> results;
    for (const std::size_t clients : client_counts) {
        for (const std::string mode : {"blocking", "reactor"}) {
            results.push_back(
                run_scenario(mode, clients, streams, fault_rate));
            const auto& r = results.back();
            std::printf(
                "  %-8s %3zu clients: %6zu ops in %6.3fs  "
                "%8.1f ops/s  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms%s\n",
                r.mode.c_str(), r.clients, r.ops, r.wall_seconds,
                r.throughput, r.p50_ms, r.p95_ms, r.p99_ms,
                r.objects_ok() ? "" : "  OBJECT-COUNT MISMATCH");
        }
    }

    std::printf("\n%-8s %8s %14s %10s %10s %10s %8s %9s\n", "mode",
                "clients", "throughput/s", "p50 ms", "p95 ms", "p99 ms",
                "batches", "maxbatch");
    for (const auto& r : results) {
        std::printf("%-8s %8zu %14.1f %10.2f %10.2f %10.2f %8zu %9zu\n",
                    r.mode.c_str(), r.clients, r.throughput, r.p50_ms,
                    r.p95_ms, r.p99_ms, r.batches_committed,
                    r.max_batch_records);
    }

    bool all_ok = true;
    for (const auto& r : results) all_ok = all_ok && r.objects_ok();
    std::printf(
        "\nExactly-once integrity: %s (every scenario ended with "
        "clients*ops objects%s)\n",
        all_ok ? "ok" : "VIOLATED",
        fault_rate > 0.0 ? ", with injected faults forcing retries" : "");

    for (const std::size_t clients : client_counts) {
        const ScenarioResult* blocking = nullptr;
        const ScenarioResult* epoll = nullptr;
        for (const auto& r : results) {
            if (r.clients != clients) continue;
            (r.mode == "blocking" ? blocking : epoll) = &r;
        }
        if (blocking && epoll && blocking->throughput > 0.0) {
            std::printf(
                "  %2zu clients: reactor/blocking throughput = %.2fx\n",
                clients, epoll->throughput / blocking->throughput);
        }
    }

    const std::string json = to_json(results, fault_rate, ops_per_client);
    std::cout << "\n" << json << "\n";
    if (!json_path.empty()) {
        std::ofstream file(json_path);
        file << json << "\n";
    }
    return all_ok ? 0 : 1;
}
