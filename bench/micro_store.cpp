// Micro-benchmark: server-side update throughput with and without the
// durable storage engine (src/store write-ahead log).
//
// Pre-records a batch of UPDATE requests as raw wire bytes, then replays
// the identical bytes against:
//   1. a plain in-memory MieServer           (unlogged baseline)
//   2. DurableServer, default options        (WAL, sync-on-rotate)
//   3. DurableServer, SyncPolicy::kEveryRecord (fsync per record)
//
// The headline number is the logged-vs-unlogged overhead at the default
// segment size/sync policy; the acceptance bar for the storage engine is
// <= 25%. kEveryRecord is reported for context — it pays one fdatasync
// per update (~100 µs+ on typical ext4), which is the price of power-loss
// durability rather than process-crash durability.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <sstream>
#include <vector>

#include "common.hpp"
#include "mie/durable_server.hpp"
#include "store/file.hpp"
#include "store/wal.hpp"

namespace {

namespace fs = std::filesystem;
using namespace mie;
using namespace mie::bench;

/// Forwards to a handler while keeping a copy of every request.
class RecordingTransport final : public net::Transport {
public:
    explicit RecordingTransport(net::RequestHandler& handler)
        : handler_(handler) {}

    Bytes call(BytesView request) override {
        requests.emplace_back(request.begin(), request.end());
        return handler_.handle(request);
    }

    std::vector<Bytes> requests;

private:
    net::RequestHandler& handler_;
};

/// Replays the seed prefix (create + initial load + train) untimed, then
/// times the remaining UPDATE requests. Best of `rounds` fresh passes;
/// each pass gets a fresh server from the factory.
template <typename MakeServer>
double measure(const std::vector<Bytes>& requests, std::size_t seed_count,
               MakeServer make_server, int rounds) {
    double best = 0.0;
    for (int round = 0; round < rounds; ++round) {
        auto server = make_server();
        for (std::size_t i = 0; i < seed_count; ++i) {
            server->handle(requests[i]);
        }
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = seed_count; i < requests.size(); ++i) {
            server->handle(requests[i]);
        }
        const auto elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        const double rate =
            static_cast<double>(requests.size() - seed_count) / elapsed;
        if (rate > best) best = rate;
    }
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    mie::bench::configure_threads(argc, argv);
    const std::size_t num_seed = scaled(60);
    const std::size_t num_updates = scaled(240);
    const int rounds = 3;

    std::cout << "=== micro_store: logged vs unlogged update throughput ==="
              << "\n(" << num_seed << " seed objects + train, then "
              << num_updates << " timed pre-encoded UPDATE requests into "
              << "the trained index; best of " << rounds << " rounds)\n";

    // Record the wire bytes once: create + seed load + train + N updates.
    // The timed updates hit a trained repository — the steady-state
    // server-side update path (decode + tree quantization + posting
    // insertion), the same work the paper's update figures measure.
    std::vector<Bytes> requests;
    {
        MieServer scratch;
        RecordingTransport transport(scratch);
        auto key = RepositoryKey::generate(to_bytes("bench-store"), 64, 64,
                                           0.7978845608);
        MieClient client(transport, "bench", key, to_bytes("user"));
        auto generator = default_generator();
        client.create_repository();
        for (const auto& object : generator.make_batch(0, num_seed)) {
            client.update(object);
        }
        client.train();
        for (const auto& object :
             generator.make_batch(num_seed, num_updates)) {
            client.update(object);
        }
        requests = std::move(transport.requests);
    }
    const std::size_t seed_count = num_seed + 2;  // create + seeds + train

    const fs::path dir =
        fs::temp_directory_path() /
        ("mie_micro_store_" +
         std::to_string(
             std::chrono::steady_clock::now().time_since_epoch().count()));
    int cell = 0;
    const auto fresh_dir = [&] {
        const fs::path d = dir / std::to_string(cell++);
        fs::remove_all(d);
        return d;
    };

    const double unlogged = measure(
        requests, seed_count, [] { return std::make_unique<MieServer>(); },
        rounds);

    const double logged_default = measure(
        requests, seed_count,
        [&] {
            return std::make_unique<DurableServer>(
                store::PosixVfs::instance(), fresh_dir());
        },
        rounds);

    const double logged_every = measure(
        requests, seed_count,
        [&] {
            DurableServer::Options options;
            options.wal.sync_policy = store::SyncPolicy::kEveryRecord;
            return std::make_unique<DurableServer>(
                store::PosixVfs::instance(), fresh_dir(), options);
        },
        rounds);

    // --- restart cost: reopen the same directory after shutdown ----------
    // Loads the full recorded workload into a DurableServer, optionally
    // checkpoints, destroys it, then times construction (= recovery) of a
    // fresh server over the same directory. Two variants:
    //   mmap snapshot   — recovery maps the snapshot file and verifies
    //                     it; no tree or index is rebuilt;
    //   pure WAL replay — re-applies every logged request.
    struct Restart {
        double open_s = std::numeric_limits<double>::infinity();
        std::size_t snapshot_bytes = 0;
        bool from_checkpoint = false;
        std::size_t replayed = 0;
    };
    const auto measure_restart = [&](bool checkpoint) {
        const fs::path d = fresh_dir();
        {
            DurableServer server(store::PosixVfs::instance(), d);
            for (const auto& request : requests) server.handle(request);
            if (checkpoint) server.checkpoint_now();
        }
        Restart r;
        for (int round = 0; round < rounds; ++round) {
            const auto start = std::chrono::steady_clock::now();
            DurableServer server(store::PosixVfs::instance(), d);
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            r.open_s = std::min(r.open_s, elapsed);
            const auto stats = server.durability();
            r.from_checkpoint = stats.recovered_from_checkpoint;
            r.replayed = stats.recovered_records;
        }
        const fs::path snapshots = d / "snapshots";
        if (fs::exists(snapshots)) {
            for (const auto& entry : fs::directory_iterator(snapshots)) {
                r.snapshot_bytes += fs::file_size(entry.path());
            }
        }
        return r;
    };
    const Restart restart_mmap = measure_restart(true);
    const Restart restart_replay = measure_restart(false);

    fs::remove_all(dir);

    const auto overhead = [&](double logged) {
        return (unlogged / logged - 1.0) * 100.0;
    };
    std::printf("\n  %-34s %10.0f updates/s\n", "in-memory MieServer:",
                unlogged);
    std::printf("  %-34s %10.0f updates/s  (overhead %+.1f%%)\n",
                "DurableServer (default, on-rotate):", logged_default,
                overhead(logged_default));
    std::printf("  %-34s %10.0f updates/s  (overhead %+.1f%%)\n",
                "DurableServer (fsync every record):", logged_every,
                overhead(logged_every));

    std::printf("\n  restart after clean shutdown (best of %d):\n", rounds);
    std::printf("    %-34s %8.2f ms  (snapshot %zu bytes, %zu records "
                "replayed)\n",
                "mmap snapshot:", restart_mmap.open_s * 1e3,
                restart_mmap.snapshot_bytes, restart_mmap.replayed);
    std::printf("    %-34s %8.2f ms  (%zu records replayed)\n",
                "pure WAL replay (no checkpoint):",
                restart_replay.open_s * 1e3, restart_replay.replayed);

    const bool ok = overhead(logged_default) <= 25.0;
    std::printf("\n  default-policy overhead <= 25%%:    %s\n",
                ok ? "yes" : "NO");

    const auto bool_str = [](bool b) { return b ? "true" : "false"; };
    std::ostringstream json;
    json << json_header("micro_store") << ",\"seed_objects\":" << num_seed
         << ",\"timed_updates\":" << num_updates
         << ",\"updates_per_s\":{\"unlogged\":" << unlogged
         << ",\"logged_default\":" << logged_default
         << ",\"logged_every_record\":" << logged_every
         << "},\"overhead_pct\":{\"logged_default\":"
         << overhead(logged_default) << ",\"logged_every_record\":"
         << overhead(logged_every) << "},\"restart\":{\"mmap_snapshot\":{"
         << "\"open_s\":" << restart_mmap.open_s << ",\"from_checkpoint\":"
         << bool_str(restart_mmap.from_checkpoint)
         << ",\"wal_records_replayed\":" << restart_mmap.replayed
         << ",\"snapshot_bytes\":" << restart_mmap.snapshot_bytes
         << "},\"wal_replay\":{\"open_s\":" << restart_replay.open_s
         << ",\"wal_records_replayed\":" << restart_replay.replayed
         << "},\"mmap_speedup_vs_wal_replay\":"
         << (restart_mmap.open_s > 0.0
                 ? restart_replay.open_s / restart_mmap.open_s
                 : 0.0)
         << "},\"overhead_le_25pct\":" << bool_str(ok) << "}";
    emit_json(argc, argv, json.str());
    return ok ? 0 : 1;
}
