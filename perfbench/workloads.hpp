// The benchmark's workloads against the production MIE stack:
//
//   MieClient / recorded requests
//     -> net::TcpTransport (one connection per load thread)
//     -> reactor::ReactorServer (reads on the exec pool)
//        + reactor::GroupCommitter (mutations, one fsync per batch)
//     -> cluster::Node primary -> mie::DurableServer
//        (WAL SyncPolicy::kEveryRecord: an ack means fsynced)
//
// Every workload shares one set-up (record the request corpus with real
// MieClients, load the repository, TRAIN) and one post-set-up phase
// (checkpoint plus a fixed WAL tail, the probe queries, restart and
// replica bootstrap), then runs its own timed phase. See METRICS.md for
// every metric's definition.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Load threads (= client connections) the generator may use; never
    /// more than nproc.
    std::size_t load_threads = 4;
    /// Scratch directory for server state (inside the checkout).
    std::filesystem::path workdir;
    /// Where a traced run writes its spans (JSON lines); empty = nowhere.
    std::string trace_path;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /// Human-readable descriptions of failed operations and gates.
    std::vector<std::string> failures;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload. End-to-end metrics with trace == false; per-layer
/// metrics (from an untraced and a traced timed phase) with trace == true.
Outcome run_workload(const Options& options);

}  // namespace perfbench
