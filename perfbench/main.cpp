// mie_perfbench: runs one benchmark workload against the MIE stack and
// prints its metrics.
//
//   mie_perfbench --workload ingest|search --seed N --seconds S
//                 --trace 0|1 [--threads N] [--workdir DIR]
//                 [--trace-out FILE] [--commit SHA] [--allow-debug]
//
// Standard output ends with one JSON object:
//   {"correct": bool, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
// preceded by a "perfbench-meta {...}" line recording how the run was
// configured. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Exit status: 0 when every operation and correctness
// gate passed, 1 when any failed, 2 on bad usage or a refused build.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "exec/exec.hpp"
#include "kernels/kernels.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool optimized_build() {
#ifdef NDEBUG
    const std::string type = PERFBENCH_BUILD_TYPE;
    return type == "Release" || type == "RelWithDebInfo";
#else
    return false;
#endif
}

int usage(const std::string& why) {
    std::cerr << "mie_perfbench: " << why
              << "\nusage: mie_perfbench --workload ingest|search "
                 "--seed N --seconds S --trace 0|1 [--threads N] "
                 "[--workdir DIR] [--trace-out FILE] [--commit SHA] "
                 "[--allow-debug]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options options;
    options.workdir = std::filesystem::path(".bench_build") / "work";
    const std::size_t nproc =
        std::max<unsigned>(1, std::thread::hardware_concurrency());
    std::size_t threads = nproc;
    options.load_threads = std::min<std::size_t>(4, nproc);
    std::string commit = "unknown";
    bool allow_debug = false;
    int trace = -1;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--allow-debug") {
                allow_debug = true;
                continue;
            }
            if (i + 1 >= argc) return usage("missing value for " + arg);
            const std::string value = argv[++i];
            if (arg == "--workload") {
                options.workload = value;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
            } else if (arg == "--trace") {
                trace = std::stoi(value);
            } else if (arg == "--threads") {
                threads = std::max<std::size_t>(1, std::stoul(value));
            } else if (arg == "--workdir") {
                options.workdir = value;
            } else if (arg == "--trace-out") {
                options.trace_path = value;
            } else if (arg == "--commit") {
                commit = value;
            } else {
                return usage("unknown flag " + arg);
            }
        }
    } catch (const std::exception&) {
        return usage("malformed flag value");
    }
    const auto& names = perfbench::workload_names();
    if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
        return usage("unknown workload '" + options.workload + "'");
    }
    if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
    if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
    options.trace = trace == 1;
    if (!optimized_build() && !allow_debug) {
        std::cerr << "mie_perfbench: refusing to report from a non-optimized "
                     "build (" PERFBENCH_BUILD_TYPE "); pass --allow-debug to "
                     "override\n";
        return 2;
    }
    // Server state lives under a per-process directory of the workdir.
    options.workdir /= options.workload + "-" + std::to_string(::getpid());
    mie::exec::set_max_threads(threads);

    std::ostringstream meta;
    meta << "{\"workload\":" << json_string(options.workload)
         << ",\"seed\":" << options.seed << ",\"seconds\":"
         << json_number(options.seconds) << ",\"trace\":" << trace
         << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
         << ",\"optimized\":" << (optimized_build() ? "true" : "false")
         << ",\"commit\":" << json_string(commit) << ",\"nproc\":" << nproc
         << ",\"threads\":" << threads
         << ",\"exec_pool_width\":" << mie::exec::max_threads()
         << ",\"exec_pool_workers\":"
         << mie::exec::ThreadPool::global().num_workers()
         << ",\"kernel_level\":"
         << json_string(mie::kernels::level_name(mie::kernels::active_level()))
         << ",\"wal_sync_policy\":\"kEveryRecord\""
         << ",\"load_threads\":" << options.load_threads << "}";
    std::cout << "perfbench-meta " << meta.str() << std::endl;

    perfbench::Outcome outcome;
    try {
        outcome = perfbench::run_workload(options);
    } catch (const std::exception& e) {
        std::error_code ignored;
        std::filesystem::remove_all(options.workdir, ignored);
        std::cerr << "mie_perfbench: run aborted: " << e.what() << "\n";
        return 1;
    }
    for (const std::string& failure : outcome.failures) {
        std::cerr << "mie_perfbench: FAILED: " << failure << "\n";
    }

    std::ostringstream json;
    json << "{\"correct\": " << (outcome.correct ? "true" : "false")
         << ", \"attempted\": " << std::max<std::uint64_t>(1, outcome.attempted)
         << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
        const auto& metric = outcome.metrics[i];
        json << (i == 0 ? "" : ", ") << json_string(metric.name)
             << ": {\"value\": " << json_number(metric.value)
             << ", \"unit\": " << json_string(metric.unit) << "}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return outcome.correct ? 0 : 1;
}
