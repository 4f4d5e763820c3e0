// MIE console: the "simple desktop application which exercises all
// operations provided by MIE" (§VI), as a scriptable REPL.
//
// Commands (one per line on stdin):
//   create                      create/reset the repository
//   add <id>                    add synthetic object <id>
//   addbatch <first> <count>    add a range of objects
//   train                       trigger cloud-side training
//   search <id> [k]             query-by-example with object <id>
//   probes <P>                  IVF probe count for search (0 = exact)
//   remove <id>                 remove object <id>
//   stats                       server-side repository statistics
//   costs                       client sub-operation cost summary
//   save <path> / load <path>   snapshot / restore the cloud state
//   help, quit
//
// Usage: mie_console [--durable <dir>] [--threads <n>]
//
// With --durable the cloud side runs behind the write-ahead-logged
// DurableServer: every acknowledged mutation survives `kill -9`, and
// relaunching with the same directory recovers the repository before
// the first prompt.
//
// --threads caps the exec runtime's width for client extraction/encoding
// and cloud training/search (default: all hardware threads).
//
// Try:  printf 'create\naddbatch 0 10\ntrain\nsearch 3\nquit\n' | ./mie_console
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "crypto/drbg.hpp"
#include "exec/exec.hpp"
#include "mie/client.hpp"
#include "mie/durable_server.hpp"
#include "mie/persistence.hpp"
#include "mie/server.hpp"
#include "sim/dataset.hpp"
#include "store/file.hpp"

namespace {

void print_help() {
    std::cout <<
        "commands: create | add <id> | addbatch <first> <count> | train\n"
        "          search <id> [k] | probes <P> | remove <id> | stats\n"
        "          costs | save <path> | load <path> | help | quit\n";
}

}  // namespace

int main(int argc, char** argv) {
    using namespace mie;

    std::optional<DurableServer> durable;
    MieServer in_memory;
    std::string durable_dir;
    std::size_t threads = exec::hardware_threads();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--durable" && i + 1 < argc) {
            durable_dir = argv[++i];
        } else if (arg == "--threads" && i + 1 < argc) {
            threads = std::max<std::size_t>(
                1, static_cast<std::size_t>(std::atoll(argv[++i])));
        } else {
            std::cerr << "usage: mie_console [--durable <dir>]"
                         " [--threads <n>]\n";
            return 2;
        }
    }
    exec::set_max_threads(threads);
    if (!durable_dir.empty()) {
        try {
            durable.emplace(store::PosixVfs::instance(), durable_dir);
        } catch (const std::exception& error) {
            std::cerr << "cannot open durable state in '" << durable_dir
                      << "': " << error.what() << "\n";
            return 1;
        }
        const auto stats = durable->durability();
        std::cout << "durable mode: " << durable_dir << " (recovered "
                  << stats.recovered_records << " log records"
                  << (stats.recovered_from_checkpoint ? " + checkpoint"
                                                      : "")
                  << ")\n";
        if (stats.tail_truncated) {
            std::cout << "warning: discarded a torn or corrupt log tail; "
                         "state reflects the last intact record\n";
        }
    }
    MieServer& cloud = durable ? durable->server() : in_memory;
    net::RequestHandler& handler =
        durable ? static_cast<net::RequestHandler&>(*durable) : in_memory;
    net::MeteredTransport transport(handler, net::LinkProfile::mobile());
    MieClient client(transport, "console-repo",
                     RepositoryKey::generate(to_bytes("console-demo-key"),
                                             64, 128, 0.7978845608),
                     to_bytes("console-user"));
    client.train_params.tree_branch = 8;
    client.train_params.tree_depth = 2;

    const sim::FlickrLikeGenerator camera(sim::FlickrLikeParams{
        .num_classes = 6, .image_size = 64, .seed = 2017});

    std::cout << "MIE console — type 'help' for commands.\n";
    std::string line;
    while (std::cout << "mie> " << std::flush, std::getline(std::cin, line)) {
        std::istringstream args(line);
        std::string command;
        if (!(args >> command)) continue;
        try {
            if (command == "quit" || command == "exit") {
                break;
            } else if (command == "help") {
                print_help();
            } else if (command == "create") {
                client.create_repository();
                std::cout << "repository created\n";
            } else if (command == "add") {
                std::uint64_t id;
                if (!(args >> id)) throw std::invalid_argument("add <id>");
                client.update(camera.make(id));
                std::cout << "added object " << id << "\n";
            } else if (command == "addbatch") {
                std::uint64_t first, count;
                if (!(args >> first >> count)) {
                    throw std::invalid_argument("addbatch <first> <count>");
                }
                for (const auto& object : camera.make_batch(first, count)) {
                    client.update(object);
                }
                std::cout << "added " << count << " objects\n";
            } else if (command == "train") {
                client.train();
                std::cout << "training outsourced to the cloud; "
                          << cloud.stats("console-repo").visual_words
                          << " visual words built\n";
            } else if (command == "search") {
                std::uint64_t id;
                std::size_t top_k = 5;
                if (!(args >> id)) throw std::invalid_argument("search <id>");
                args >> top_k;
                const auto results = client.search(camera.make(id), top_k);
                for (const auto& result : results) {
                    const auto object = client.decrypt_result(result);
                    std::printf("  object %-6llu score %-8.3f tags: %s\n",
                                static_cast<unsigned long long>(
                                    result.object_id),
                                result.score, object.text.c_str());
                }
                if (results.empty()) std::cout << "  (no results)\n";
                const auto work = client.last_search_work();
                if (work.query_descriptors > 0) {
                    std::printf(
                        "  (scored %llu postings; kept %llu/%llu query "
                        "descriptors)\n",
                        static_cast<unsigned long long>(
                            work.postings_scored),
                        static_cast<unsigned long long>(
                            work.descriptors_kept),
                        static_cast<unsigned long long>(
                            work.query_descriptors));
                }
            } else if (command == "probes") {
                std::size_t probes;
                if (!(args >> probes)) {
                    throw std::invalid_argument("probes <P>");
                }
                client.search_probes = probes;
                std::cout << "search probes set to " << probes
                          << (probes == 0 ? " (exact)" : "") << "\n";
            } else if (command == "remove") {
                std::uint64_t id;
                if (!(args >> id)) throw std::invalid_argument("remove <id>");
                client.remove(id);
                std::cout << "removed object " << id << "\n";
            } else if (command == "stats") {
                const auto stats = cloud.stats("console-repo");
                std::printf(
                    "  objects=%zu trained=%s visual_words=%zu "
                    "dense_terms=%zu sparse_terms=%zu\n",
                    stats.num_objects, stats.trained ? "yes" : "no",
                    stats.visual_words, stats.image_index_terms,
                    stats.text_index_terms);
            } else if (command == "costs") {
                const auto& meter = client.meter();
                std::printf(
                    "  encrypt=%.3fs network=%.3fs index=%.3fs train=%.3fs "
                    "(bytes up=%llu down=%llu)\n",
                    meter.seconds(sim::SubOp::kEncrypt),
                    meter.seconds(sim::SubOp::kNetwork),
                    meter.seconds(sim::SubOp::kIndex),
                    meter.seconds(sim::SubOp::kTrain),
                    static_cast<unsigned long long>(transport.bytes_up()),
                    static_cast<unsigned long long>(
                        transport.bytes_down()));
            } else if (command == "save") {
                std::string path;
                if (!(args >> path)) throw std::invalid_argument("save <path>");
                save_server_snapshot(cloud, path);
                std::cout << "cloud state saved to " << path << "\n";
            } else if (command == "load") {
                std::string path;
                if (!(args >> path)) throw std::invalid_argument("load <path>");
                if (durable) {
                    // Installed as the durable checkpoint, so the loaded
                    // state and every later mutation survive a relaunch.
                    durable->install_replication_snapshot(
                        store::PosixVfs::instance().read_file(path));
                } else {
                    load_server_snapshot(cloud, path);
                }
                std::cout << "cloud state restored from " << path << "\n";
            } else {
                std::cout << "unknown command '" << command
                          << "' — type 'help'\n";
            }
        } catch (const std::exception& error) {
            std::cout << "error: " << error.what() << "\n";
        }
    }
    if (durable) durable->sync();  // clean shutdown: no replay next open
    return 0;
}
