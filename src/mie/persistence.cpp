#include "mie/persistence.hpp"

#include <stdexcept>

#include "index/snapshot.hpp"
#include "store/file.hpp"

namespace mie {

void save_server_snapshot(const MieServer& server,
                          const std::filesystem::path& path) {
    const Bytes snapshot = server.export_mapped_snapshot();
    try {
        // temp write + fdatasync + rename + directory fsync: without the
        // syncs, "temp+rename" is only atomic against process crash — a
        // power failure can surface a zero-length or partial file.
        store::atomic_write_file(store::PosixVfs::instance(), path,
                                 snapshot);
    } catch (const store::IoError& error) {
        throw std::runtime_error(std::string("save_server_snapshot: ") +
                                 error.what());
    }
}

void load_server_snapshot(MieServer& server,
                          const std::filesystem::path& path) {
    auto snapshot = index::MappedSnapshot::open(path);
    snapshot->verify_all_sections();
    server.attach_mapped_snapshot(std::move(snapshot));
}

}  // namespace mie
