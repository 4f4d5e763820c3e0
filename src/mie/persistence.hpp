// Cloud-side repository persistence: one-shot snapshots.
//
// A snapshot file is the server's MIESNAP image (index/snapshot.hpp):
// ciphertext blobs, DPE encodings, token lists, training parameters AND
// the trained vocabulary trees and inverted indexes. It is the same
// format DurableServer checkpoints and replication bootstrap use, so
// loading retrains nothing and the loaded server answers byte for byte
// as the saved one did.
//
// Snapshots are written crash-atomically (temp file + fdatasync + rename
// + directory fsync via store::atomic_write_file), so a crash or power
// failure mid-save leaves the previous snapshot intact.
//
// A snapshot alone loses everything since the last save. For continuous
// durability — every acknowledged mutation survives a crash — use
// mie::DurableServer (src/mie/durable_server.hpp), which write-ahead
// logs mutations and checkpoints this same image (see DESIGN.md
// §Durability).
#pragma once

#include <filesystem>

#include "mie/server.hpp"

namespace mie {

/// Writes every repository of `server` to `path` (atomic via temp+rename).
/// Throws std::runtime_error on I/O failure.
void save_server_snapshot(const MieServer& server,
                          const std::filesystem::path& path);

/// Replaces `server`'s state with a snapshot written by
/// save_server_snapshot. Every section is CRC-checked before the state
/// changes. Throws std::runtime_error (index::SnapshotError) on a
/// missing or corrupt file, leaving `server` untouched.
void load_server_snapshot(MieServer& server,
                          const std::filesystem::path& path);

}  // namespace mie
