// Checkpoint files for the durable storage engine.
//
// A checkpoint is an opaque snapshot payload from the engine's owner
// (for mie::DurableServer: a stub naming a MIESNAP file) stamped with
// the WAL position it covers:
//
//   magic "MIECKPT\n" (8) | u64 lsn | u32 crc32(snapshot) | u32 len | snapshot
//
// Checkpoints are written crash-atomically (temp + fsync + rename +
// directory fsync), named `checkpoint-<lsn>.ckpt`. Older checkpoints are
// only deleted after the new one is durable, so there is always at least
// one loadable checkpoint once the first write completes; load_latest
// skips unreadable/corrupt candidates and falls back to older ones.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>

#include "store/file.hpp"
#include "store/wal.hpp"

namespace mie::store {

class CheckpointStore {
public:
    /// `vfs` must outlive the store; `dir` is created if missing.
    CheckpointStore(Vfs& vfs, std::filesystem::path dir);

    /// Durably writes a checkpoint covering all records <= `lsn`, then
    /// removes older checkpoint files. Throws IoError on failure (the
    /// previous checkpoint, if any, remains intact).
    void write(Lsn lsn, BytesView snapshot);

    struct Loaded {
        Lsn lsn = 0;
        Bytes snapshot;
    };

    /// Loads the newest checkpoint that validates; nullopt if none does.
    std::optional<Loaded> load_latest() const;

    static constexpr char kMagic[8] = {'M', 'I', 'E', 'C', 'K', 'P',
                                       'T', '\n'};

private:
    std::filesystem::path checkpoint_path(Lsn lsn) const;

    Vfs& vfs_;
    std::filesystem::path dir_;
};

}  // namespace mie::store
