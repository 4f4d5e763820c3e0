// MIE cloud server component (paper §V, Algorithms 5-9, cloud side).
//
// The untrusted server stores encrypted data-objects alongside their
// DPE-encoded feature vectors, and — this is the paper's key move — runs
// the heavy training (hierarchical k-means over Dense-DPE encodings, using
// normalized Hamming distances) and indexing itself, so the mobile client
// never does. Searching is ranked TF-IDF per modality plus logISR fusion.
//
// The server handles any number of modalities per repository: each dense
// modality (images, audio, ...) gets its own vocabulary tree + inverted
// index; each sparse modality (text, ...) gets an inverted index over PRF
// tokens. Queries may carry any subset of modalities.
//
// The server sees only: deterministic ids, DPE encodings (which reveal
// pairwise distances up to the threshold t), token frequencies, and
// ciphertext blobs — exactly the leakage profile of F_MIE (Algorithm 4).
//
// Thread-safe with per-repository reader/writer locking: SEARCH, STATS
// and LIST_OBJECTS take a repository's lock shared, so any number of
// searchers proceed in parallel; UPDATE/REMOVE/TRAIN take it exclusive
// (Fig. 4's concurrent-writers experiment relies on this). A repository
// map lock (shared for lookup, exclusive for CREATE/restore) keeps
// repository lifetime safe without serializing traffic across
// repositories.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dpe/bitcode.hpp"
#include "index/inverted_index.hpp"
#include "index/ivf.hpp"
#include "index/scoring.hpp"
#include "index/snapshot.hpp"
#include "index/space.hpp"
#include "index/vocab_tree.hpp"
#include "mie/modality.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"

namespace mie {

/// Server-side training parameters ({ID_mi, ip_mi} of TRAIN).
struct TrainParams {
    std::size_t tree_branch = 10;  ///< vocabulary-tree width (paper: 10)
    std::size_t tree_depth = 3;    ///< vocabulary-tree height (paper: 3)
    int kmeans_iterations = 8;
    std::size_t max_training_samples = 20000;  ///< descriptor subsample cap
    std::uint64_t seed = 2017;
    /// Ranking function used at search time.
    enum class Ranking : std::uint8_t { kTfIdf = 0, kBm25 = 1 };
    Ranking ranking = Ranking::kTfIdf;
};

class MieServer final : public net::RequestHandler {
public:
    /// Serialized RPC entry point (see wire.hpp for opcodes).
    Bytes handle(BytesView request) override;

    /// Introspection used by tests/benches (bypasses the wire).
    struct RepoStats {
        std::size_t num_objects = 0;
        bool trained = false;
        std::size_t visual_words = 0;        ///< total leaves, all dense
        std::size_t image_index_terms = 0;   ///< total dense index terms
        std::size_t text_index_terms = 0;    ///< total sparse index terms
        std::size_t dense_modalities = 0;
        std::size_t sparse_modalities = 0;
    };
    RepoStats stats(const std::string& repo_id) const;

    /// Serializes the complete server state — objects AND trained
    /// structures (vocabulary trees, inverted indexes) — into the
    /// mmap-able snapshot v1 file format (index/snapshot.hpp), one
    /// section per repository. This is the only serialization of server
    /// state: files, checkpoints and replication all ship these bytes,
    /// and restoring them needs no retraining. The bytes are a pure
    /// function of logical state, so tests compare states by them.
    Bytes export_mapped_snapshot() const;

    /// O(1)-restart path: replaces server state with unmaterialized
    /// repositories backed by `snapshot`'s sections. Each repository
    /// parses its section (and pays its CRC check, unless the caller
    /// verified eagerly) on first touch; until then only the section
    /// name is read. The mapping stays alive until the last lazy
    /// repository has materialized.
    void attach_mapped_snapshot(
        std::shared_ptr<index::MappedSnapshot> snapshot);

    /// Per-search work accounting appended to the search response tail
    /// (bench/fig5_search --probes reads it to prove the ≥3× candidate-
    /// scoring reduction).
    struct SearchWork {
        std::uint64_t postings_scored = 0;
        std::uint64_t query_descriptors = 0;
        std::uint64_t descriptors_kept = 0;
    };

private:
    struct StoredObject {
        Bytes blob;  ///< AES-CTR ciphertext of the data-object
        std::map<ModalityId, std::vector<dpe::BitCode>> dense_codes;
        std::map<ModalityId,
                 std::vector<std::pair<index::Term, std::uint32_t>>>
            sparse_terms;
    };

    struct DenseModalityState {
        index::VocabTree<index::HammingSpace> tree;
        index::InvertedIndex index;
        /// Coarse cells over `tree`, rebuilt with it (train or snapshot
        /// materialization); derived data, never serialized.
        index::IvfQuantizer<index::HammingSpace> ivf;
    };

    struct Repository {
        std::unordered_map<std::uint64_t, StoredObject> objects;
        bool trained = false;
        TrainParams train_params;
        std::map<ModalityId, DenseModalityState> dense;
        std::map<ModalityId, index::InvertedIndex> sparse;
        /// Shared by readers (search/stats/list), exclusive for mutations.
        mutable std::shared_mutex mutex;
        /// Lazy mmap materialization: while false, this repository's
        /// contents still live in `source`'s section `source_section`;
        /// ensure_materialized() parses them on first touch under the
        /// repository mutex (double-checked through the atomic flag).
        std::atomic<bool> materialized{true};
        std::shared_ptr<index::MappedSnapshot> source;
        std::uint32_t source_section = 0;
    };

    Bytes handle_create(net::MessageReader& reader);
    Bytes handle_train(Repository& repo, net::MessageReader& reader);
    Bytes handle_update(Repository& repo, net::MessageReader& reader);
    Bytes handle_remove(Repository& repo, net::MessageReader& reader);
    Bytes handle_search(const Repository& repo, net::MessageReader& reader);
    Bytes handle_stats(const Repository& repo, net::MessageReader& reader);
    Bytes handle_list_objects(const Repository& repo,
                              net::MessageReader& reader);

    /// Looks a repository up; caller must hold map_mutex_ (any mode).
    Repository& require_repo(const std::string& repo_id) const;

    /// Core of TRAIN: builds per-modality vocabulary trees and re-indexes
    /// every stored object.
    void train_repository(Repository& repo, const TrainParams& params);

    void index_object(Repository& repo, std::uint64_t id,
                      const StoredObject& object);
    void deindex_object(Repository& repo, std::uint64_t id);

    /// Ranks with the repository's configured ranking function.
    std::vector<index::ScoredDoc> rank(
        const Repository& repo, const index::InvertedIndex& index,
        const index::QueryHistogram& query, std::size_t top_k,
        index::RankCounters* counters = nullptr) const;

    /// Per-modality ranked lists for a trained repository. `probes` > 0
    /// routes dense modalities through the IVF coarse quantizer (probe
    /// the P most-voted sibling subtrees only); 0 is the exact path.
    /// `work`, when non-null, receives the scoring-work tally.
    std::vector<std::vector<index::ScoredDoc>> ranked_search(
        const Repository& repo,
        const std::map<ModalityId, std::vector<dpe::BitCode>>& query_codes,
        const std::map<ModalityId, index::QueryHistogram>& query_terms,
        std::size_t top_k, std::size_t probes = 0,
        SearchWork* work = nullptr) const;

    /// Linear-scan fallback for untrained repositories. There is no
    /// coarse structure before training, so `probes` is accepted for
    /// signature symmetry but ignored; `work` counts scanned candidates.
    std::vector<std::vector<index::ScoredDoc>> linear_search(
        const Repository& repo,
        const std::map<ModalityId, std::vector<dpe::BitCode>>& query_codes,
        const std::map<ModalityId, index::QueryHistogram>& query_terms,
        std::size_t top_k, std::size_t probes = 0,
        SearchWork* work = nullptr) const;

    /// Parses `repo`'s snapshot section if it is still lazily backed by
    /// a mapped file (no-op otherwise). Must be called before touching
    /// repository contents; callers must NOT hold the repository mutex.
    void ensure_materialized(Repository& repo) const;
    void materialize_locked(Repository& repo) const;

    /// Section-body (de)serialization for the mapped snapshot format.
    /// Caller holds the repository lock.
    static void serialize_repository(index::SnapshotWriter& writer,
                                     const Repository& repo);
    static void parse_repository(index::SnapshotCursor& cursor,
                                 Repository& repo);

    /// Guards the repository map itself; per-repository state is guarded
    /// by Repository::mutex. Lock order: map_mutex_ before any
    /// Repository::mutex.
    mutable std::shared_mutex map_mutex_;
    // mielint: guarded_by(map_mutex_)
    std::unordered_map<std::string, std::unique_ptr<Repository>>
        repositories_;
};

}  // namespace mie
