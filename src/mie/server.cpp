#include "mie/server.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "exec/exec.hpp"
#include "fusion/rank_fusion.hpp"
#include "index/bovw.hpp"
#include "mie/wire.hpp"
#include "net/envelope.hpp"

namespace mie {

namespace {

/// Sparse tokens arrive as raw PRF bytes; wrap them as index terms.
index::Term sparse_term(BytesView token) {
    return index::Term(token.begin(), token.end());
}

void write_status(net::MessageWriter& writer, bool ok) {
    writer.write_u8(ok ? 1 : 0);
}

/// Reads the per-modality sections of an update/search body.
struct ModalityPayload {
    std::map<ModalityId, std::vector<dpe::BitCode>> dense;
    std::map<ModalityId,
             std::vector<std::pair<index::Term, std::uint32_t>>>
        sparse;
};

ModalityPayload read_modalities(net::MessageReader& reader) {
    ModalityPayload payload;
    const auto num_dense = reader.read_u8();
    for (std::uint8_t m = 0; m < num_dense; ++m) {
        const ModalityId id = reader.read_u8();
        const auto count = reader.read_u32();
        auto& codes = payload.dense[id];
        codes.reserve(std::min<std::uint32_t>(count, 4096));
        for (std::uint32_t i = 0; i < count; ++i) {
            codes.push_back(dpe::BitCode::deserialize(reader.read_bytes()));
        }
    }
    const auto num_sparse = reader.read_u8();
    for (std::uint8_t m = 0; m < num_sparse; ++m) {
        const ModalityId id = reader.read_u8();
        const auto count = reader.read_u32();
        auto& terms = payload.sparse[id];
        terms.reserve(std::min<std::uint32_t>(count, 4096));
        for (std::uint32_t i = 0; i < count; ++i) {
            const Bytes token = reader.read_bytes();
            const auto freq = reader.read_u32();
            terms.emplace_back(sparse_term(token), freq);
        }
    }
    return payload;
}

}  // namespace

Bytes MieServer::handle(BytesView request) {
    // Retry-capable clients wrap mutating requests in an idempotency
    // envelope; the bare in-memory server dispatches on the inner bytes
    // (DurableServer / DedupHandler add the replay dedup on top).
    request = net::envelope_inner(request);
    net::MessageReader reader(request);
    const auto op = static_cast<MieOp>(reader.read_u8());
    if (op == MieOp::kCreateRepository) return handle_create(reader);

    // Every other request names its repository next. Holding the map lock
    // shared pins the Repository object while its own lock is taken.
    const std::string repo_id = reader.read_string();
    const std::shared_lock map_lock(map_mutex_);
    Repository& repo = require_repo(repo_id);
    // A repository restored from an mmap snapshot parses its section on
    // the first request that touches it (O(1) restart pays here instead).
    ensure_materialized(repo);
    switch (op) {
        case MieOp::kTrain: {
            const std::unique_lock repo_lock(repo.mutex);
            return handle_train(repo, reader);
        }
        case MieOp::kUpdate: {
            const std::unique_lock repo_lock(repo.mutex);
            return handle_update(repo, reader);
        }
        case MieOp::kRemove: {
            const std::unique_lock repo_lock(repo.mutex);
            return handle_remove(repo, reader);
        }
        case MieOp::kSearch: {
            const std::shared_lock repo_lock(repo.mutex);
            return handle_search(repo, reader);
        }
        case MieOp::kStats: {
            const std::shared_lock repo_lock(repo.mutex);
            return handle_stats(repo, reader);
        }
        case MieOp::kListObjects: {
            const std::shared_lock repo_lock(repo.mutex);
            return handle_list_objects(repo, reader);
        }
        case MieOp::kCreateRepository: break;  // handled above
    }
    throw std::invalid_argument("MieServer: unknown opcode");
}

// mielint: acquires(map_mutex_)
MieServer::Repository& MieServer::require_repo(
    const std::string& repo_id) const {
    const auto it = repositories_.find(repo_id);
    if (it == repositories_.end()) {
        throw std::invalid_argument("MieServer: unknown repository " +
                                    repo_id);
    }
    return *it->second;
}

Bytes MieServer::handle_create(net::MessageReader& reader) {
    const std::string repo_id = reader.read_string();
    const std::unique_lock map_lock(map_mutex_);
    repositories_[repo_id] =
        std::make_unique<Repository>();  // fresh (re)initialization
    net::MessageWriter writer;
    write_status(writer, true);
    return writer.take();
}

Bytes MieServer::handle_train(Repository& repo, net::MessageReader& reader) {
    TrainParams params;
    params.tree_branch = reader.read_u32();
    params.tree_depth = reader.read_u32();
    params.kmeans_iterations = static_cast<int>(reader.read_u32());
    params.max_training_samples = reader.read_u32();
    params.seed = reader.read_u64();
    params.ranking = static_cast<TrainParams::Ranking>(reader.read_u8());
    train_repository(repo, params);

    net::MessageWriter writer;
    write_status(writer, true);
    std::uint64_t total_leaves = 0;
    for (const auto& [modality, state] : repo.dense) {
        if (!state.tree.empty()) total_leaves += state.tree.num_leaves();
    }
    writer.write_u64(total_leaves);
    return writer.take();
}

void MieServer::train_repository(Repository& repo,
                                 const TrainParams& params) {
    repo.train_params = params;

    // Deterministic object order: training (and thus the resulting trees)
    // must be identical across runs and across snapshot restores, so the
    // unordered storage map is walked in sorted-id order.
    std::vector<std::uint64_t> object_ids;
    object_ids.reserve(repo.objects.size());
    // mielint: allow(R3): ids are sorted on the next line
    for (const auto& [id, object] : repo.objects) object_ids.push_back(id);
    std::sort(object_ids.begin(), object_ids.end());

    // Which dense modalities exist in the repository right now?
    repo.dense.clear();
    repo.sparse.clear();
    // mielint: allow(R3): populates ordered maps; visit order irrelevant
    for (const auto& [id, object] : repo.objects) {
        for (const auto& [modality, codes] : object.dense_codes) {
            if (!codes.empty()) repo.dense[modality];  // default-construct
        }
        for (const auto& [modality, terms] : object.sparse_terms) {
            if (!terms.empty()) repo.sparse[modality];
        }
    }

    // Per dense modality: gather encodings (stride subsampling) and build
    // the vocabulary tree — the machine-learning step the clients avoid.
    // Modalities train as concurrent tasks (each task also fans out
    // internally through the parallel k-means); every modality's tree is
    // a pure function of (its codes in sorted-id order, its seed), so the
    // fan-out cannot change results.
    {
        exec::TaskGroup training_tasks;
        for (auto& [modality_key, modality_state] : repo.dense) {
            const ModalityId modality = modality_key;
            MieServer::DenseModalityState* state = &modality_state;
            training_tasks.run([&repo, &object_ids, &params, modality,
                                state] {
                std::size_t total = 0;
                // mielint: allow(R3): commutative count
                for (const auto& [id, object] : repo.objects) {
                    const auto it = object.dense_codes.find(modality);
                    if (it != object.dense_codes.end()) {
                        total += it->second.size();
                    }
                }
                const std::size_t stride = std::max<std::size_t>(
                    1, total / std::max<std::size_t>(
                                   1, params.max_training_samples));
                std::vector<dpe::BitCode> training;
                std::size_t cursor = 0;
                for (const std::uint64_t id : object_ids) {
                    const auto& object = repo.objects.at(id);
                    const auto it = object.dense_codes.find(modality);
                    if (it == object.dense_codes.end()) continue;
                    for (const auto& code : it->second) {
                        if (cursor++ % stride == 0) {
                            training.push_back(code);
                        }
                    }
                }
                if (training.empty()) return;
                index::VocabTree<index::HammingSpace>::Params tree_params;
                tree_params.branch = params.tree_branch;
                tree_params.depth = params.tree_depth;
                tree_params.kmeans_iterations = params.kmeans_iterations;
                state->tree = index::VocabTree<index::HammingSpace>::build(
                    training, tree_params, params.seed + modality);
                // Coarse cells are derived data; rebuild alongside the tree.
                state->ivf =
                    index::IvfQuantizer<index::HammingSpace>::build(
                        state->tree);
            });
        }
        training_tasks.wait();
    }

    // (Re)index everything already stored. Quantization (vocabulary-tree
    // walks per stored code) dominates and is embarrassingly parallel, so
    // word lists are computed into per-object slots first; the postings
    // are then inserted serially in sorted-id order, which keeps the
    // index byte-identical to a single-threaded rebuild.
    repo.trained = true;
    std::vector<std::map<ModalityId, std::vector<std::uint32_t>>> words(
        object_ids.size());
    exec::parallel_for(0, object_ids.size(), 1, [&](std::size_t i) {
        const StoredObject& object = repo.objects.at(object_ids[i]);
        for (const auto& [modality, state] : repo.dense) {
            if (state.tree.empty()) continue;
            const auto it = object.dense_codes.find(modality);
            if (it == object.dense_codes.end() || it->second.empty()) {
                continue;
            }
            auto& list = words[i][modality];
            list.reserve(it->second.size());
            for (const auto& code : it->second) {
                list.push_back(state.tree.quantize(code));
            }
        }
    });
    for (std::size_t i = 0; i < object_ids.size(); ++i) {
        const std::uint64_t id = object_ids[i];
        for (const auto& [modality, list] : words[i]) {
            auto& index = repo.dense.at(modality).index;
            for (const std::uint32_t word : list) {
                index.add(index::visual_word_term(word), id, 1);
            }
        }
        for (const auto& [modality, terms] :
             repo.objects.at(id).sparse_terms) {
            auto& idx = repo.sparse[modality];
            for (const auto& [term, freq] : terms) {
                idx.add(term, id, freq);
            }
        }
    }
}

void MieServer::index_object(Repository& repo, std::uint64_t id,
                             const StoredObject& object) {
    for (const auto& [modality, codes] : object.dense_codes) {
        const auto state = repo.dense.find(modality);
        if (state == repo.dense.end() || state->second.tree.empty()) {
            continue;  // modality appeared after training; indexed next train
        }
        for (const auto& code : codes) {
            state->second.index.add(
                index::visual_word_term(state->second.tree.quantize(code)),
                id, 1);
        }
    }
    for (const auto& [modality, terms] : object.sparse_terms) {
        auto& idx = repo.sparse[modality];
        for (const auto& [term, freq] : terms) {
            idx.add(term, id, freq);
        }
    }
}

void MieServer::deindex_object(Repository& repo, std::uint64_t id) {
    for (auto& [modality, state] : repo.dense) {
        state.index.remove_document(id);
    }
    for (auto& [modality, idx] : repo.sparse) {
        idx.remove_document(id);
    }
}

Bytes MieServer::handle_update(Repository& repo, net::MessageReader& reader) {
    const std::uint64_t id = reader.read_u64();

    StoredObject object;
    object.blob = reader.read_bytes();
    ModalityPayload payload = read_modalities(reader);
    object.dense_codes = std::move(payload.dense);
    object.sparse_terms = std::move(payload.sparse);

    // Updates are remove-then-add (Algorithm 7 line 11).
    if (repo.objects.contains(id)) deindex_object(repo, id);
    auto [slot, inserted] =
        repo.objects.insert_or_assign(id, std::move(object));
    if (repo.trained) index_object(repo, id, slot->second);

    net::MessageWriter writer;
    write_status(writer, true);
    return writer.take();
}

Bytes MieServer::handle_remove(Repository& repo, net::MessageReader& reader) {
    const std::uint64_t id = reader.read_u64();
    const bool existed = repo.objects.contains(id);
    if (existed) {
        deindex_object(repo, id);
        repo.objects.erase(id);
    }
    net::MessageWriter writer;
    write_status(writer, existed);
    return writer.take();
}

std::vector<index::ScoredDoc> MieServer::rank(
    const Repository& repo, const index::InvertedIndex& index,
    const index::QueryHistogram& query, std::size_t top_k,
    index::RankCounters* counters) const {
    if (repo.train_params.ranking == TrainParams::Ranking::kBm25) {
        return index::rank_bm25(index, query, repo.objects.size(), top_k,
                                index::Bm25Params{}, counters);
    }
    return index::rank_tfidf(index, query, repo.objects.size(), top_k,
                             counters);
}

std::vector<std::vector<index::ScoredDoc>> MieServer::ranked_search(
    const Repository& repo,
    const std::map<ModalityId, std::vector<dpe::BitCode>>& query_codes,
    const std::map<ModalityId, index::QueryHistogram>& query_terms,
    std::size_t top_k, std::size_t probes, SearchWork* work) const {
    // Per-modality fan-out: each modality's quantize + TF-IDF pass runs as
    // a task, writing its ranked list into a fixed slot; the logISR fusion
    // downstream then joins lists in the same (dense, sparse) modality
    // order a serial pass produces. Work tallies land in per-slot counters
    // and are summed after the join, so the totals are deterministic at
    // any thread count.
    std::vector<std::vector<index::ScoredDoc>> lists;
    // Tasks may run while later slots are still being appended: reserving
    // the maximum keeps element addresses stable for in-flight writers.
    const std::size_t max_slots = query_codes.size() + query_terms.size();
    lists.reserve(max_slots);
    std::vector<index::RankCounters> counters(max_slots);
    std::vector<index::IvfStats> ivf_stats(max_slots);
    exec::TaskGroup scoring;
    for (const auto& [modality, query] : query_codes) {
        const auto state = repo.dense.find(modality);
        if (state == repo.dense.end() || state->second.tree.empty() ||
            query.empty()) {
            continue;
        }
        const std::size_t slot = lists.size();
        lists.emplace_back();
        const DenseModalityState* dense = &state->second;
        const std::vector<dpe::BitCode>* codes = &query;
        scoring.run([this, &repo, &lists, &counters, &ivf_stats, slot, dense,
                     codes, top_k, probes] {
            const index::QueryHistogram histogram = index::ivf_histogram(
                dense->tree, dense->ivf, *codes, probes, &ivf_stats[slot],
                &dense->index);
            lists[slot] =
                rank(repo, dense->index, histogram, top_k, &counters[slot]);
        });
    }
    for (const auto& [modality, query] : query_terms) {
        const auto idx = repo.sparse.find(modality);
        if (idx == repo.sparse.end() || query.empty()) continue;
        const std::size_t slot = lists.size();
        lists.emplace_back();
        const index::InvertedIndex* index = &idx->second;
        const index::QueryHistogram* terms = &query;
        scoring.run([this, &repo, &lists, &counters, slot, index, terms,
                     top_k] {
            lists[slot] = rank(repo, *index, *terms, top_k, &counters[slot]);
        });
    }
    scoring.wait();
    if (work != nullptr) {
        for (std::size_t slot = 0; slot < lists.size(); ++slot) {
            work->postings_scored += counters[slot].postings_scored;
            work->query_descriptors += ivf_stats[slot].query_descriptors;
            work->descriptors_kept += ivf_stats[slot].descriptors_kept;
        }
    }
    return lists;
}

std::vector<std::vector<index::ScoredDoc>> MieServer::linear_search(
    const Repository& repo,
    const std::map<ModalityId, std::vector<dpe::BitCode>>& query_codes,
    const std::map<ModalityId, index::QueryHistogram>& query_terms,
    std::size_t top_k, std::size_t probes, SearchWork* work) const {
    (void)probes;  // no coarse structure exists before training
    // Same per-modality fan-out as ranked_search; the linear scans over
    // stored objects are independent per modality. Scores land in an
    // id-keyed map, so the result is iteration-order-free.
    std::vector<std::vector<index::ScoredDoc>> lists;
    // Reserve before submitting: element addresses must survive appends.
    const std::size_t max_slots = query_codes.size() + query_terms.size();
    lists.reserve(max_slots);
    std::vector<index::RankCounters> counters(max_slots);
    exec::TaskGroup scoring;
    for (const auto& [modality_key, query] : query_codes) {
        if (query.empty()) continue;
        const std::size_t slot = lists.size();
        lists.emplace_back();
        const ModalityId modality = modality_key;
        const std::vector<dpe::BitCode>* codes = &query;
        scoring.run([&repo, &lists, &counters, slot, modality, codes,
                     top_k] {
            std::map<index::DocId, double> scores;
            // mielint: allow(R3): scores land in an ordered map
            for (const auto& [id, object] : repo.objects) {
                const auto it = object.dense_codes.find(modality);
                if (it == object.dense_codes.end() || it->second.empty()) {
                    continue;
                }
                // Average similarity of each query descriptor to its
                // nearest stored descriptor; distances beyond the DPE
                // threshold carry no information, so similarity floors
                // near 0.5.
                double total = 0.0;
                for (const auto& q : *codes) {
                    double best = 1.0;
                    for (const auto& d : it->second) {
                        best = std::min(best, q.normalized_hamming(d));
                    }
                    total += 1.0 - best;
                }
                scores[id] = total / static_cast<double>(codes->size());
                ++counters[slot].postings_scored;  // one candidate scanned
            }
            lists[slot] = index::top_k_of(std::move(scores), top_k);
        });
    }
    for (const auto& [modality_key, query] : query_terms) {
        if (query.empty()) continue;
        const std::size_t slot = lists.size();
        lists.emplace_back();
        const ModalityId modality = modality_key;
        const index::QueryHistogram* terms = &query;
        scoring.run([&repo, &lists, &counters, slot, modality, terms,
                     top_k] {
            std::map<index::DocId, double> scores;
            // mielint: allow(R3): scores land in an ordered map
            for (const auto& [id, object] : repo.objects) {
                const auto it = object.sparse_terms.find(modality);
                if (it == object.sparse_terms.end()) continue;
                double overlap = 0.0;
                for (const auto& [term, freq] : it->second) {
                    const auto match = terms->find(term);
                    if (match != terms->end()) {
                        overlap += std::min<double>(freq, match->second);
                    }
                }
                if (overlap > 0.0) {
                    scores[id] = overlap;
                    ++counters[slot].postings_scored;
                }
            }
            lists[slot] = index::top_k_of(std::move(scores), top_k);
        });
    }
    scoring.wait();
    if (work != nullptr) {
        for (std::size_t slot = 0; slot < lists.size(); ++slot) {
            work->postings_scored += counters[slot].postings_scored;
        }
        for (const auto& [modality, query] : query_codes) {
            work->query_descriptors += query.size();
            work->descriptors_kept += query.size();  // nothing is pruned
        }
    }
    return lists;
}

Bytes MieServer::handle_search(const Repository& repo,
                               net::MessageReader& reader) {
    const auto top_k = static_cast<std::size_t>(reader.read_u32());

    ModalityPayload payload = read_modalities(reader);
    std::map<ModalityId, index::QueryHistogram> query_terms;
    for (const auto& [modality, terms] : payload.sparse) {
        auto& histogram = query_terms[modality];
        for (const auto& [term, freq] : terms) histogram[term] = freq;
    }
    // Optional trailing field (wire.hpp): IVF probe count. Absent (older
    // clients) or 0 means the exact path; read leniently so a short tail
    // keeps the pre-probes behavior instead of failing the request.
    std::size_t probes = 0;
    if (reader.remaining() >= 4) probes = reader.read_u32();

    // Fetch a deeper pool per modality so fusion has material to merge.
    const std::size_t pool = std::max<std::size_t>(top_k * 4, 32);
    SearchWork work;
    const auto lists =
        repo.trained
            ? ranked_search(repo, payload.dense, query_terms, pool, probes,
                            &work)
            : linear_search(repo, payload.dense, query_terms, pool, probes,
                            &work);

    const auto fused = fusion::log_isr_fusion(lists, top_k);

    net::MessageWriter writer;
    writer.write_u32(static_cast<std::uint32_t>(fused.size()));
    for (const auto& item : fused) {
        writer.write_u64(item.doc);
        writer.write_f64(item.score);
        writer.write_bytes(repo.objects.at(item.doc).blob);
    }
    // Work-accounting tail; readers that stop after the results above
    // (all pre-probes parsers do) are unaffected.
    writer.write_u64(work.postings_scored);
    writer.write_u64(work.query_descriptors);
    writer.write_u64(work.descriptors_kept);
    return writer.take();
}

Bytes MieServer::handle_list_objects(const Repository& repo,
                                     net::MessageReader& reader) {
    (void)reader;  // no further request fields
    net::MessageWriter writer;
    writer.write_u32(static_cast<std::uint32_t>(repo.objects.size()));
    // Wire output must not depend on hash-map iteration order (lint rule
    // R3): list in sorted-id order so every run and every standard-library
    // implementation produces identical bytes.
    std::vector<std::uint64_t> ids;
    ids.reserve(repo.objects.size());
    // mielint: allow(R3): ids are sorted on the next line
    for (const auto& [id, object] : repo.objects) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (const std::uint64_t id : ids) {
        writer.write_u64(id);
        writer.write_bytes(repo.objects.at(id).blob);
    }
    return writer.take();
}

Bytes MieServer::handle_stats(const Repository& repo,
                              net::MessageReader& reader) {
    (void)reader;  // no further request fields
    net::MessageWriter writer;
    writer.write_u64(repo.objects.size());
    writer.write_u8(repo.trained ? 1 : 0);
    std::uint64_t leaves = 0, dense_terms = 0, sparse_terms = 0;
    for (const auto& [modality, state] : repo.dense) {
        if (!state.tree.empty()) leaves += state.tree.num_leaves();
        dense_terms += state.index.num_terms();
    }
    for (const auto& [modality, idx] : repo.sparse) {
        sparse_terms += idx.num_terms();
    }
    writer.write_u64(leaves);
    writer.write_u64(dense_terms);
    writer.write_u64(sparse_terms);
    return writer.take();
}

// ---- Mapped (mmap) snapshots ----------------------------------------

void MieServer::ensure_materialized(Repository& repo) const {
    // Double-checked through the atomic flag: the common case (already
    // materialized) is one acquire load, no lock.
    if (repo.materialized.load(std::memory_order_acquire)) return;
    const std::unique_lock repo_lock(repo.mutex);
    if (repo.materialized.load(std::memory_order_relaxed)) return;
    materialize_locked(repo);
}

void MieServer::materialize_locked(Repository& repo) const {
    // section() CRC-checks the body on first access; durable recovery
    // verified eagerly, so this only throws on truly late corruption.
    index::SnapshotCursor cursor(repo.source->section(repo.source_section));
    parse_repository(cursor, repo);
    repo.source.reset();  // last repository standing unmaps the file
    repo.materialized.store(true, std::memory_order_release);
}

// Section body layout (all via SnapshotWriter, see snapshot.hpp):
//   u32 trained | u32 ranking | u64 tree_branch | u64 tree_depth |
//   u32 kmeans_iterations | u64 max_training_samples | u64 seed |
//   u64 num_objects |
//   per object (sorted id):
//     u64 id | bytes blob |
//     u32 #dense { u32 modality | u32 #codes | bytes code... } |
//     u32 #sparse { u32 modality | u32 #terms { str term | u32 freq }... }
//   u32 #dense_states { u32 modality | vocab_tree | inverted_index } |
//   u32 #sparse_indexes { u32 modality | inverted_index }
// The IVF coarse-cell table is derived from the tree and rebuilt on
// parse, never serialized.
void MieServer::serialize_repository(index::SnapshotWriter& writer,
                                     const Repository& repo) {
    writer.write_u32(repo.trained ? 1 : 0);
    writer.write_u32(static_cast<std::uint32_t>(repo.train_params.ranking));
    writer.write_u64(repo.train_params.tree_branch);
    writer.write_u64(repo.train_params.tree_depth);
    writer.write_u32(
        static_cast<std::uint32_t>(repo.train_params.kmeans_iterations));
    writer.write_u64(repo.train_params.max_training_samples);
    writer.write_u64(repo.train_params.seed);

    std::vector<std::uint64_t> object_ids;
    object_ids.reserve(repo.objects.size());
    // mielint: allow(R3): ids are sorted on the next line
    for (const auto& [id, object] : repo.objects) object_ids.push_back(id);
    std::sort(object_ids.begin(), object_ids.end());
    writer.write_u64(object_ids.size());
    for (const std::uint64_t id : object_ids) {
        const StoredObject& object = repo.objects.at(id);
        writer.write_u64(id);
        writer.write_bytes(object.blob);
        writer.write_u32(
            static_cast<std::uint32_t>(object.dense_codes.size()));
        for (const auto& [modality, codes] : object.dense_codes) {
            writer.write_u32(modality);
            writer.write_u32(static_cast<std::uint32_t>(codes.size()));
            for (const auto& code : codes) {
                writer.write_bytes(code.serialize());
            }
        }
        writer.write_u32(
            static_cast<std::uint32_t>(object.sparse_terms.size()));
        for (const auto& [modality, terms] : object.sparse_terms) {
            writer.write_u32(modality);
            writer.write_u32(static_cast<std::uint32_t>(terms.size()));
            for (const auto& [term, freq] : terms) {
                writer.write_string(term);
                writer.write_u32(freq);
            }
        }
    }

    writer.write_u32(static_cast<std::uint32_t>(repo.dense.size()));
    for (const auto& [modality, state] : repo.dense) {
        writer.write_u32(modality);
        index::write_vocab_tree(writer, state.tree);
        index::write_inverted_index(writer, state.index);
    }
    writer.write_u32(static_cast<std::uint32_t>(repo.sparse.size()));
    for (const auto& [modality, idx] : repo.sparse) {
        writer.write_u32(modality);
        index::write_inverted_index(writer, idx);
    }
}

void MieServer::parse_repository(index::SnapshotCursor& cursor,
                                 Repository& repo) {
    repo.trained = cursor.read_u32() != 0;
    repo.train_params.ranking =
        static_cast<TrainParams::Ranking>(cursor.read_u32());
    repo.train_params.tree_branch = cursor.read_u64();
    repo.train_params.tree_depth = cursor.read_u64();
    repo.train_params.kmeans_iterations =
        static_cast<int>(cursor.read_u32());
    repo.train_params.max_training_samples = cursor.read_u64();
    repo.train_params.seed = cursor.read_u64();

    const std::uint64_t num_objects = cursor.read_u64();
    for (std::uint64_t i = 0; i < num_objects; ++i) {
        const std::uint64_t id = cursor.read_u64();
        StoredObject object;
        object.blob = cursor.read_bytes();
        const std::uint32_t num_dense = cursor.read_u32();
        for (std::uint32_t m = 0; m < num_dense; ++m) {
            const auto modality =
                static_cast<ModalityId>(cursor.read_u32());
            const std::uint32_t count = cursor.read_u32();
            auto& codes = object.dense_codes[modality];
            codes.reserve(std::min<std::uint32_t>(count, 4096));
            for (std::uint32_t c = 0; c < count; ++c) {
                codes.push_back(
                    dpe::BitCode::deserialize(cursor.read_bytes_view()));
            }
        }
        const std::uint32_t num_sparse = cursor.read_u32();
        for (std::uint32_t m = 0; m < num_sparse; ++m) {
            const auto modality =
                static_cast<ModalityId>(cursor.read_u32());
            const std::uint32_t count = cursor.read_u32();
            auto& terms = object.sparse_terms[modality];
            terms.reserve(std::min<std::uint32_t>(count, 4096));
            for (std::uint32_t t = 0; t < count; ++t) {
                index::Term term = cursor.read_string();
                const std::uint32_t freq = cursor.read_u32();
                terms.emplace_back(std::move(term), freq);
            }
        }
        repo.objects.emplace(id, std::move(object));
    }

    const std::uint32_t num_dense_states = cursor.read_u32();
    for (std::uint32_t m = 0; m < num_dense_states; ++m) {
        const auto modality = static_cast<ModalityId>(cursor.read_u32());
        DenseModalityState& state = repo.dense[modality];
        state.tree = index::read_vocab_tree<index::HammingSpace>(cursor);
        state.index = index::read_inverted_index(cursor);
        state.ivf =
            index::IvfQuantizer<index::HammingSpace>::build(state.tree);
    }
    const std::uint32_t num_sparse_states = cursor.read_u32();
    for (std::uint32_t m = 0; m < num_sparse_states; ++m) {
        const auto modality = static_cast<ModalityId>(cursor.read_u32());
        repo.sparse[modality] = index::read_inverted_index(cursor);
    }
}

Bytes MieServer::export_mapped_snapshot() const {
    const std::shared_lock map_lock(map_mutex_);
    std::vector<std::string> repo_ids;
    repo_ids.reserve(repositories_.size());
    // mielint: allow(R3): ids are sorted on the next line
    for (const auto& [repo_id, repo_ptr] : repositories_) {
        repo_ids.push_back(repo_id);
    }
    std::sort(repo_ids.begin(), repo_ids.end());
    index::SnapshotFileBuilder builder;
    for (const std::string& repo_id : repo_ids) {
        Repository& repo = *repositories_.at(repo_id);
        // A still-lazy repository round-trips through parse + reserialize;
        // both are sorted-order pure functions of state, so the bytes are
        // unchanged (the round-trip tests pin this down).
        ensure_materialized(repo);
        const std::shared_lock repo_lock(repo.mutex);
        index::SnapshotWriter writer;
        serialize_repository(writer, repo);
        builder.add_section(repo_id, writer.take());
    }
    return builder.finish();
}

void MieServer::attach_mapped_snapshot(
    std::shared_ptr<index::MappedSnapshot> snapshot) {
    const std::unique_lock map_lock(map_mutex_);
    repositories_.clear();
    for (std::size_t i = 0; i < snapshot->num_sections(); ++i) {
        auto repo = std::make_unique<Repository>();
        repo->materialized.store(false, std::memory_order_release);
        repo->source = snapshot;
        repo->source_section = static_cast<std::uint32_t>(i);
        repositories_[snapshot->section_name(i)] = std::move(repo);
    }
}

MieServer::RepoStats MieServer::stats(const std::string& repo_id) const {
    const std::shared_lock map_lock(map_mutex_);
    const auto it = repositories_.find(repo_id);
    if (it == repositories_.end()) {
        throw std::invalid_argument("MieServer: unknown repository");
    }
    Repository& repo = *it->second;
    ensure_materialized(repo);
    const std::shared_lock repo_lock(repo.mutex);
    RepoStats stats;
    stats.num_objects = repo.objects.size();
    stats.trained = repo.trained;
    for (const auto& [modality, state] : repo.dense) {
        if (!state.tree.empty()) stats.visual_words += state.tree.num_leaves();
        stats.image_index_terms += state.index.num_terms();
    }
    for (const auto& [modality, idx] : repo.sparse) {
        stats.text_index_terms += idx.num_terms();
    }
    stats.dense_modalities = repo.dense.size();
    stats.sparse_modalities = repo.sparse.size();
    return stats;
}

}  // namespace mie
