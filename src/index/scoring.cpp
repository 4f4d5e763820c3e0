#include "index/scoring.hpp"

#include <algorithm>
#include <cmath>

namespace mie::index {
namespace {

bool ranks_before(const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
}

/// Per-query score accumulator over the index's document slots. Each
/// document receives at most one contribution per query term, in query
/// order, so its sum is the same sequence of additions a per-document
/// map would perform and the scores match it bit for bit.
class SlotScores {
public:
    explicit SlotScores(const InvertedIndex& index)
        : index_(index),
          scores_(index.num_slots(), 0.0),
          touched_(index.num_slots(), 0) {}

    void add(std::uint32_t slot, double contribution) {
        if (touched_[slot] == 0) {
            touched_[slot] = 1;
            order_.push_back(slot);
        }
        scores_[slot] += contribution;
    }

    /// Every touched document (score 0 included), best top_k first.
    std::vector<ScoredDoc> top_k(std::size_t top_k) const {
        std::vector<ScoredDoc> ranked;
        ranked.reserve(order_.size());
        for (const std::uint32_t slot : order_) {
            ranked.push_back(ScoredDoc{index_.slot_doc(slot), scores_[slot]});
        }
        const std::size_t keep = std::min(top_k, ranked.size());
        std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end(),
                          ranks_before);
        ranked.resize(keep);
        return ranked;
    }

private:
    const InvertedIndex& index_;
    std::vector<double> scores_;
    std::vector<std::uint8_t> touched_;
    std::vector<std::uint32_t> order_;
};

}  // namespace

std::vector<ScoredDoc> top_k_of(std::map<DocId, double> scores,
                                std::size_t top_k) {
    std::vector<ScoredDoc> ranked;
    ranked.reserve(scores.size());
    for (const auto& [doc, score] : scores) {
        ranked.push_back(ScoredDoc{doc, score});
    }
    std::sort(ranked.begin(), ranked.end(), ranks_before);
    if (ranked.size() > top_k) ranked.resize(top_k);
    return ranked;
}

std::vector<ScoredDoc> rank_tfidf(const InvertedIndex& index,
                                  const QueryHistogram& query,
                                  std::size_t total_documents,
                                  std::size_t top_k, RankCounters* counters) {
    if (total_documents == 0) return {};
    SlotScores scores(index);
    for (const auto& [term, query_freq] : query) {
        const auto* list = index.postings(term);
        if (list == nullptr || list->empty()) continue;
        const double idf = std::log(static_cast<double>(total_documents) /
                                    static_cast<double>(list->size()));
        if (idf <= 0.0) continue;
        if (counters != nullptr) {
            ++counters->terms_matched;
            counters->postings_scored += list->size();
        }
        for (const Posting& posting : *list) {
            scores.add(posting.slot, static_cast<double>(query_freq) *
                                         posting.frequency * idf);
        }
    }
    return scores.top_k(top_k);
}

std::vector<ScoredDoc> rank_bm25(const InvertedIndex& index,
                                 const QueryHistogram& query,
                                 std::size_t total_documents,
                                 std::size_t top_k, const Bm25Params& params,
                                 RankCounters* counters) {
    if (total_documents == 0) return {};
    const double avg_length =
        index.num_documents() == 0
            ? 1.0
            : static_cast<double>(index.num_postings()) /
                  static_cast<double>(index.num_documents());

    SlotScores scores(index);
    for (const auto& [term, query_freq] : query) {
        const auto* list = index.postings(term);
        if (list == nullptr || list->empty()) continue;
        if (counters != nullptr) {
            ++counters->terms_matched;
            counters->postings_scored += list->size();
        }
        const double df = static_cast<double>(list->size());
        const double idf = std::log(
            1.0 + (static_cast<double>(total_documents) - df + 0.5) /
                      (df + 0.5));
        for (const Posting& posting : *list) {
            const double doc_length =
                static_cast<double>(index.slot_postings(posting.slot));
            const double tf = posting.frequency;
            const double denom =
                tf + params.k1 * (1.0 - params.b +
                                  params.b * doc_length / avg_length);
            scores.add(posting.slot, static_cast<double>(query_freq) * idf *
                                         (tf * (params.k1 + 1.0)) / denom);
        }
    }
    return scores.top_k(top_k);
}

}  // namespace mie::index
