// Inverted index, TF-IDF/BM25 scoring, and champion-list tests.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "index/champion.hpp"
#include "index/inverted_index.hpp"
#include "index/scoring.hpp"
#include "util/rng.hpp"

namespace mie::index {
namespace {

TEST(InvertedIndex, AddAndLookup) {
    InvertedIndex idx;
    idx.add("cat", 1, 2);
    idx.add("cat", 2, 1);
    idx.add("dog", 1, 5);
    EXPECT_EQ(idx.num_terms(), 2u);
    EXPECT_EQ(idx.num_documents(), 2u);
    EXPECT_EQ(idx.num_postings(), 3u);
    EXPECT_EQ(idx.document_frequency("cat"), 2u);
    EXPECT_EQ(idx.document_frequency("missing"), 0u);
    ASSERT_NE(idx.postings("dog"), nullptr);
    EXPECT_EQ(idx.postings("dog")->front().frequency, 5u);
    EXPECT_EQ(idx.postings("missing"), nullptr);
}

TEST(InvertedIndex, AddAccumulatesFrequency) {
    InvertedIndex idx;
    idx.add("cat", 1, 2);
    idx.add("cat", 1, 3);
    ASSERT_EQ(idx.postings("cat")->size(), 1u);
    EXPECT_EQ(idx.postings("cat")->front().frequency, 5u);
    EXPECT_EQ(idx.num_postings(), 1u);

    // A repeat that is not at the back of the list still accumulates.
    InvertedIndex interleaved;
    interleaved.add("a", 1);
    interleaved.add("a", 2);
    interleaved.add("a", 1);
    ASSERT_EQ(interleaved.postings("a")->size(), 2u);
    EXPECT_EQ(interleaved.postings("a")->front().doc, 1u);
    EXPECT_EQ(interleaved.postings("a")->front().frequency, 2u);
    EXPECT_EQ(interleaved.num_postings(), 2u);
}

TEST(InvertedIndex, ZeroFrequencyIsIgnored) {
    InvertedIndex idx;
    idx.add("cat", 1, 0);
    EXPECT_EQ(idx.num_terms(), 0u);
}

TEST(InvertedIndex, RemoveDocumentPurgesAllPostings) {
    InvertedIndex idx;
    idx.add("cat", 1);
    idx.add("dog", 1);
    idx.add("cat", 2);
    idx.remove_document(1);
    EXPECT_FALSE(idx.contains_document(1));
    EXPECT_EQ(idx.document_frequency("cat"), 1u);
    EXPECT_EQ(idx.postings("dog"), nullptr);  // emptied term disappears
    EXPECT_EQ(idx.num_postings(), 1u);
    idx.remove_document(42);  // unknown doc is a no-op
    EXPECT_EQ(idx.num_postings(), 1u);
}

TEST(InvertedIndex, TermsOfDocument) {
    InvertedIndex idx;
    idx.add("a", 7);
    idx.add("b", 7);
    const auto terms = idx.terms_of(7);
    EXPECT_EQ(terms.size(), 2u);
    EXPECT_TRUE(idx.terms_of(8).empty());
}

TEST(InvertedIndex, ClearResets) {
    InvertedIndex idx;
    idx.add("a", 1);
    idx.clear();
    EXPECT_EQ(idx.num_terms(), 0u);
    EXPECT_EQ(idx.num_documents(), 0u);
    EXPECT_EQ(idx.num_postings(), 0u);
}

TEST(TfIdf, RanksByRelevance) {
    InvertedIndex idx;
    // doc 1 heavy in "rare"; "common" is in 9 of 10 docs (low idf).
    idx.add("rare", 1, 5);
    for (DocId d = 1; d <= 9; ++d) idx.add("common", d, 1);
    const auto ranked = rank_tfidf(idx, {{"rare", 1}, {"common", 1}}, 10, 5);
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(ranked.front().doc, 1u);
    EXPECT_EQ(ranked.size(), 5u);
}

TEST(TfIdf, UbiquitousTermsScoreZero) {
    InvertedIndex idx;
    for (DocId d = 0; d < 4; ++d) idx.add("everywhere", d, 1);
    // idf = log(4/4) = 0 -> nothing to rank.
    EXPECT_TRUE(rank_tfidf(idx, {{"everywhere", 1}}, 4, 3).empty());

    // A zero-frequency posting (only a loaded snapshot can hold one)
    // contributes 0 but still ranks its document, as a per-document
    // accumulator always did.
    InvertedIndex loaded;
    loaded.load_postings("t", {Posting{.doc = 5, .frequency = 0}});
    for (const auto& ranked : {rank_tfidf(loaded, {{"t", 1}}, 4, 3),
                               rank_bm25(loaded, {{"t", 1}}, 4, 3)}) {
        ASSERT_EQ(ranked.size(), 1u);
        EXPECT_EQ(ranked.front().doc, 5u);
        EXPECT_EQ(ranked.front().score, 0.0);
    }
}

TEST(TfIdf, QueryFrequencyWeights) {
    InvertedIndex idx;
    idx.add("a", 1, 1);
    idx.add("b", 2, 1);
    // With 10 documents both terms have equal idf; doubling the query
    // frequency of "a" must rank doc 1 first.
    const auto ranked = rank_tfidf(idx, {{"a", 2}, {"b", 1}}, 10, 2);
    ASSERT_EQ(ranked.size(), 2u);
    EXPECT_EQ(ranked.front().doc, 1u);
    EXPECT_GT(ranked[0].score, ranked[1].score);
}

TEST(TfIdf, EmptyCases) {
    InvertedIndex idx;
    EXPECT_TRUE(rank_tfidf(idx, {{"a", 1}}, 0, 5).empty());
    idx.add("a", 1, 1);
    EXPECT_TRUE(rank_tfidf(idx, {}, 10, 5).empty());
    EXPECT_TRUE(rank_tfidf(idx, {{"missing", 1}}, 10, 5).empty());
}

TEST(Bm25, RanksAndSaturates) {
    InvertedIndex idx;
    idx.add("term", 1, 100);  // huge tf
    idx.add("term", 2, 2);
    idx.add("other", 2, 1);
    const auto ranked = rank_bm25(idx, {{"term", 1}}, 10, 2);
    ASSERT_EQ(ranked.size(), 2u);
    EXPECT_EQ(ranked.front().doc, 1u);
    // BM25 saturation: doc1's 50x tf advantage yields < 5x score.
    EXPECT_LT(ranked[0].score, ranked[1].score * 5.0);
}

TEST(TopKOf, SortsAndBreaksTies) {
    std::map<DocId, double> scores = {{3, 1.0}, {1, 2.0}, {2, 1.0}};
    const auto top = top_k_of(std::move(scores), 2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].doc, 1u);
    EXPECT_EQ(top[1].doc, 2u);  // tie broken by ascending id
}

// ---- Differential check against the std::map scorers ----------------

/// TF-IDF as a per-document std::map accumulator: the reference the
/// slot-addressed scorer must match bit for bit.
std::vector<ScoredDoc> reference_tfidf(const InvertedIndex& index,
                                       const QueryHistogram& query,
                                       std::size_t total_documents,
                                       std::size_t top_k) {
    std::map<DocId, double> scores;
    if (total_documents == 0) return {};
    for (const auto& [term, query_freq] : query) {
        const auto* list = index.postings(term);
        if (list == nullptr || list->empty()) continue;
        const double idf = std::log(static_cast<double>(total_documents) /
                                    static_cast<double>(list->size()));
        if (idf <= 0.0) continue;
        for (const Posting& posting : *list) {
            scores[posting.doc] +=
                static_cast<double>(query_freq) * posting.frequency * idf;
        }
    }
    return top_k_of(std::move(scores), top_k);
}

/// BM25 reference, document length read from the document's term list.
std::vector<ScoredDoc> reference_bm25(const InvertedIndex& index,
                                      const QueryHistogram& query,
                                      std::size_t total_documents,
                                      std::size_t top_k) {
    const Bm25Params params;
    if (total_documents == 0) return {};
    const double avg_length =
        index.num_documents() == 0
            ? 1.0
            : static_cast<double>(index.num_postings()) /
                  static_cast<double>(index.num_documents());
    std::map<DocId, double> scores;
    for (const auto& [term, query_freq] : query) {
        const auto* list = index.postings(term);
        if (list == nullptr || list->empty()) continue;
        const double df = static_cast<double>(list->size());
        const double idf = std::log(
            1.0 + (static_cast<double>(total_documents) - df + 0.5) /
                      (df + 0.5));
        for (const Posting& posting : *list) {
            const double doc_length =
                static_cast<double>(index.terms_of(posting.doc).size());
            const double tf = posting.frequency;
            const double denom =
                tf + params.k1 * (1.0 - params.b +
                                  params.b * doc_length / avg_length);
            scores[posting.doc] += static_cast<double>(query_freq) * idf *
                                   (tf * (params.k1 + 1.0)) / denom;
        }
    }
    return top_k_of(std::move(scores), top_k);
}

void expect_same_ranking(const std::vector<ScoredDoc>& got,
                         const std::vector<ScoredDoc>& want,
                         const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].doc, want[i].doc) << what << " rank " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].score),
                  std::bit_cast<std::uint64_t>(want[i].score))
            << what << " rank " << i;
    }
}

/// Copies `index` through load_postings (the snapshot reader's path), so
/// the rest of the sequence runs on slots assigned by bulk load.
InvertedIndex reload(const InvertedIndex& index) {
    InvertedIndex loaded;
    for (const Term& term : index.sorted_terms()) {
        std::vector<Posting> list = *index.postings(term);
        std::sort(list.begin(), list.end(),
                  [](const Posting& a, const Posting& b) {
                      return a.doc < b.doc;
                  });
        loaded.load_postings(term, std::move(list));
    }
    return loaded;
}

TEST(InvertedIndex, SlotScorersMatchMapScorersUnderChurn) {
    SplitMix64 rng(20170626);
    const auto below = [&rng](std::uint64_t n) { return rng() % n; };
    InvertedIndex index;
    // The plain model the index must agree with: term -> doc -> freq.
    std::map<Term, std::map<DocId, std::uint32_t>> model;
    for (int step = 0; step < 3000; ++step) {
        const std::uint64_t action = below(100);
        const DocId doc = below(48);
        if (action < 80) {
            const Term term = "t" + std::to_string(below(24));
            const auto freq = static_cast<std::uint32_t>(below(4));
            index.add(term, doc, freq);
            if (freq > 0) model[term][doc] += freq;
        } else if (action < 97) {
            index.remove_document(doc);
            for (auto it = model.begin(); it != model.end();) {
                it->second.erase(doc);
                it = it->second.empty() ? model.erase(it) : std::next(it);
            }
        } else {
            index = reload(index);
        }

        std::set<DocId> docs;
        std::size_t postings = 0;
        for (const auto& [term, list] : model) {
            for (const auto& [d, freq] : list) docs.insert(d);
            postings += list.size();
        }
        ASSERT_EQ(index.num_postings(), postings) << "step " << step;
        ASSERT_EQ(index.num_documents(), docs.size()) << "step " << step;
        ASSERT_EQ(index.num_terms(), model.size()) << "step " << step;
        // Doc ids are below 48, so only reused slots keep this bounded.
        ASSERT_LE(index.num_slots(), 48u) << "step " << step;
        for (int t = 0; t < 24; ++t) {
            const Term term = "t" + std::to_string(t);
            const auto it = model.find(term);
            ASSERT_EQ(index.document_frequency(term),
                      it == model.end() ? 0u : it->second.size())
                << "step " << step << " term " << term;
        }
        for (const auto& [term, list] : model) {
            std::map<DocId, std::uint32_t> got;
            for (const Posting& posting : *index.postings(term)) {
                ASSERT_EQ(index.slot_doc(posting.slot), posting.doc);
                got[posting.doc] = posting.frequency;
            }
            ASSERT_EQ(got, list) << "step " << step << " term " << term;
        }

        QueryHistogram query;
        const std::uint64_t query_terms = 1 + below(8);
        for (std::uint64_t q = 0; q < query_terms; ++q) {
            query["t" + std::to_string(below(26))] =
                static_cast<std::uint32_t>(1 + below(3));
        }
        const std::size_t total = index.num_documents() + below(3);
        for (const std::size_t top_k : {std::size_t{3}, std::size_t{64}}) {
            const std::string what =
                "step " + std::to_string(step) + " k " + std::to_string(top_k);
            expect_same_ranking(rank_tfidf(index, query, total, top_k),
                                reference_tfidf(index, query, total, top_k),
                                "tfidf " + what);
            expect_same_ranking(rank_bm25(index, query, total, top_k),
                                reference_bm25(index, query, total, top_k),
                                "bm25 " + what);
        }
        if (::testing::Test::HasFailure()) return;
    }
}

class ChampionIndexTest : public ::testing::Test {
protected:
    ChampionIndexTest()
        // Keyed by test name + pid: ctest runs each case as its own
        // process in parallel, so a shared path would collide.
        : path_(std::filesystem::temp_directory_path() /
                ("mie_champion_test_" +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name()) +
                 "_" + std::to_string(::getpid()) + ".log")) {}

    ~ChampionIndexTest() override {
        std::error_code ec;
        std::filesystem::remove(path_, ec);
    }

    std::filesystem::path path_;
};

TEST_F(ChampionIndexTest, KeepsTopPostingsHot) {
    ChampionIndex idx(path_, {.champion_size = 2, .buffer_budget = 100});
    idx.add("t", 1, 10);
    idx.add("t", 2, 30);
    idx.add("t", 3, 20);
    const auto* hot = idx.champions("t");
    ASSERT_NE(hot, nullptr);
    ASSERT_EQ(hot->size(), 2u);
    EXPECT_EQ(hot->at(0).doc, 2u);  // freq 30
    EXPECT_EQ(hot->at(1).doc, 3u);  // freq 20
    EXPECT_EQ(idx.buffered_postings(), 1u);  // doc 1 demoted
}

TEST_F(ChampionIndexTest, SpillsToFullIndexOnDisk) {
    ChampionIndex idx(path_, {.champion_size = 1, .buffer_budget = 2});
    for (std::uint64_t d = 0; d < 6; ++d) {
        idx.add("t", d, static_cast<std::uint32_t>(d + 1));
    }
    EXPECT_GT(idx.spilled_postings(), 0u);
    const auto full = idx.full_postings("t");
    ASSERT_EQ(full.size(), 6u);
    EXPECT_EQ(full.front().doc, 5u);  // highest freq overall
    // Every posting is recoverable with its exact frequency.
    for (const auto& posting : full) {
        EXPECT_EQ(posting.frequency, posting.doc + 1);
    }
}

TEST_F(ChampionIndexTest, AccumulatesFrequencyInHotSet) {
    ChampionIndex idx(path_, {.champion_size = 4, .buffer_budget = 100});
    idx.add("t", 1, 1);
    idx.add("t", 1, 4);
    const auto* hot = idx.champions("t");
    ASSERT_EQ(hot->size(), 1u);
    EXPECT_EQ(hot->front().frequency, 5u);
}

TEST_F(ChampionIndexTest, RejectsZeroChampionSize) {
    EXPECT_THROW(
        ChampionIndex(path_, {.champion_size = 0, .buffer_budget = 1}),
        std::invalid_argument);
}

TEST_F(ChampionIndexTest, UnknownTermBehaviour) {
    ChampionIndex idx(path_, {});
    EXPECT_EQ(idx.champions("none"), nullptr);
    EXPECT_TRUE(idx.full_postings("none").empty());
}

}  // namespace
}  // namespace mie::index
