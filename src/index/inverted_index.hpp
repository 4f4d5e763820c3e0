// Inverted index with per-document term frequencies.
//
// One instance per (repository, modality), as in the paper's server design
// (§VI): "each index key represents a distinct keyword and index values
// compose a list of all object identifiers containing the keyword", plus
// the frequency needed for TF-IDF ranking. Terms are opaque byte strings:
// Sparse-DPE tokens for text, visual-word ids for images.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mie::index {

using DocId = std::uint64_t;
using Term = std::string;  ///< opaque term key (token bytes / word id)

struct Posting {
    DocId doc = 0;
    std::uint32_t frequency = 0;
    /// The document's dense slot in the owning index (assigned by
    /// InvertedIndex; derived data, never serialized).
    std::uint32_t slot = 0;
};
static_assert(sizeof(Posting) == 16);

class InvertedIndex {
public:
    /// Adds `freq` occurrences of `term` in `doc` (accumulates).
    void add(const Term& term, DocId doc, std::uint32_t freq = 1);

    /// Removes every posting of `doc`; O(terms of doc) via the reverse map.
    void remove_document(DocId doc);

    /// Postings of a term (nullptr if absent). Order is unspecified.
    const std::vector<Posting>* postings(const Term& term) const;

    /// Number of documents containing the term.
    std::size_t document_frequency(const Term& term) const;

    std::size_t num_terms() const { return postings_.size(); }
    std::size_t num_documents() const { return docs_.size(); }
    std::size_t num_postings() const { return num_postings_; }
    bool contains_document(DocId doc) const { return docs_.contains(doc); }

    /// Live documents occupy slots [0, num_slots()) densely, apart from
    /// slots freed by remove_document and not yet reused. Scorers size a
    /// flat accumulator by it and index it with Posting::slot.
    std::size_t num_slots() const { return slot_docs_.size(); }
    /// Document id in `slot`, and its posting count (= distinct terms).
    DocId slot_doc(std::uint32_t slot) const { return slot_docs_[slot]; }
    std::uint32_t slot_postings(std::uint32_t slot) const {
        return slot_postings_[slot];
    }

    /// All terms of a document (empty if unknown).
    std::vector<Term> terms_of(DocId doc) const;

    /// Every term in sorted order — the iteration the snapshot writer
    /// uses, so serialized bytes never depend on hash-map layout (lint
    /// rule R3).
    std::vector<Term> sorted_terms() const;

    /// Bulk-loads a term's postings during snapshot materialization. The
    /// term must be new to the index and postings must carry unique,
    /// ascending doc ids (the snapshot writer emits them that way; a
    /// violation means the file is corrupt).
    void load_postings(const Term& term, std::vector<Posting> postings);

    void clear();

private:
    struct DocEntry {
        std::uint32_t slot = 0;
        std::unordered_set<Term> term_set;
    };

    /// The document's entry, taking a slot on first sight.
    DocEntry& entry_for(DocId doc);

    std::unordered_map<Term, std::vector<Posting>> postings_;
    std::unordered_map<DocId, DocEntry> docs_;
    std::vector<DocId> slot_docs_;
    std::vector<std::uint32_t> slot_postings_;
    std::vector<std::uint32_t> free_slots_;
    std::size_t num_postings_ = 0;
};

}  // namespace mie::index
