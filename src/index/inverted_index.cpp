#include "index/inverted_index.hpp"

#include <algorithm>
#include <stdexcept>

namespace mie::index {

InvertedIndex::DocEntry& InvertedIndex::entry_for(DocId doc) {
    const auto [it, inserted] = docs_.try_emplace(doc);
    if (inserted) {
        if (free_slots_.empty()) {
            it->second.slot = static_cast<std::uint32_t>(slot_docs_.size());
            slot_docs_.push_back(doc);
            slot_postings_.push_back(0);
        } else {
            it->second.slot = free_slots_.back();
            free_slots_.pop_back();
            slot_docs_[it->second.slot] = doc;
        }
    }
    return it->second;
}

void InvertedIndex::add(const Term& term, DocId doc, std::uint32_t freq) {
    if (freq == 0) return;
    DocEntry& entry = entry_for(doc);
    auto& list = postings_[term];
    if (entry.term_set.insert(term).second) {
        list.push_back(Posting{doc, freq, entry.slot});
        ++slot_postings_[entry.slot];
        ++num_postings_;
        return;
    }
    // A repeated (term, doc) pair: documents are indexed one at a time,
    // so the posting is almost always the list's last.
    auto it = std::prev(list.end());
    if (it->doc != doc) {
        it = std::find_if(list.begin(), list.end(),
                          [doc](const Posting& p) { return p.doc == doc; });
    }
    it->frequency += freq;
}

void InvertedIndex::remove_document(DocId doc) {
    const auto it = docs_.find(doc);
    if (it == docs_.end()) return;
    // mielint: allow(R3): each term's list is edited independently
    for (const Term& term : it->second.term_set) {
        auto list_it = postings_.find(term);
        if (list_it == postings_.end()) continue;
        auto& list = list_it->second;
        const auto posting = std::find_if(
            list.begin(), list.end(),
            [doc](const Posting& p) { return p.doc == doc; });
        if (posting != list.end()) {
            *posting = list.back();
            list.pop_back();
            --num_postings_;
        }
        if (list.empty()) postings_.erase(list_it);
    }
    slot_postings_[it->second.slot] = 0;
    free_slots_.push_back(it->second.slot);
    docs_.erase(it);
}

const std::vector<Posting>* InvertedIndex::postings(const Term& term) const {
    const auto it = postings_.find(term);
    return it == postings_.end() ? nullptr : &it->second;
}

std::size_t InvertedIndex::document_frequency(const Term& term) const {
    const auto* list = postings(term);
    return list == nullptr ? 0 : list->size();
}

std::vector<Term> InvertedIndex::terms_of(DocId doc) const {
    const auto it = docs_.find(doc);
    if (it == docs_.end()) return {};
    return std::vector<Term>(it->second.term_set.begin(),
                             it->second.term_set.end());
}

std::vector<Term> InvertedIndex::sorted_terms() const {
    std::vector<Term> terms;
    terms.reserve(postings_.size());
    // mielint: allow(R3): terms are sorted on the next line
    for (const auto& [term, list] : postings_) terms.push_back(term);
    std::sort(terms.begin(), terms.end());
    return terms;
}

void InvertedIndex::load_postings(const Term& term,
                                  std::vector<Posting> postings) {
    if (postings.empty()) return;
    if (postings_.contains(term)) {
        throw std::invalid_argument(
            "InvertedIndex: load_postings over an existing term");
    }
    for (std::size_t i = 0; i < postings.size(); ++i) {
        if (i > 0 && postings[i].doc <= postings[i - 1].doc) {
            throw std::invalid_argument(
                "InvertedIndex: load_postings doc ids not ascending");
        }
        DocEntry& entry = entry_for(postings[i].doc);
        entry.term_set.insert(term);
        postings[i].slot = entry.slot;
        ++slot_postings_[entry.slot];
    }
    num_postings_ += postings.size();
    postings_.emplace(term, std::move(postings));
}

void InvertedIndex::clear() {
    postings_.clear();
    docs_.clear();
    slot_docs_.clear();
    slot_postings_.clear();
    free_slots_.clear();
    num_postings_ = 0;
}

}  // namespace mie::index
