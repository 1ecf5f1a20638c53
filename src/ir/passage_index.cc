#include "ir/passage_index.h"

#include "common/string_util.h"
#include "ir/term_pipeline.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace dwqa {
namespace ir {

namespace {

/// Per-sentence term extraction from a cached analysis (the gate of the
/// raw AddDocument path, minus the tokenization it no longer needs).
std::vector<std::vector<TermId>> AnalyzedSentenceTerms(
    const text::AnalyzedDocument& analysis) {
  std::vector<std::vector<TermId>> sentence_terms(analysis.sentences.size());
  for (size_t s = 0; s < analysis.sentences.size(); ++s) {
    const text::AnalyzedSentence& sentence = analysis.sentences[s];
    for (size_t i = 0; i < sentence.tokens.size(); ++i) {
      if (IsPassageTerm(sentence.tokens[i])) {
        sentence_terms[s].push_back(sentence.token_ids[i]);
      }
    }
  }
  return sentence_terms;
}

std::vector<std::string> AnalyzedSentenceTexts(
    const text::AnalyzedDocument& analysis) {
  std::vector<std::string> sents;
  sents.reserve(analysis.sentences.size());
  for (const text::AnalyzedSentence& sentence : analysis.sentences) {
    sents.push_back(sentence.text);
  }
  return sents;
}

}  // namespace

void PassageIndex::AddDocument(DocId doc_id, const std::string& text) {
  std::vector<std::string> sents = text::SentenceSplitter::Split(text);
  std::vector<std::vector<TermId>> sentence_terms(sents.size());
  for (size_t s = 0; s < sents.size(); ++s) {
    for (const text::Token& t : text::Tokenizer::Tokenize(sents[s])) {
      if (IsPassageTerm(t)) sentence_terms[s].push_back(dict_->Intern(t.lower));
    }
  }
  core_->mutable_state()->sentences[doc_id] = std::move(sents);
  core_->Add(doc_id, sentence_terms);
}

void PassageIndex::AddAnalyzed(DocId doc_id,
                               const text::AnalyzedDocument& analysis) {
  core_->mutable_state()->sentences[doc_id] =
      AnalyzedSentenceTexts(analysis);
  core_->Add(doc_id, AnalyzedSentenceTerms(analysis));
}

void PassageIndex::AddAnalyzedBatch(
    const std::vector<std::pair<DocId, const text::AnalyzedDocument*>>& docs,
    ThreadPool* pool) {
  std::vector<std::vector<std::string>> sentences(docs.size());
  core_->AddBatch(docs.size(), pool,
                  [&](PassageSegment::Builder* shard, size_t i) {
                    shard->Add(docs[i].first,
                               AnalyzedSentenceTerms(*docs[i].second));
                    sentences[i] = AnalyzedSentenceTexts(*docs[i].second);
                  });
  for (size_t i = 0; i < docs.size(); ++i) {
    core_->mutable_state()->sentences[docs[i].first] = std::move(sentences[i]);
  }
}

std::vector<Passage> PassageIndex::Search(const std::string& query,
                                          size_t k) const {
  return Lookup(query, k, ResolvePassageQuery);
}

}  // namespace ir
}  // namespace dwqa
