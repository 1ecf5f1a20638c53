#ifndef DWQA_IR_PASSAGE_INDEX_H_
#define DWQA_IR_PASSAGE_INDEX_H_

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "ir/document.h"
#include "ir/segmented_index.h"
#include "text/analyzed_corpus.h"

namespace dwqa {

class ThreadPool;

namespace ir {

/// \brief A passage: `size` consecutive sentences of one document (the
/// IR-n retrieval unit — the paper's footnote 6 describes a most-relevant
/// passage of eight consecutive sentences).
struct Passage {
  DocId doc = kInvalidDoc;
  /// Sentence range [first, last] within the document.
  size_t first_sentence = 0;
  size_t last_sentence = 0;
  double score = 0.0;
  /// The passage text (sentences joined by newlines).
  std::string text;
};

/// \brief IR-n-style passage retrieval: documents are split into sentences
/// at index time, and retrieval scores overlapping sentence windows by
/// idf-weighted query-term coverage.
///
/// This is the filtering stage of AliQAn's search phase (paper Figure 3,
/// Module 2): it cuts the amount of text the expensive QA analysis must
/// process — "IR tools are usually run as a first filtering phase, and QA
/// works on IR output. In this way, time of analysis spent by users is
/// highly decreased" (§1).
///
/// Postings are keyed by TermId (see ir/term_pipeline.h for the shared
/// filtering gate and ResolvePassageQuery for the query side). Like
/// InvertedIndex, the index owns a dictionary unless constructed over a
/// shared one, in which case AddAnalyzed reuses the corpus's cached token
/// ids.
///
/// Storage is the LSM-style segmented core (ir/segmented_index.h): adds
/// are incremental appends, and retrieval prunes candidate documents whose
/// score bound cannot reach the current top-k instead of scoring every
/// window — byte-identical results for every segment layout.
class PassageIndex : public IndexFacade<PassageSegment> {
 public:
  /// `window` = number of consecutive sentences per passage (clamped to a
  /// minimum of one sentence).
  explicit PassageIndex(size_t window = 8,
                        const SegmentedIndexOptions& options = {})
      : PassageIndex(window, nullptr, options) {}

  /// Shares `dict` (must outlive the index).
  PassageIndex(size_t window, TermDictionary* dict,
               const SegmentedIndexOptions& options = {})
      : IndexFacade(dict, std::make_unique<Core>(
                              options,
                              Core::State{std::max<size_t>(1, window), {}})) {}

  /// Splits and indexes the plain text of `doc_id` — an incremental
  /// append; the document is searchable immediately.
  void AddDocument(DocId doc_id, const std::string& plain_text);

  /// Indexes a document from its cached indexation-time analysis: same
  /// postings and stored sentences as AddDocument on the analyzed plain
  /// text, no re-splitting or re-tokenization. Requires the index to share
  /// the corpus's dictionary.
  void AddAnalyzed(DocId doc_id, const text::AnalyzedDocument& analysis);

  /// Bulk build: one sealed segment per contiguous shard of `docs`, shards
  /// built and sealed concurrently on `pool`, appended in shard order —
  /// postings byte-identical to the serial AddAnalyzed loop.
  void AddAnalyzedBatch(
      const std::vector<std::pair<DocId, const text::AnalyzedDocument*>>& docs,
      ThreadPool* pool);

  /// Top-k passages for the query terms, best first. Adjacent overlapping
  /// windows of the same document are deduplicated (the best one is kept).
  /// Safe concurrently with other searches and with background merges.
  std::vector<Passage> Search(const std::string& query, size_t k = 5) const;

  /// The stored sentences of a document. The reference stays valid across
  /// seals and merges (sentence text lives outside the segments).
  const std::vector<std::string>& Sentences(DocId doc_id) const {
    return core_->state().Sentences(doc_id);
  }

  size_t window() const { return core_->state().window; }
  /// Distinct documents indexed.
  size_t document_count() const { return core_->state().sentences.size(); }
};

}  // namespace ir
}  // namespace dwqa

#endif  // DWQA_IR_PASSAGE_INDEX_H_
