#ifndef DWQA_IR_SEGMENTED_INDEX_H_
#define DWQA_IR_SEGMENTED_INDEX_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "ir/segment.h"

namespace dwqa {

class ThreadPool;

namespace ir {

struct DocHit;
struct Passage;

/// \file segmented_index.h
/// \brief The LSM-style segmented index core: a mutable memtable plus a
/// manifest of immutable sealed segments (ir/segment.h), with tiered
/// background merging and block-max top-k pruning.
///
/// `InvertedIndex` and `PassageIndex` re-seat on this core: AddDocument/
/// AddAnalyzed become incremental appends (a freshly fetched page is
/// searchable without a rebuild), and Search fans out across segments,
/// merging top-k results with exact score-bound pruning.
///
/// **Determinism.** Results are byte-identical regardless of segment count
/// or merge timing: segments keep documents in insertion order, merges
/// concatenate adjacent segments (preserving manifest order), per-document
/// scores accumulate in the same sorted-unique query-term order as the
/// monolithic code, pruning only ever discards candidates strictly below
/// the current top-k threshold, and the final (score, id) sort is a total
/// order. `seal_every = 0` disables sealing entirely — the pure-memtable
/// configuration *is* the old monolithic index.
///
/// **Concurrency contract.** Reads (Search*/DebugString/counters) are safe
/// concurrently with each other and with background merges; writers
/// (Add*/Seal*) require external exclusion from both readers and other
/// writers — the same quiescent-index contract the serving layer already
/// relies on. The destructor blocks until in-flight merges finish.
struct SegmentedIndexOptions {
  /// Memtable documents per sealed segment. 0 = never seal (monolithic
  /// mode: one mutable memtable, no merges, no pruning metadata).
  size_t seal_every = 64;
  /// Sealed-segment count above which a merge is triggered: the adjacent
  /// pair with the fewest combined documents (leftmost on ties) merges
  /// into one, repeatedly, until the manifest is back at or below the
  /// trigger. Deterministic: depends only on the manifest shape.
  size_t merge_trigger = 8;
  /// Postings per block of the sealed lists (block-max skip granularity).
  size_t block_postings = 128;
  /// When non-null, merges run on this pool in the background (the pool
  /// must outlive the index; the index's destructor drains its own merge
  /// before returning). Null = merges run inline at the seal point.
  ThreadPool* merge_pool = nullptr;
};

/// \brief What differs per index kind: the hit type a search returns, the
/// `index` label of metrics and spans, the DebugString posting separator,
/// the façade's lookup metric families and any state kept beside the
/// postings.
template <typename Segment>
struct IndexKind;

template <>
struct IndexKind<DocSegment> {
  using Hit = DocHit;
  struct State {};
  static constexpr const char* kLabel = "doc";
  static constexpr char kPostingSeparator = 'x';  ///< doc `x` tf
  static constexpr const char* kLookups = kMetricIrDocLookups;
  static constexpr const char* kLookupsHelp =
      "Document-level index searches performed";
  static constexpr const char* kLookupLatency = kMetricIrDocLookupLatency;
  static constexpr const char* kLookupLatencyHelp =
      "Latency of document-level index searches";
};

template <>
struct IndexKind<PassageSegment> {
  using Hit = Passage;
  /// Sentence text lives in this index-level doc→sentences table (never
  /// inside segments), so the references PassageIndex::Sentences hands out
  /// survive seals and merges.
  struct State {
    size_t window = 1;  ///< Sentences per passage window (≥ 1).
    std::unordered_map<DocId, std::vector<std::string>> sentences;
    /// The stored sentences of `doc` (empty when unknown).
    const std::vector<std::string>& Sentences(DocId doc) const;
  };
  static constexpr const char* kLabel = "passage";
  static constexpr char kPostingSeparator = '.';  ///< doc `.` sentence
  static constexpr const char* kLookups = kMetricIrPassageLookups;
  static constexpr const char* kLookupsHelp =
      "IR-n passage index searches performed";
  static constexpr const char* kLookupLatency = kMetricIrPassageLookupLatency;
  static constexpr const char* kLookupLatencyHelp =
      "Latency of IR-n passage index searches";
};

/// \brief The segmented core behind both InvertedIndex
/// (`SegmentedIndex<DocSegment>`) and PassageIndex
/// (`SegmentedIndex<PassageSegment>`): memtable, sealed manifest, df table,
/// seals, tiered merges, manifest gauges and the canonical dump are shared;
/// the SearchTopK scorers, the dump's per-document table and the passage
/// kind's sentence table (State) are per kind.
///
/// Document-kind pruning is block-max: per segment, per block of a
/// single-term list and per candidate. Passage-kind pruning is per
/// candidate document: the sum of idf + repeat-bonus upper bounds over the
/// document's matched terms bounds every window score, so documents
/// strictly below the current k-th selected window score are skipped
/// without scoring any window.
template <typename Segment>
class SegmentedIndex {
 public:
  using Builder = typename Segment::Builder;
  using Hit = typename IndexKind<Segment>::Hit;
  using State = typename IndexKind<Segment>::State;

  explicit SegmentedIndex(SegmentedIndexOptions options, State state = {});
  /// Waits for the in-flight background merge (if any) before releasing
  /// the manifest.
  ~SegmentedIndex();

  SegmentedIndex(const SegmentedIndex&) = delete;
  SegmentedIndex& operator=(const SegmentedIndex&) = delete;

  /// Appends one document (writer API): `args` are the kind's
  /// Segment::Builder::Add arguments after the DocId. Seals the memtable
  /// when it reaches `seal_every` documents.
  template <typename... Args>
  void Add(DocId doc, const Args&... args) {
    memtable_.Add(doc, args..., &df_);
    ++total_docs_;
    if (options_.seal_every > 0 &&
        memtable_.doc_count() >= options_.seal_every) {
      SealMemtable();
    }
  }

  /// Bulk build: splits documents [0, n) into contiguous shards (one per
  /// worker of `pool`, one without a pool), fills shard builders with
  /// `add(&builder, i)` concurrently on `pool`, and appends one sealed
  /// segment per shard in shard order (sealing in parallel too) —
  /// byte-identical to n serial Adds.
  void AddBatch(size_t n, ThreadPool* pool,
                const std::function<void(Builder*, size_t)>& add);

  /// Seals the current memtable (no-op when empty or seal_every == 0).
  void SealMemtable();

  /// Exact top-`k` hits for the resolved query terms, best first. `ids`
  /// must be in sorted-unique term order (ir/term_pipeline Resolve*Query)
  /// — score accumulation order is part of the byte-identity contract.
  /// Documents: score desc, DocId asc. Passages: windows of
  /// `State::window` sentences, overlapping windows of one document
  /// deduplicated, score desc, DocId asc, first sentence asc.
  std::vector<Hit> SearchTopK(const std::vector<TermId>& ids,
                              size_t k) const;

  /// Documents appended (a re-added DocId counts again).
  size_t document_count() const { return total_docs_; }
  size_t term_count() const { return df_.size(); }
  /// Documents containing the term, across all segments and the memtable.
  size_t DocFreq(TermId term) const;

  /// Canonical dump, byte-identical to the monolithic index's for the same
  /// insertion order: postings per term (TermId order, refs in insertion
  /// order) then the per-document table (lengths / sentence counts).
  std::string DebugString(const TermDictionary& dict) const;

  size_t sealed_segment_count() const;
  /// Compressed postings bytes across sealed segments.
  size_t postings_bytes() const;
  /// Blocks until no merge is in flight (scheduled or running).
  void WaitForMerges() const;

  const State& state() const { return state_; }
  /// Writer API, under the same external exclusion as Add.
  State* mutable_state() { return &state_; }

  /// Attaches the `dwqa_index_*` instruments under the label
  /// {index=IndexKind::kLabel}; null turns instrumentation off. Each
  /// family is registered with one help text whichever kind comes first,
  /// and a kind registers only the pruning counters it feeds.
  void set_metrics(MetricRegistry* metrics);
  /// Trace sink for `index.seal` / inline `index.merge` spans (null off).
  /// Background merges are never traced: TraceRecorder parents spans off
  /// one serial stack.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

 private:
  struct Instruments {
    Counter* seals = nullptr;
    Counter* merges = nullptr;
    Histogram* merge_latency = nullptr;
    Gauge* segments = nullptr;
    Gauge* postings_bytes = nullptr;
    Counter* pruned_segments = nullptr;
    Counter* pruned_candidates = nullptr;
    Counter* pruned_blocks = nullptr;   ///< Document kind only.
    Counter* pruned_windows = nullptr;  ///< Passage kind only.
  };

  struct QueryTerm {
    TermId id;
    double idf;
  };

  /// The query terms the index holds, in `ids` order, each with its
  /// idf = log((n_docs + 1) / df).
  std::vector<QueryTerm> WeighQuery(const std::vector<TermId>& ids,
                                    double n_docs) const;
  /// The sealed manifest at this instant. Segments are immutable, so a
  /// merge swapping the manifest later cannot invalidate the copy.
  std::vector<std::shared_ptr<const Segment>> SnapshotSealed() const;
  void AppendSealed(std::shared_ptr<const Segment> segment);
  /// Starts (and, without a pool, runs) merges until the manifest is at or
  /// below the trigger. Requires `lock` held on mu_.
  void StartMergesLocked(std::unique_lock<std::mutex>* lock);
  void RunMerge(std::shared_ptr<const Segment> left,
                std::shared_ptr<const Segment> right);
  void UpdateManifestGaugesLocked();

  SegmentedIndexOptions options_;
  State state_;
  /// Mutable memtable (writer-owned; merges never touch it).
  Builder memtable_;
  /// Sealed manifest in document order; guarded by mu_ (readers snapshot
  /// it, the merge swaps adjacent entries in place).
  std::vector<std::shared_ptr<const Segment>> sealed_;
  size_t sealed_bytes_ = 0;
  /// Global per-term document frequency and document total — maintained
  /// incrementally at Add time, invariant under seal/merge.
  DocFreqTable df_;
  size_t total_docs_ = 0;

  mutable std::mutex mu_;
  mutable std::condition_variable merge_cv_;
  bool merge_inflight_ = false;

  Instruments metrics_;
  TraceRecorder* trace_ = nullptr;
};

template <>
std::vector<DocHit> SegmentedIndex<DocSegment>::SearchTopK(
    const std::vector<TermId>& ids, size_t k) const;
template <>
std::vector<Passage> SegmentedIndex<PassageSegment>::SearchTopK(
    const std::vector<TermId>& ids, size_t k) const;

/// \brief The surface InvertedIndex and PassageIndex share: the term
/// dictionary (owned, or borrowed from an AnalyzedCorpus), the segmented
/// core, the per-kind lookup instruments, and the layout and maintenance
/// hooks. The core is pinned behind a pointer, so a façade is movable
/// (IndexCorpus replaces its index wholesale) and cached references into
/// it survive the move.
template <typename Segment>
class IndexFacade {
 public:
  using Core = SegmentedIndex<Segment>;

  /// Canonical dump of the whole index — every postings list (with term
  /// strings, in TermId order, refs in insertion order) and the
  /// per-document table. Two builds that produce identical dumps are
  /// observationally identical; the golden-equivalence suites compare
  /// these byte for byte across segment layouts and build modes.
  std::string DebugString() const { return core_->DebugString(*dict_); }

  /// Seals the current memtable into a segment (test/ingest hook).
  void SealMemtable() { core_->SealMemtable(); }
  size_t sealed_segment_count() const {
    return core_->sealed_segment_count();
  }
  /// Compressed postings bytes across sealed segments.
  size_t postings_bytes() const { return core_->postings_bytes(); }
  /// Blocks until no background merge is scheduled or running.
  void WaitForMerges() const { core_->WaitForMerges(); }

  /// Attaches a metrics registry (may be null): every Search records the
  /// kind's `dwqa_ir_{doc,passage}_lookups_total` counter and
  /// `dwqa_ir_{doc,passage}_lookup_latency_ms` histogram, and the core
  /// feeds the `dwqa_index_*` families under {index=kind}. The instruments
  /// are resolved here once, so concurrent searchers record lock-free.
  void set_metrics(MetricRegistry* metrics) {
    using Kind = IndexKind<Segment>;
    core_->set_metrics(metrics);
    lookup_counter_ = nullptr;
    lookup_latency_ = nullptr;
    if (metrics == nullptr) return;
    lookup_counter_ =
        metrics->GetCounter(Kind::kLookups, {}, Kind::kLookupsHelp);
    lookup_latency_ = metrics->GetHistogram(
        Kind::kLookupLatency, {}, MetricRegistry::LatencyBucketsMs(),
        Kind::kLookupLatencyHelp);
  }

  /// Trace sink for `index.seal` / inline `index.merge` spans (null off).
  void set_trace(TraceRecorder* trace) { core_->set_trace(trace); }

 protected:
  /// Borrows `dict` (must outlive the index); a null `dict` gives the
  /// index a private dictionary.
  IndexFacade(TermDictionary* dict, std::unique_ptr<Core> core)
      : owned_(dict == nullptr ? std::make_unique<TermDictionary>()
                               : nullptr),
        dict_(dict == nullptr ? owned_.get() : dict),
        core_(std::move(core)) {}

  /// One recorded search: `resolve` turns the query into sorted-unique
  /// term ids over the dictionary (ir/term_pipeline).
  std::vector<typename Core::Hit> Lookup(
      const std::string& query, size_t k,
      std::vector<TermId> (*resolve)(const std::string&,
                                     const TermDictionary&)) const {
    ScopedLatencyTimer timer(lookup_latency_);
    if (lookup_counter_ != nullptr) lookup_counter_->Increment();
    return core_->SearchTopK(resolve(query, *dict_), k);
  }

  std::unique_ptr<TermDictionary> owned_;  ///< Null when dict_ is shared.
  TermDictionary* dict_;
  std::unique_ptr<Core> core_;
  Counter* lookup_counter_ = nullptr;
  Histogram* lookup_latency_ = nullptr;
};

}  // namespace ir
}  // namespace dwqa

#endif  // DWQA_IR_SEGMENTED_INDEX_H_
