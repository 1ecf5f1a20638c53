// Behavioural suite of the LSM-style segmented index core, driven through
// the InvertedIndex/PassageIndex façades: byte-identical results for every
// segment layout (the golden-equivalence contract), pinned tie-breaks,
// adversarial segment shapes, and searches racing background merges. The
// target carries the `index` ctest label so scripts/check.sh can rerun it
// under ASan/UBSan and ci.yml under TSan.

#include <gtest/gtest.h>

#include <future>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "ir/inverted_index.h"
#include "ir/passage_index.h"
#include "ir/segmented_index.h"
#include "text/analyzed_corpus.h"

namespace dwqa {
namespace ir {
namespace {

/// Full-fidelity rendering of document hits: any drift across segment
/// layouts must show up as a string diff, down to the last score bit.
std::string Serialize(const std::vector<DocHit>& hits) {
  std::ostringstream out;
  out.precision(17);
  for (const DocHit& h : hits) {
    out << h.doc << "|" << h.score << "|" << h.matched_terms << "\n";
  }
  return out.str();
}

std::string Serialize(const std::vector<Passage>& passages) {
  std::ostringstream out;
  out.precision(17);
  for (const Passage& p : passages) {
    out << p.doc << "|" << p.first_sentence << "|" << p.last_sentence << "|"
        << p.score << "|" << p.text << "\n";
  }
  return out.str();
}

/// A small deterministic corpus with term overlap, repeats, stopword-only
/// documents and multi-sentence texts.
std::vector<std::string> Corpus(size_t docs) {
  std::vector<std::string> out;
  for (size_t i = 0; i < docs; ++i) {
    std::ostringstream text;
    text << "Document " << i << " about weather. ";
    if (i % 2 == 0) text << "Barcelona temperature is mild. ";
    if (i % 3 == 0) text << "Madrid summers are hot and dry. ";
    if (i % 5 == 0) text << "Weather weather weather everywhere. ";
    if (i % 7 == 0) text << "The the of of and and. ";  // Stopwords only.
    text << "Topic t" << i % 11 << " appears here.";
    out.push_back(text.str());
  }
  return out;
}

const char* const kQueries[] = {
    "Barcelona weather",       "Madrid summers temperature",
    "weather",                 "topic t3",
    "mild temperature dry",    "nothing matches this query zz",
};

/// Per-kind glue: construction and the `index` label of the core.
template <typename Index>
struct KindOf;

template <>
struct KindOf<InvertedIndex> {
  static constexpr const char* kLabel = "doc";
  static InvertedIndex Make(const SegmentedIndexOptions& options) {
    return InvertedIndex(options);
  }
  static InvertedIndex Make(TermDictionary* dict,
                            const SegmentedIndexOptions& options) {
    return InvertedIndex(dict, options);
  }
};

template <>
struct KindOf<PassageIndex> {
  static constexpr const char* kLabel = "passage";
  static PassageIndex Make(const SegmentedIndexOptions& options) {
    return PassageIndex(/*window=*/2, options);
  }
  static PassageIndex Make(TermDictionary* dict,
                           const SegmentedIndexOptions& options) {
    return PassageIndex(/*window=*/2, dict, options);
  }
};

template <typename Index>
Index BuildIndex(const SegmentedIndexOptions& options, size_t docs) {
  Index index = KindOf<Index>::Make(options);
  std::vector<std::string> corpus = Corpus(docs);
  for (size_t i = 0; i < corpus.size(); ++i) {
    index.AddDocument(DocId(i), corpus[i]);
  }
  return index;
}

SegmentedIndexOptions Monolithic() {
  SegmentedIndexOptions options;
  options.seal_every = 0;  // Pure memtable — the old monolithic index.
  return options;
}

TEST(SegmentedDocIndexTest, EveryLayoutMatchesTheMonolithicIndex) {
  const size_t kDocs = 40;
  InvertedIndex golden = BuildIndex<InvertedIndex>(Monolithic(), kDocs);
  EXPECT_EQ(golden.sealed_segment_count(), 0u);

  std::vector<SegmentedIndexOptions> layouts(3);
  layouts[0].seal_every = 1;  // One segment per document.
  layouts[1].seal_every = 7;  // Sealed segments plus a memtable tail.
  layouts[2].seal_every = 4;
  layouts[2].merge_trigger = 2;  // Aggressive inline merging.
  layouts[2].block_postings = 2;
  for (const SegmentedIndexOptions& options : layouts) {
    InvertedIndex segmented = BuildIndex<InvertedIndex>(options, kDocs);
    EXPECT_EQ(segmented.DebugString(), golden.DebugString());
    EXPECT_EQ(segmented.document_count(), golden.document_count());
    for (const char* query : kQueries) {
      EXPECT_EQ(Serialize(segmented.Search(query, 10)),
                Serialize(golden.Search(query, 10)))
          << "query: " << query << " seal_every=" << options.seal_every;
    }
  }
}

TEST(SegmentedPassageIndexTest, EveryLayoutMatchesTheMonolithicIndex) {
  const size_t kDocs = 40;
  PassageIndex golden = BuildIndex<PassageIndex>(Monolithic(), kDocs);
  std::vector<SegmentedIndexOptions> layouts(3);
  layouts[0].seal_every = 1;
  layouts[1].seal_every = 7;
  layouts[2].seal_every = 4;
  layouts[2].merge_trigger = 2;
  layouts[2].block_postings = 2;
  for (const SegmentedIndexOptions& options : layouts) {
    PassageIndex segmented = BuildIndex<PassageIndex>(options, kDocs);
    EXPECT_EQ(segmented.DebugString(), golden.DebugString());
    for (const char* query : kQueries) {
      EXPECT_EQ(Serialize(segmented.Search(query, 5)),
                Serialize(golden.Search(query, 5)))
          << "query: " << query << " seal_every=" << options.seal_every;
    }
  }
}

TEST(SegmentedDocIndexTest, TieBreaksArePinnedAcrossLayouts) {
  // Identical documents score identically; the contract is ascending DocId
  // among equals, independent of how documents are spread over segments.
  for (size_t seal_every : {size_t(0), size_t(1), size_t(3)}) {
    SegmentedIndexOptions options;
    options.seal_every = seal_every;
    options.merge_trigger = 2;
    InvertedIndex index(options);
    for (DocId d = 0; d < 9; ++d) {
      index.AddDocument(d, "identical tie content here");
    }
    std::vector<DocHit> hits = index.Search("identical content", 9);
    ASSERT_EQ(hits.size(), 9u);
    for (DocId d = 0; d < 9; ++d) {
      EXPECT_EQ(hits[size_t(d)].doc, d) << "seal_every=" << seal_every;
      EXPECT_DOUBLE_EQ(hits[size_t(d)].score, hits[0].score);
    }
  }
}

TEST(SegmentedPassageIndexTest, TieBreaksArePinnedAcrossLayouts) {
  // Equal-score windows order by (DocId asc, first sentence asc) in every
  // layout — byte-identical serialization ties the contract down.
  std::string golden;
  for (size_t seal_every : {size_t(0), size_t(1), size_t(3)}) {
    SegmentedIndexOptions options;
    options.seal_every = seal_every;
    options.merge_trigger = 2;
    PassageIndex index(/*window=*/1, options);
    for (DocId d = 0; d < 6; ++d) {
      index.AddDocument(d, "Equal window. Equal window. Equal window.");
    }
    std::string serialized = Serialize(index.Search("equal window", 6));
    if (golden.empty()) {
      golden = serialized;
      std::vector<Passage> hits = index.Search("equal window", 6);
      ASSERT_EQ(hits.size(), 6u);
      for (size_t i = 1; i < hits.size(); ++i) {
        EXPECT_DOUBLE_EQ(hits[i].score, hits[0].score);
        EXPECT_TRUE(hits[i - 1].doc < hits[i].doc ||
                    (hits[i - 1].doc == hits[i].doc &&
                     hits[i - 1].first_sentence < hits[i].first_sentence));
      }
    } else {
      EXPECT_EQ(serialized, golden) << "seal_every=" << seal_every;
    }
  }
}

TEST(SegmentedPassageIndexTest, SentencesSurviveSealsAndMerges) {
  SegmentedIndexOptions options;
  options.seal_every = 1;
  options.merge_trigger = 2;
  PassageIndex index(/*window=*/2, options);
  index.AddDocument(0, "Keep this reference. Second sentence.");
  const std::vector<std::string>& sentences = index.Sentences(0);
  ASSERT_EQ(sentences.size(), 2u);
  const std::string* first = &sentences[0];
  // Every further add seals a segment and triggers merges; the reference
  // handed out above must stay valid and unchanged.
  for (DocId d = 1; d <= 8; ++d) {
    index.AddDocument(d, "Filler document number. With two sentences.");
  }
  EXPECT_EQ(&index.Sentences(0)[0], first);
  EXPECT_EQ(*first, "Keep this reference.");
}

TEST(SegmentedDocIndexTest, SearchesRacingBackgroundMergesStayGolden) {
  const size_t kDocs = 60;
  InvertedIndex golden = BuildIndex<InvertedIndex>(Monolithic(), kDocs);
  std::string expected[6];
  for (size_t q = 0; q < 6; ++q) {
    expected[q] = Serialize(golden.Search(kQueries[q], 10));
  }

  ThreadPool merge_pool(2);
  SegmentedIndexOptions options;
  options.seal_every = 2;
  options.merge_trigger = 2;
  options.merge_pool = &merge_pool;
  InvertedIndex index = BuildIndex<InvertedIndex>(options, kDocs);
  // Writers are done; merges are (likely) still running. Query from many
  // threads without waiting — results must already be golden, and TSan
  // must see no races between the readers and the merge thread.
  ThreadPool query_pool(4);
  std::vector<std::future<std::string>> results;
  for (int round = 0; round < 4; ++round) {
    for (size_t q = 0; q < 6; ++q) {
      results.push_back(query_pool.Submit([&index, q] {
        return Serialize(index.Search(kQueries[q], 10));
      }));
    }
  }
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].get(), expected[i % 6]);
  }
  index.WaitForMerges();
  for (size_t q = 0; q < 6; ++q) {
    EXPECT_EQ(Serialize(index.Search(kQueries[q], 10)), expected[q]);
  }
}

TEST(SegmentedPassageIndexTest, SearchesRacingBackgroundMergesStayGolden) {
  const size_t kDocs = 40;
  PassageIndex golden = BuildIndex<PassageIndex>(Monolithic(), kDocs);
  std::string expected[6];
  for (size_t q = 0; q < 6; ++q) {
    expected[q] = Serialize(golden.Search(kQueries[q], 5));
  }

  ThreadPool merge_pool(2);
  SegmentedIndexOptions options;
  options.seal_every = 2;
  options.merge_trigger = 2;
  options.merge_pool = &merge_pool;
  PassageIndex index = BuildIndex<PassageIndex>(options, kDocs);
  ThreadPool query_pool(4);
  std::vector<std::future<std::string>> results;
  for (int round = 0; round < 4; ++round) {
    for (size_t q = 0; q < 6; ++q) {
      results.push_back(query_pool.Submit([&index, q] {
        return Serialize(index.Search(kQueries[q], 5));
      }));
    }
  }
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].get(), expected[i % 6]);
  }
  index.WaitForMerges();
}

TEST(SegmentedDocIndexTest, PruningFiresAndResultsStayExact) {
  MetricRegistry metrics;
  SegmentedIndexOptions options;
  options.seal_every = 8;
  options.merge_trigger = 64;  // Keep many segments so bounds get used.
  options.block_postings = 4;
  InvertedIndex segmented(options);
  segmented.set_metrics(&metrics);
  InvertedIndex golden(Monolithic());
  std::vector<std::string> corpus = Corpus(120);
  for (size_t i = 0; i < corpus.size(); ++i) {
    segmented.AddDocument(DocId(i), corpus[i]);
    golden.AddDocument(DocId(i), corpus[i]);
  }
  for (const char* query : kQueries) {
    EXPECT_EQ(Serialize(segmented.Search(query, 3)),
              Serialize(golden.Search(query, 3)))
        << query;
  }
  double pruned =
      metrics.Value("dwqa_index_pruned_segments_total", {{"index", "doc"}}) +
      metrics.Value("dwqa_index_pruned_blocks_total", {{"index", "doc"}}) +
      metrics.Value("dwqa_index_pruned_candidates_total",
                    {{"index", "doc"}});
  EXPECT_GT(pruned, 0.0);
  EXPECT_EQ(metrics.Value("dwqa_index_segments", {{"index", "doc"}}),
            double(segmented.sealed_segment_count()));
  EXPECT_EQ(metrics.Value("dwqa_index_postings_bytes", {{"index", "doc"}}),
            double(segmented.postings_bytes()));
}

TEST(SegmentedPassageIndexTest, PruningFiresAndResultsStayExact) {
  MetricRegistry metrics;
  SegmentedIndexOptions options;
  options.seal_every = 8;
  options.merge_trigger = 64;
  PassageIndex segmented(/*window=*/2, options);
  segmented.set_metrics(&metrics);
  PassageIndex golden(/*window=*/2, Monolithic());
  std::vector<std::string> corpus = Corpus(120);
  for (size_t i = 0; i < corpus.size(); ++i) {
    segmented.AddDocument(DocId(i), corpus[i]);
    golden.AddDocument(DocId(i), corpus[i]);
  }
  for (const char* query : kQueries) {
    EXPECT_EQ(Serialize(segmented.Search(query, 3)),
              Serialize(golden.Search(query, 3)))
        << query;
  }
  double pruned =
      metrics.Value("dwqa_index_pruned_segments_total",
                    {{"index", "passage"}}) +
      metrics.Value("dwqa_index_pruned_candidates_total",
                    {{"index", "passage"}});
  EXPECT_GT(pruned, 0.0);
}

// ---------------------------------------------------------------------------
// Typed over both index kinds: the behaviour the shared core owns — seals,
// merges, their spans and counters, the bulk build — must hold for either.
// ---------------------------------------------------------------------------

template <typename Index>
class SegmentedIndexKindTest : public ::testing::Test {};

using IndexKinds = ::testing::Types<InvertedIndex, PassageIndex>;
TYPED_TEST_SUITE(SegmentedIndexKindTest, IndexKinds);

TYPED_TEST(SegmentedIndexKindTest, IncrementalAppendAfterSealIsSearchable) {
  SegmentedIndexOptions options;
  options.seal_every = 2;
  TypeParam index = KindOf<TypeParam>::Make(options);
  index.AddDocument(0, "first batch apple");
  index.AddDocument(1, "first batch banana");  // Seals here.
  EXPECT_EQ(index.sealed_segment_count(), 1u);
  index.AddDocument(2, "late arrival cherry");  // Memtable only.
  auto hits = index.Search("cherry", 3);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc, 2);
  EXPECT_GT(index.postings_bytes(), 0u);
}

TYPED_TEST(SegmentedIndexKindTest, StopwordOnlySegmentIsHarmless) {
  // A sealed segment with documents but zero postings (adversarial shape).
  SegmentedIndexOptions options;
  options.seal_every = 1;
  TypeParam index = KindOf<TypeParam>::Make(options);
  index.AddDocument(0, "the of and but");  // Stopwords only.
  index.AddDocument(1, "real content weather");
  EXPECT_EQ(index.sealed_segment_count(), 2u);
  EXPECT_EQ(index.document_count(), 2u);
  auto hits = index.Search("weather", 2);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc, 1);
  EXPECT_TRUE(index.Search("the of", 2).empty());
}

TYPED_TEST(SegmentedIndexKindTest, BackgroundMergesMatchInlineMerges) {
  const size_t kDocs = 50;
  SegmentedIndexOptions inline_options;
  inline_options.seal_every = 3;
  inline_options.merge_trigger = 2;
  TypeParam inline_merged = BuildIndex<TypeParam>(inline_options, kDocs);

  ThreadPool pool(2);
  SegmentedIndexOptions background = inline_options;
  background.merge_pool = &pool;
  TypeParam background_merged = BuildIndex<TypeParam>(background, kDocs);
  background_merged.WaitForMerges();

  EXPECT_EQ(background_merged.DebugString(), inline_merged.DebugString());
  EXPECT_EQ(background_merged.sealed_segment_count(),
            inline_merged.sealed_segment_count());
  for (const char* query : kQueries) {
    EXPECT_EQ(Serialize(background_merged.Search(query, 10)),
              Serialize(inline_merged.Search(query, 10)))
        << query;
  }
}

TYPED_TEST(SegmentedIndexKindTest, SealAndInlineMergeEmitSpans) {
  TraceRecorder trace;
  SegmentedIndexOptions options;
  options.seal_every = 1;
  options.merge_trigger = 2;  // Inline merges (no pool) are traced.
  TypeParam index = KindOf<TypeParam>::Make(options);
  index.set_trace(&trace);
  for (DocId d = 0; d < 5; ++d) {
    index.AddDocument(d, "span content number " + std::to_string(d));
  }
  size_t seals = 0;
  size_t merges = 0;
  for (const SpanRecord& span : trace.spans()) {
    if (span.name == "index.seal") ++seals;
    if (span.name == "index.merge") ++merges;
  }
  EXPECT_EQ(seals, 5u);
  EXPECT_GT(merges, 0u);
}

TYPED_TEST(SegmentedIndexKindTest, SealCountersTrackSealsAndMerges) {
  MetricRegistry metrics;
  SegmentedIndexOptions options;
  options.seal_every = 1;
  options.merge_trigger = 2;
  TypeParam index = KindOf<TypeParam>::Make(options);
  index.set_metrics(&metrics);
  for (DocId d = 0; d < 6; ++d) {
    index.AddDocument(d, "counter content number " + std::to_string(d));
  }
  const MetricLabels labels = {{"index", KindOf<TypeParam>::kLabel}};
  EXPECT_EQ(metrics.Value("dwqa_index_seals_total", labels), 6.0);
  EXPECT_GT(metrics.Value("dwqa_index_merges_total", labels), 0.0);
  EXPECT_LE(index.sealed_segment_count(), 2u);
}

TYPED_TEST(SegmentedIndexKindTest, AnalyzedBatchMatchesSerialAnalyzedAdds) {
  // The bulk build shards contiguously and seals one segment per shard;
  // with a 4-worker pool, with no pool, sealing or monolithic, it must dump
  // and answer exactly like the serial AddAnalyzed loop.
  text::AnalyzedCorpus corpus;
  std::vector<std::string> texts = Corpus(37);
  std::vector<std::pair<DocId, const text::AnalyzedDocument*>> batch;
  for (size_t i = 0; i < texts.size(); ++i) {
    batch.emplace_back(DocId(i), &corpus.Add(DocId(i), texts[i]));
  }
  ThreadPool pool(4);
  SegmentedIndexOptions sealing;
  sealing.seal_every = 4;
  sealing.merge_trigger = 3;
  for (const SegmentedIndexOptions& options : {Monolithic(), sealing}) {
    TypeParam serial =
        KindOf<TypeParam>::Make(corpus.mutable_dictionary(), options);
    for (const auto& [doc, analysis] : batch) {
      serial.AddAnalyzed(doc, *analysis);
    }
    for (ThreadPool* batch_pool : {&pool, static_cast<ThreadPool*>(nullptr)}) {
      TypeParam bulk =
          KindOf<TypeParam>::Make(corpus.mutable_dictionary(), options);
      bulk.AddAnalyzedBatch(batch, batch_pool);
      EXPECT_EQ(bulk.DebugString(), serial.DebugString())
          << "seal_every=" << options.seal_every
          << " pool=" << (batch_pool != nullptr);
      EXPECT_EQ(bulk.document_count(), serial.document_count());
      for (const char* query : kQueries) {
        EXPECT_EQ(Serialize(bulk.Search(query, 5)),
                  Serialize(serial.Search(query, 5)))
            << query;
      }
    }
  }
}

TEST(SegmentedIndexMetricsTest, OneHelpTextPerFamilyAndNoIdleSeries) {
  // Both kinds on one registry, in either registration order: each
  // dwqa_index_* family exports one HELP line with the same text, and a
  // kind registers only the pruning counter it feeds.
  std::string exports[2];
  for (int order = 0; order < 2; ++order) {
    MetricRegistry metrics;
    InvertedIndex doc_index;
    PassageIndex passage_index;
    if (order == 0) {
      doc_index.set_metrics(&metrics);
      passage_index.set_metrics(&metrics);
    } else {
      passage_index.set_metrics(&metrics);
      doc_index.set_metrics(&metrics);
    }
    exports[order] = metrics.ExportPrometheus();
    const std::string& text = exports[order];
    size_t helps = 0;
    for (size_t at = text.find("# HELP dwqa_index_pruned_candidates_total ");
         at != std::string::npos;
         at = text.find("# HELP dwqa_index_pruned_candidates_total ",
                        at + 1)) {
      ++helps;
    }
    EXPECT_EQ(helps, 1u);
    EXPECT_NE(text.find("dwqa_index_pruned_blocks_total{index=\"doc\"}"),
              std::string::npos);
    EXPECT_NE(
        text.find("dwqa_index_pruned_windows_total{index=\"passage\"}"),
        std::string::npos);
    EXPECT_EQ(text.find("dwqa_index_pruned_blocks_total{index=\"passage\"}"),
              std::string::npos);
    EXPECT_EQ(text.find("dwqa_index_pruned_windows_total{index=\"doc\"}"),
              std::string::npos);
  }
  // Same families, same HELP lines, whichever kind registered first.
  auto help_lines = [](const std::string& text) {
    std::istringstream in(text);
    std::string line;
    std::string out;
    while (std::getline(in, line)) {
      if (line.rfind("# HELP dwqa_index_", 0) == 0) out += line + "\n";
    }
    return out;
  };
  EXPECT_FALSE(help_lines(exports[0]).empty());
  EXPECT_EQ(help_lines(exports[0]), help_lines(exports[1]));
}

}  // namespace
}  // namespace ir
}  // namespace dwqa
