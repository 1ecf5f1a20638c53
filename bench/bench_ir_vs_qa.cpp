// E7 — Quantifies the paper's three QA-vs-IR differences (§1): IR returns
// whole documents the user must search through; QA returns a precise
// answer; QA pays for deeper analysis with time, mitigated by the IR
// filter.
//
// Systems compared on the same weather questions:
//   IR-doc      — document-level TF-IDF (the classical baseline),
//   IR-passage  — IR-n-style passage retrieval alone,
//   QA          — the full AliQAn pipeline.
// Metrics: answer-in-top-1 (for IR: the answer value occurs somewhere in
// the returned text), precise-tuple@1 (the structured answer is correct —
// only QA can score here), user-effort (sentences the user must read) and
// latency per question.

#include <iostream>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "ir/inverted_index.h"
#include "ontology/enrichment.h"
#include "ontology/wordnet.h"
#include "qa/aliqan.h"
#include "text/sentence_splitter.h"
#include "web/question_factory.h"
#include "web/synthetic_web.h"

using namespace dwqa;

namespace {

/// True if some truth value of the question's month/city appears verbatim
/// in `text` followed by a degree sign — the "user could find it" notion.
bool AnswerStringInText(const web::GoldQuestion& q, const std::string& text) {
  for (const std::string& gold : q.gold) {
    if (text.find(gold + "\xC2\xBA") != std::string::npos) return true;
  }
  return false;
}

}  // namespace

int main() {
  PrintBanner(std::cout, "IR vs QA on weather questions (paper section 1 "
                         "claims)");

  web::WebConfig config;
  config.cities = {"Barcelona", "Madrid", "Paris", "Rome", "London"};
  config.months = {1};
  config.table_weather = false;
  config.noise_pages = 40;
  auto webb = web::SyntheticWeb::Build(config).ValueOrDie();
  auto questions = web::QuestionFactory::WeatherQuestions(webb);

  ontology::Ontology wn = ontology::MiniWordNet::Build();
  qa::AliQAn aliqan(&wn);
  if (!aliqan.IndexCorpus(&webb.documents()).ok()) return 1;
  // The IR-doc baseline's own document-level index, over the same plain
  // text AliQAn analyzed (AliQAn itself retrieves passages only).
  ir::InvertedIndex doc_index;
  for (const ir::Document& doc : webb.documents().documents()) {
    doc_index.AddDocument(doc.id, aliqan.PlainText(doc.id).ValueOrDie());
  }

  struct SystemScore {
    size_t hit = 0;          // Answer somewhere in top-1 result.
    size_t precise = 0;      // Correct structured tuple at rank 1.
    double effort = 0;       // Sentences returned.
    double latency_ms = 0;
  };
  SystemScore ir_doc, ir_passage, qa_sys;

  for (const auto& gq : questions) {
    // --- IR-doc baseline -------------------------------------------------
    {
      bench::Timer timer;
      auto hits = doc_index.Search(gq.question, 1);
      ir_doc.latency_ms += timer.ElapsedMs();
      if (!hits.empty()) {
        std::string text = aliqan.PlainText(hits[0].doc).ValueOrDie();
        ir_doc.hit += AnswerStringInText(gq, text);
        ir_doc.effort += text::SentenceSplitter::Split(text).size();
      }
    }
    // --- IR-passage ------------------------------------------------------
    {
      bench::Timer timer;
      auto analysis = aliqan.AnalyzeQuestion(gq.question).ValueOrDie();
      auto passages = aliqan.SelectPassages(analysis).ValueOrDie();
      ir_passage.latency_ms += timer.ElapsedMs();
      if (!passages.empty()) {
        ir_passage.hit += AnswerStringInText(gq, passages[0].text);
        ir_passage.effort +=
            text::SentenceSplitter::Split(passages[0].text).size();
      }
    }
    // --- Full QA -----------------------------------------------------------
    {
      bench::Timer timer;
      auto answers = aliqan.Ask(gq.question);
      qa_sys.latency_ms += timer.ElapsedMs();
      if (answers.ok() && !answers->empty()) {
        const auto& best = answers->best();
        bool ok = web::QuestionFactory::Matches(gq, best.answer_text,
                                                best.has_value, best.value);
        qa_sys.hit += ok;
        qa_sys.precise += ok;
        qa_sys.effort += 1.0;  // One structured tuple to read.
      }
    }
  }

  size_t n = questions.size();
  TablePrinter table({"system", "answer in top-1", "precise tuple@1",
                      "user effort (sentences)", "latency ms/question"});
  auto row = [&](const char* name, const SystemScore& s, bool structured) {
    table.AddRow({name, bench::Pct(s.hit, n),
                  structured ? bench::Pct(s.precise, n) : "n/a (documents)",
                  FormatDouble(s.effort / double(n), 1),
                  FormatDouble(s.latency_ms / double(n), 3)});
  };
  row("IR (documents)", ir_doc, false);
  row("IR-n (passages)", ir_passage, false);
  row("QA (AliQAn)", qa_sys, true);
  table.Print(std::cout);

  std::cout << "\n[shape check] QA turns the user effort of scanning ~"
            << FormatDouble(ir_doc.effort / double(n), 0)
            << " sentences into one structured tuple, at higher latency;\n"
               "only QA produces machine-processable answers for the DW.\n";
  bool shape_ok = qa_sys.precise * 10 >= n * 8 &&             // QA precise.
                  ir_doc.effort > qa_sys.effort * 10 &&        // Effort gap.
                  qa_sys.latency_ms >= ir_doc.latency_ms;      // QA slower.
  std::cout << (shape_ok ? "[shape check] PASS\n" : "[shape check] FAIL\n");
  return shape_ok ? 0 : 1;
}
