#include "perfbench/layers.h"

#include <sstream>

#include "common/interner.h"
#include "common/metric_names.h"
#include "common/thread_pool.h"
#include "dw/cost_estimator.h"
#include "dw/etl.h"
#include "dw/federation/partner_warehouse.h"
#include "dw/federation/schema_mapping.h"
#include "dw/olap.h"
#include "dw/wal.h"
#include "integration/bi_analysis.h"
#include "integration/last_minute_sales.h"
#include "text/analyzed_corpus.h"

namespace dwqa {
namespace perfbench {

using integration::BiAnalysis;
using integration::LastMinuteSales;

namespace {

/// Copies every dimension member and every fact row of `source` into
/// `target` (same schema), timing each InsertFact into `per_fact_us`.
/// Member ids are row indices, so adding members in source order keeps
/// every fact's surrogate keys valid.
Status CopyContents(const dw::Warehouse& source, dw::Warehouse* target,
                    Samples* per_fact_us) {
  for (const dw::DimensionDef& dim : source.schema().dimensions()) {
    DWQA_ASSIGN_OR_RETURN(const dw::Table* table,
                          source.DimensionTable(dim.name));
    for (size_t row = 0; row < table->row_count(); ++row) {
      std::vector<std::string> path;
      for (size_t col = 0; col < table->column_count(); ++col) {
        dw::Value v = table->Get(row, col);
        path.push_back(v.is_null() ? std::string() : v.ToString());
      }
      while (!path.empty() && path.back().empty()) path.pop_back();
      DWQA_RETURN_NOT_OK(target->AddMember(dim.name, path).status());
    }
  }
  for (const dw::FactDef& fact : source.schema().facts()) {
    DWQA_ASSIGN_OR_RETURN(const dw::Table* table,
                          source.FactTable(fact.name));
    const size_t roles = fact.roles.size();
    std::vector<dw::MemberId> members(roles);
    std::vector<dw::Value> measures(fact.measures.size());
    for (size_t row = 0; row < table->row_count(); ++row) {
      for (size_t r = 0; r < roles; ++r) {
        members[r] = dw::MemberId(table->Get(row, r).as_int());
      }
      for (size_t m = 0; m < measures.size(); ++m) {
        measures[m] = table->Get(row, roles + m);
      }
      Clock::time_point start = Clock::now();
      Status st = target->InsertFact(fact.name, members, measures);
      if (per_fact_us != nullptr) per_fact_us->Add(MsSince(start) * 1000.0);
      DWQA_RETURN_NOT_OK(st);
    }
  }
  return Status::OK();
}

/// Sum of a counter family over the series whose `label` equals `value`
/// (every series when `label` is empty).
double FamilyWhere(const MetricRegistry& registry, const std::string& family,
                   const std::string& label, const std::string& value) {
  double sum = 0.0;
  for (const MetricSnapshot& s : registry.SnapshotFamily(family)) {
    if (!label.empty()) {
      auto it = s.labels.find(label);
      if (it == s.labels.end() || it->second != value) continue;
    }
    sum += s.value;
  }
  return sum;
}

double Share(double part, double whole) {
  return whole <= 0.0 ? 0.0 : part / whole;
}

}  // namespace

Result<dw::Warehouse> StageSales(uint64_t seed, const Date& start,
                                 int days) {
  DWQA_ASSIGN_OR_RETURN(dw::Warehouse wh, LastMinuteSales::MakeWarehouse());
  web::WeatherModel weather(WebSeed(seed));
  DWQA_RETURN_NOT_OK(
      LastMinuteSales::GenerateSales(&wh, weather, start, days, seed)
          .status());
  return wh;
}

Result<dw::Warehouse> LoadSales(const dw::Warehouse& staged,
                                Samples* per_fact_us) {
  DWQA_ASSIGN_OR_RETURN(dw::Warehouse wh,
                        dw::Warehouse::Create(staged.schema()));
  DWQA_RETURN_NOT_OK(CopyContents(staged, &wh, per_fact_us));
  return wh;
}

Result<dw::Warehouse> MakePartner(const Date& start, int days) {
  DWQA_ASSIGN_OR_RETURN(dw::Warehouse partner,
                        dw::fed::PartnerAirline::MakeWarehouse());
  DWQA_RETURN_NOT_OK(
      dw::fed::PartnerAirline::GeneratePartnerSales(&partner, start, days)
          .status());
  DWQA_RETURN_NOT_OK(
      dw::fed::PartnerAirline::GeneratePartnerWeather(&partner, start, days)
          .status());
  return partner;
}

Status ProfileSetup(const TenantView& tenant, LayerProfile* profile) {
  integration::IntegrationPipeline pipeline(tenant.warehouse, tenant.uml,
                                            tenant.pipeline_config);
  Samples& steps = (*profile)["ontology.steps123_ms"];
  Clock::time_point start = Clock::now();
  DWQA_RETURN_NOT_OK(pipeline.RunStep1());
  DWQA_RETURN_NOT_OK(pipeline.RunStep2());
  DWQA_RETURN_NOT_OK(pipeline.RunStep3());
  steps.Add(MsSince(start));
  DWQA_RETURN_NOT_OK(Timed(&(*profile)["qa.step4_ms"], false,
                           [&] { return pipeline.RunStep4(); }));
  DWQA_RETURN_NOT_OK(Timed(&(*profile)["qa.index_corpus_ms"], false,
                           [&] { return pipeline.IndexCorpus(tenant.docs); }));
  // Linguistic analysis of a corpus sample, one document at a time, into a
  // private dictionary.
  TermDictionary dict;
  text::CorpusAnalyzer analyzer(&dict);
  const size_t n = tenant.docs->size();
  const size_t step = n > 200 ? n / 200 : 1;
  Samples& analyze = (*profile)["text.analyze_doc_us"];
  for (size_t i = 0; i < n; i += step) {
    DWQA_ASSIGN_OR_RETURN(std::string plain,
                          pipeline.aliqan()->PlainText(ir::DocId(i)));
    Timed(&analyze, true,
          [&] { return analyzer.AnalyzeDocument(std::move(plain)); });
  }
  return Status::OK();
}

double ProfileAsk(const TenantView& tenant, const std::string& question,
                  double handle_ms, LayerProfile* profile) {
  const qa::AliQAn* engine =
      tenant.server->tenant_pipeline(tenant.tenant)->aliqan();
  Samples ask_ms;
  Result<qa::AnswerSet> answer = Timed(&ask_ms, false, [&] {
    return engine->AskWith(question, nullptr, nullptr);
  });
  Samples analyze_ms, select_ms;
  Result<qa::QuestionAnalysis> analysis = Timed(
      &analyze_ms, false, [&] { return engine->AnalyzeQuestion(question); });
  if (analysis.ok()) {
    Timed(&select_ms, false,
          [&] { return engine->SelectPassages(*analysis).ok(); });
  }
  const double ask = ask_ms.Sum();
  (*profile)["qa.analyze_us"].Add(analyze_ms.Sum() * 1000.0);
  (*profile)["ir.select_passages_us"].Add(select_ms.Sum() * 1000.0);
  (*profile)["qa.extract_us"].Add(
      (ask - analyze_ms.Sum() - select_ms.Sum()) * 1000.0);
  if (handle_ms >= 0.0) {
    (*profile)["serve.ask_overhead_us"].Add((handle_ms - ask) * 1000.0);
  }
  profile->Count("qa.asks", 1);
  if (answer.ok() && answer->degradation == qa::DegradationLevel::kFull) {
    profile->Count("qa.asks_full", 1);
  }
  return ask;
}

void RoundTripSteps::Record(bool cache_hit, LayerProfile* profile) const {
  (*profile)["serve.client_frame_us"].Add(client_ms * 1000.0);
  (*profile)["serve.read_frame_us"].Add(read_ms * 1000.0);
  (*profile)["serve.write_frame_us"].Add(write_ms * 1000.0);
  if (cache_hit) (*profile)["serve.handle_hit_us"].Add(handle_ms * 1000.0);
}

serve::Response RoundTrip(serve::QaServer* server,
                          const serve::Request& request,
                          RoundTripSteps* steps) {
  auto failed = [&request] {
    serve::Response response;
    response.id = request.id;
    response.status = "error";
    return response;
  };
  serve::Framing framing;
  Clock::time_point t0 = Clock::now();
  std::stringstream to_server, to_client;
  Status sent = framing.WriteFrame(to_server, request.Serialize());
  Clock::time_point t1 = Clock::now();
  if (!sent.ok()) return failed();
  Result<std::string> frame = framing.ReadFrame(to_server);
  if (!frame.ok()) return failed();
  Result<serve::Request> parsed = serve::Request::Parse(*frame);
  Clock::time_point t2 = Clock::now();
  if (!parsed.ok()) return failed();
  serve::Response response = server->Handle(*parsed);
  Clock::time_point t3 = Clock::now();
  Status replied = framing.WriteFrame(to_client, response.Serialize());
  Clock::time_point t4 = Clock::now();
  if (!replied.ok()) return failed();
  Result<std::string> reply = framing.ReadFrame(to_client);
  if (!reply.ok()) return failed();
  Result<serve::Response> received = serve::Response::Parse(*reply);
  Clock::time_point t5 = Clock::now();
  if (!received.ok()) return failed();
  if (steps != nullptr) {
    auto ms = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    steps->client_ms = ms(t0, t1) + ms(t4, t5);
    steps->read_ms = ms(t1, t2);
    steps->handle_ms = ms(t2, t3);
    steps->write_ms = ms(t3, t4);
  }
  return std::move(received).ValueOrDie();
}

void ProfileCacheAndAdmission(const TenantView& tenant,
                              const std::string& question,
                              LayerProfile* profile) {
  serve::AnswerCache* cache = tenant.server->tenant_cache(tenant.tenant);
  const std::string key = serve::NormalizeQuestion(question);
  Timed(&(*profile)["serve.cache_get_us"], true, [&] {
    return cache->Get(key, tenant.server->now_tick()).found;
  });
  serve::AdmissionController admission(tenant.server_config.admission);
  Timed(&(*profile)["serve.admit_us"], true, [&] {
    bool ok = admission.Admit(tenant.tenant, 1.0, 1).status.ok();
    if (ok) admission.Release(tenant.tenant, 1.0);
    return ok;
  });
}

void ProfileScrape(const TenantView& tenant, LayerProfile* profile) {
  serve::Request scrape;
  scrape.endpoint = serve::Endpoint::kMetrics;
  Timed(&(*profile)["serve.metrics_scrape_ms"], false,
        [&] { return tenant.server->Handle(scrape).status; });
}

double ProfileBiReads(const TenantView& tenant, bool federated,
                      LayerProfile* profile) {
  const dw::Warehouse& wh = *tenant.warehouse;
  const dw::OlapQuery sales = BiAnalysis::SalesQuery();
  const dw::OlapQuery weather = BiAnalysis::WeatherQuery();
  double reads_ms = 0.0;
  if (tenant.views != nullptr) {
    Samples view_ms;
    Timed(&view_ms, false, [&] {
      for (const dw::OlapQuery* q : {&sales, &weather}) {
        profile->Count("dw.view_reads", 1);
        if (tenant.views->Answer(*q).ok()) profile->Count("dw.view_hits", 1);
      }
    });
    reads_ms = view_ms.Sum();
    (*profile)["dw.view_read_ms"].Add(reads_ms);
  }
  dw::OlapEngine olap(&wh);
  Samples recompute_ms;
  Timed(&recompute_ms, false, [&] {
    return olap.Execute(sales).ok() && olap.Execute(weather).ok();
  });
  (*profile)["dw.recompute_ms"].Add(recompute_ms.Sum());
  if (tenant.views == nullptr) reads_ms = recompute_ms.Sum();
  dw::CostEstimator estimator({1000.0, 1.0});
  Timed(&(*profile)["dw.cost_estimate_us"], true, [&] {
    return BiAnalysis::EstimateCost(wh, estimator).ok();
  });
  Samples bi_ms;
  Timed(&bi_ms, false,
        [&] { return BiAnalysis::SalesVsTemperature(wh).ok(); });
  (*profile)["integration.bi_join_ms"].Add(bi_ms.Sum() - reads_ms);
  if (federated && tenant.federation != nullptr) {
    Timed(&(*profile)["dw.fed.execute_ms"], false, [&] {
      for (const dw::OlapQuery* q : {&sales, &weather}) {
        auto fed = tenant.federation->Execute(*q);
        profile->Count("dw.fed.executes", 1);
        if (fed.ok() && fed->coverage.full()) {
          profile->Count("dw.fed.full", 1);
        }
      }
    });
  }
  return bi_ms.Sum();
}

Status ProbeRemainingLayers(const TenantView& tenant, uint64_t seed, int year,
                            LayerProfile* profile) {
  integration::IntegrationPipeline* pipeline =
      tenant.server->tenant_pipeline(tenant.tenant);
  const WeatherPages unseen = BuildWeatherPages(
      seed, year, {"Madrid", "Paris", "Rome"},
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  std::vector<std::string> feed_questions;
  for (size_t i = 0; i < unseen.questions.size(); i += 6) {
    feed_questions.push_back(unseen.questions[i].question);
  }
  const std::string probe_question = feed_questions.front();

  // Incremental ingest, one page at a time, straight into the pipeline.
  if (!profile->Has("ir.ingest_doc_us")) {
    const MetricRegistry& registry = *pipeline->metrics();
    double seals = registry.FamilySum(kMetricIndexSeals);
    double merges = registry.FamilySum(kMetricIndexMerges);
    for (const ir::Document& page : unseen.pages) {
      tenant.docs->Add(page.url, page.title, page.format, page.raw);
      Result<size_t> ingested =
          Timed(&(*profile)["ir.ingest_doc_us"], true,
                [&] { return pipeline->IngestNewDocuments(); });
      DWQA_RETURN_NOT_OK(ingested.status());
    }
    profile->Count("ir.seals", registry.FamilySum(kMetricIndexSeals) - seals);
    profile->Count("ir.merges",
                   registry.FamilySum(kMetricIndexMerges) - merges);
  }

  // Ask path: live (uncached) asks through Handle, attributed.
  if (!profile->Has("serve.ask_overhead_us")) {
    for (int rep = 0; rep < 3; ++rep) {
      for (const std::string& q : feed_questions) {
        serve::Request ask;
        ask.tenant = tenant.tenant;
        ask.questions = {q};
        ask.no_cache = true;
        Samples handle_ms;
        Timed(&handle_ms, false, [&] { return tenant.server->Handle(ask); });
        ProfileAsk(tenant, q, handle_ms.Sum(), profile);
      }
    }
  }

  // Front end: a cached ask's protocol steps, and metrics scrapes.
  if (!profile->Has("serve.read_frame_us")) {
    serve::Request warm;
    warm.tenant = tenant.tenant;
    warm.questions = {probe_question};
    tenant.server->Handle(warm);
    for (int rep = 0; rep < 300; ++rep) {
      warm.id = uint64_t(rep + 1);
      RoundTripSteps steps;
      serve::Response response = RoundTrip(tenant.server, warm, &steps);
      steps.Record(response.cached, profile);
      ProfileCacheAndAdmission(tenant, probe_question, profile);
    }
  }
  if (!profile->Has("serve.metrics_scrape_ms")) {
    for (int rep = 0; rep < 5; ++rep) ProfileScrape(tenant, profile);
  }

  // Step-5 feed, one question per call.
  if (!profile->Has("integration.feed_question_ms")) {
    for (const std::string& q : feed_questions) {
      Result<integration::FeedReport> fed =
          Timed(&(*profile)["integration.feed_question_ms"], false, [&] {
            return pipeline->RunStep5({q}, "Weather", "temperature");
          });
      DWQA_RETURN_NOT_OK(fed.status());
      profile->Count("integration.facts_extracted",
                     double(fed->facts_extracted));
      profile->Count("integration.rows_loaded", double(fed->rows_loaded));
      Timed(&(*profile)["qa.feed_ask_us"], true, [&] {
        return pipeline->aliqan()->AskWith(q, nullptr, nullptr).ok();
      });
    }
  }

  // WAL appends under the feed's policy (fsync each append) on the
  // in-memory file system.
  if (!profile->Has("dw.wal_append_us")) {
    MemFs fs;
    dw::WalOptions options;
    options.sync_each_append = true;
    DWQA_ASSIGN_OR_RETURN(std::unique_ptr<dw::WalWriter> wal,
                          dw::WalWriter::Open("/wal-probe", options, &fs));
    for (int i = 0; i < 500; ++i) {
      dw::WalFact fact;
      fact.fact_name = "Weather";
      fact.attribute = "temperature";
      fact.value = 10.0 + i % 20;
      fact.unit = "ºC";
      Date day = Date(2004, 1, 1);
      for (int d = 0; d < i % 28; ++d) day = day.NextDay();
      fact.date_iso = day.ToIsoString();
      fact.location = "Barcelona";
      fact.url = "web://weather/barcelona/2004-1.html";
      fact.confidence = 11.25;
      fact.dedup_key = "temperature|barcelona|" + fact.date_iso;
      fact.record.role_paths = {{"Barcelona"},
                                dw::DateMemberPath(day),
                                {fact.url}};
      fact.record.measures = {dw::Value(fact.value)};
      DWQA_RETURN_NOT_OK(Timed(&(*profile)["dw.wal_append_us"], true, [&] {
                           return wal->AppendFact(fact);
                         }).status());
    }
  }

  // Warehouse layers on a copy of the tenant's warehouse.
  DWQA_ASSIGN_OR_RETURN(dw::Warehouse copy,
                        dw::Warehouse::Create(tenant.warehouse->schema()));
  Samples load_us;
  DWQA_RETURN_NOT_OK(CopyContents(*tenant.warehouse, &copy, &load_us));
  if (!profile->Has("dw.load_fact_us")) {
    (*profile)["dw.load_fact_us"].Append(load_us);
  }
  dw::ViewCatalog views;
  DWQA_RETURN_NOT_OK(
      views.DefineAll(dw::DeriveViewsFromSchema(copy.schema())));
  copy.AttachViews(&views);
  Samples bind_ms;
  DWQA_RETURN_NOT_OK(
      Timed(&bind_ms, false, [&] { return views.Bind(copy); }));
  if (!profile->Has("dw.view_bind_ms")) {
    (*profile)["dw.view_bind_ms"].Append(bind_ms);
  }
  if (!profile->Has("dw.insert_maintained_us")) {
    // Re-insert the newest rows of the fed fact (sales when nothing was
    // fed) with the views attached: one maintenance delta per insert.
    DWQA_ASSIGN_OR_RETURN(size_t weather_rows, copy.FactRowCount("Weather"));
    const std::string fact_name =
        weather_rows > 0 ? "Weather" : "LastMinuteSales";
    DWQA_ASSIGN_OR_RETURN(const dw::FactDef* def,
                          copy.schema().FindFact(fact_name));
    DWQA_ASSIGN_OR_RETURN(const dw::Table* table, copy.FactTable(fact_name));
    const size_t rows = table->row_count();
    const size_t n = std::min<size_t>(rows, 500);
    std::vector<std::vector<dw::MemberId>> members(n);
    std::vector<std::vector<dw::Value>> measures(n);
    for (size_t i = 0; i < n; ++i) {
      size_t row = rows - n + i;
      for (size_t r = 0; r < def->roles.size(); ++r) {
        members[i].push_back(dw::MemberId(table->Get(row, r).as_int()));
      }
      for (size_t m = 0; m < def->measures.size(); ++m) {
        measures[i].push_back(table->Get(row, def->roles.size() + m));
      }
    }
    uint64_t before = views.maintenance_updates();
    for (size_t i = 0; i < n; ++i) {
      DWQA_RETURN_NOT_OK(
          Timed(&(*profile)["dw.insert_maintained_us"], true, [&] {
            return copy.InsertFact(fact_name, members[i], measures[i]);
          }));
    }
    profile->Count("dw.maintained_inserts", double(n));
    profile->Count("dw.view_updates",
                   double(views.maintenance_updates() - before));
  }

  DWQA_ASSIGN_OR_RETURN(dw::Warehouse partner,
                        MakePartner(Date(2004, 1, 1), 366));
  dw::fed::SchemaMatcher matcher(
      dw::fed::PartnerAirline::DefaultMatcherOptions());
  Samples match_ms;
  Result<dw::fed::SchemaMapping> mapping = Timed(
      &match_ms, false, [&] { return matcher.Match(copy, partner); });
  DWQA_RETURN_NOT_OK(mapping.status());
  if (!profile->Has("dw.fed.match_ms")) {
    (*profile)["dw.fed.match_ms"].Append(match_ms);
  }
  ThreadPool pool(2);
  dw::fed::FederatedEngine engine(&copy);
  engine.set_pool(&pool);
  DWQA_RETURN_NOT_OK(engine.AddRemote("partner", &partner, *mapping));

  TenantView probe = tenant;
  probe.warehouse = &copy;
  probe.views = &views;
  probe.federation = &engine;
  const bool need_reads = !profile->Has("dw.view_read_ms");
  const bool need_fed = !profile->Has("dw.fed.execute_ms");
  if (need_reads || need_fed) {
    LayerProfile reads;
    for (int rep = 0; rep < 10; ++rep) ProfileBiReads(probe, true, &reads);
    for (const char* name :
         {"dw.view_read_ms", "dw.recompute_ms", "dw.cost_estimate_us",
          "integration.bi_join_ms"}) {
      if (need_reads) (*profile)[name].Append(reads[name]);
    }
    for (const char* name : {"dw.view_reads", "dw.view_hits"}) {
      if (need_reads) profile->Count(name, reads.count(name));
    }
    if (need_fed) {
      (*profile)["dw.fed.execute_ms"].Append(reads["dw.fed.execute_ms"]);
      profile->Count("dw.fed.executes", reads.count("dw.fed.executes"));
      profile->Count("dw.fed.full", reads.count("dw.fed.full"));
    }
  }
  return Status::OK();
}

void EmitLayerMetrics(const TenantView& tenant, const LayerProfile& profile,
                      RunResult* result) {
  auto median = [&](const char* name, const char* unit) {
    result->Add(name, profile.Median(name), unit);
  };
  median("ontology.steps123_ms", "ms");
  median("qa.step4_ms", "ms");
  median("qa.index_corpus_ms", "ms");
  median("text.analyze_doc_us", "us");
  median("dw.load_fact_us", "us");
  median("dw.view_bind_ms", "ms");
  median("dw.fed.match_ms", "ms");

  median("qa.analyze_us", "us");
  median("ir.select_passages_us", "us");
  median("qa.extract_us", "us");
  median("serve.ask_overhead_us", "us");
  const MetricRegistry& qa_registry =
      *tenant.server->tenant_pipeline(tenant.tenant)->metrics();
  double pruned = 0.0;
  for (const char* family :
       {kMetricIndexPrunedSegments, kMetricIndexPrunedBlocks,
        kMetricIndexPrunedCandidates, kMetricIndexPrunedWindows}) {
    pruned += qa_registry.FamilySum(family);
  }
  double lookups = qa_registry.FamilySum(kMetricIrPassageLookups) +
                   qa_registry.FamilySum(kMetricIrDocLookups);
  result->Add("ir.pruned_per_lookup", Share(pruned, lookups), "count");
  result->Add("qa.ladder_full_share",
              Share(profile.count("qa.asks_full"), profile.count("qa.asks")),
              "share");

  median("serve.client_frame_us", "us");
  median("serve.read_frame_us", "us");
  median("serve.handle_hit_us", "us");
  median("serve.write_frame_us", "us");
  median("serve.cache_get_us", "us");
  median("serve.admit_us", "us");
  median("serve.metrics_scrape_ms", "ms");
  const MetricRegistry& serve_registry = *tenant.server->metrics();
  result->Add("serve.cache_hit_share",
              Share(FamilyWhere(serve_registry, kMetricServeCacheLookups,
                                "result", "hit"),
                    FamilyWhere(serve_registry, kMetricServeCacheLookups, "",
                                "")),
              "share");
  result->Add("serve.rejected_share",
              Share(FamilyWhere(serve_registry, kMetricServeRequests,
                                "outcome", "rejected"),
                    FamilyWhere(serve_registry, kMetricServeRequests, "", "")),
              "share");

  median("ir.ingest_doc_us", "us");
  result->Add("ir.seals", profile.count("ir.seals"), "count");
  result->Add("ir.merges", profile.count("ir.merges"), "count");
  median("integration.feed_question_ms", "ms");
  median("qa.feed_ask_us", "us");
  median("dw.wal_append_us", "us");
  median("dw.insert_maintained_us", "us");
  result->Add("dw.view_updates_per_insert",
              Share(profile.count("dw.view_updates"),
                    profile.count("dw.maintained_inserts")),
              "count");
  result->Add("integration.rows_loaded_share",
              Share(profile.count("integration.rows_loaded"),
                    profile.count("integration.facts_extracted")),
              "share");
  median("dw.view_read_ms", "ms");
  result->Add("dw.view_hit_share",
              Share(profile.count("dw.view_hits"),
                    profile.count("dw.view_reads")),
              "share");
  median("integration.bi_join_ms", "ms");
  median("dw.cost_estimate_us", "us");
  median("dw.recompute_ms", "ms");
  median("dw.fed.execute_ms", "ms");
  result->Add("dw.fed.coverage_full_share",
              Share(profile.count("dw.fed.full"),
                    profile.count("dw.fed.executes")),
              "share");
}

}  // namespace perfbench
}  // namespace dwqa
