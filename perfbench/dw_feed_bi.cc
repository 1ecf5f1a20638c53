// dw_feed_bi — the paper's loop on one federated tenant. One client
// repeats a cycle: ingest the weather pages of an unseen (city, month),
// feed that month's question through Step 5 into the warehouse (WAL first,
// fsync per append, on the in-memory file system), run the sales-vs-weather
// BI analysis, and every few cycles run it federated with the partner
// airline's warehouse. Writes run beside reads on both stores.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "dw/etl.h"
#include "dw/federation/merge_warehouses.h"
#include "dw/federation/partner_warehouse.h"
#include "dw/federation/schema_mapping.h"
#include "integration/bi_analysis.h"
#include "integration/last_minute_sales.h"
#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "serve/server.h"

namespace dwqa {
namespace perfbench {

namespace {

using integration::LastMinuteSales;

constexpr int kFirstYear = 2000;
/// Sales cover kYears years; the first year's weather is already in the
/// warehouse and its pages in the corpus, the other years' pages arrive
/// one (city, month) per cycle.
constexpr int kYears = 10;
constexpr int kSetupRepeats = 5;
constexpr int kPartnerDays = 366;
constexpr int kFanoutThreads = 2;
/// Every kFedEvery-th cycle also runs the federated analysis.
constexpr size_t kFedEvery = 4;
constexpr size_t kWarmupCycles = 4;
const char* const kTenant = "airline";

/// One cycle's input: the pages of one (city, month) and its question.
struct Cycle {
  std::vector<ir::Document> pages;
  web::GoldQuestion question;
};

/// Set-up output; the server is declared last so it is destroyed first.
struct Deployment {
  std::unique_ptr<ir::DocumentStore> docs;
  std::unique_ptr<dw::Warehouse> warehouse;
  std::unique_ptr<dw::ViewCatalog> views;
  std::unique_ptr<dw::fed::SchemaMapping> mapping;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<dw::fed::FederatedEngine> federation;
  std::unique_ptr<MemFs> fs;
  std::unique_ptr<serve::QaServer> server;
};

/// The set-up times a traced run attributes to the warehouse layers.
struct SetupTimes {
  Samples load_fact_us, bind_ms, match_ms;
};

/// The server's rendering of a BI report (fields and ranges payload), for
/// the byte comparison against the merged-warehouse oracle.
std::string RenderBi(const integration::BiReport& report) {
  std::string out;
  out += "joined_days=" + std::to_string(report.joined_days) + "\n";
  out += "correlation=" +
         FormatDouble(report.pearson_temperature_tickets, 4) + "\n";
  out += "best_low_c=" + FormatDouble(report.best.low_c, 1) + "\n";
  out += "best_high_c=" + FormatDouble(report.best.high_c, 1) + "\n";
  out += "best_avg_tickets=" + FormatDouble(report.best.avg_tickets, 2) + "\n";
  out += "best_observations=" + std::to_string(report.best.observations) +
         "\n";
  for (const auto& range : report.ranges) {
    out += "[" + FormatDouble(range.low_c, 1) + ", " +
           FormatDouble(range.high_c, 1) +
           ") avg_tickets=" + FormatDouble(range.avg_tickets, 2) +
           " observations=" + std::to_string(range.observations) + "\n";
  }
  return out;
}

std::string RenderBi(const serve::Response& response) {
  std::string out;
  for (const char* field : {"joined_days", "correlation", "best_low_c",
                            "best_high_c", "best_avg_tickets",
                            "best_observations"}) {
    out += std::string(field) + "=" + response.AnswerField(field) + "\n";
  }
  return out + response.payload;
}

/// Ranges with fewer city-days than this are too thin to compare: New
/// York's two airports sum into one city-day, so a handful of cold New York
/// days can average as many tickets as the planted boost.
constexpr size_t kSupportedRange = 30;

/// One "[low, high) avg_tickets=… observations=…" line of a BI payload.
struct RangeLine {
  double low = 0.0, high = 0.0, avg = 0.0;
  size_t observations = 0;
};

std::vector<RangeLine> ParseRanges(const std::string& payload) {
  std::vector<RangeLine> ranges;
  for (const std::string& line : Split(payload, '\n')) {
    RangeLine r;
    if (std::sscanf(line.c_str(), "[%lf, %lf) avg_tickets=%lf observations=%zu",
                    &r.low, &r.high, &r.avg, &r.observations) == 4) {
      ranges.push_back(r);
    }
  }
  return ranges;
}

bool InsidePlanted(double low, double high) {
  return low >= LastMinuteSales::kBoostLowC &&
         high <= LastMinuteSales::kBoostHighC;
}

/// The planted boost is recovered: of the well-supported ranges the BI
/// report lists, the one with the most tickets per city-day lies inside
/// [18, 28) °C.
bool PlantedRangeRecovered(const serve::Response& response) {
  const RangeLine* best = nullptr;
  std::vector<RangeLine> ranges = ParseRanges(response.payload);
  for (const RangeLine& r : ranges) {
    if (r.observations < kSupportedRange) continue;
    if (best == nullptr || r.avg > best->avg) best = &r;
  }
  return response.status == "ok" && best != nullptr &&
         InsidePlanted(best->low, best->high);
}

/// Adds the first year's published weather to the staged warehouse, as
/// rows an earlier feed loaded (benchmark input).
Status StageWeather(const web::GroundTruth& truth, dw::Warehouse* wh) {
  dw::EtlLoader loader(wh);
  for (const auto& [key, celsius] : truth.temperature) {
    DWQA_ASSIGN_OR_RETURN(Date day, Date::FromIsoString(key.second));
    auto climate = web::WeatherModel::FindCity(key.first);
    const std::string city = climate.ok() ? (*climate)->name : key.first;
    dw::FactRecord record;
    record.role_paths = {{city},
                         dw::DateMemberPath(day),
                         {"web://archive/" + key.first + "/" + key.second}};
    record.measures = {dw::Value(celsius)};
    DWQA_RETURN_NOT_OK(loader.LoadRecord("Weather", record));
  }
  return Status::OK();
}

/// The held-back (city, month) cycles of every year after the first, in a
/// seed-shuffled order; their published temperatures go into `truth`.
std::vector<Cycle> BuildCycles(uint64_t seed, web::GroundTruth* truth) {
  std::vector<Cycle> cycles;
  for (int year = kFirstYear + 1; year < kFirstYear + kYears; ++year) {
    WeatherPages pages = BuildWeatherPages(seed, year, {},
                                           {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                            12});
    truth->temperature.insert(pages.truth.temperature.begin(),
                              pages.truth.temperature.end());
    std::map<std::string, Cycle> by_month;
    for (const web::GoldQuestion& q : pages.questions) {
      by_month[q.question].question = q;
    }
    for (const ir::Document& doc : pages.pages) {
      // ".../<city-slug>/<year>-<month>.html" — one prose and one table
      // page per (city, month).
      std::string tail = doc.url.substr(doc.url.find('/', 6) + 1);
      std::string slug = tail.substr(0, tail.find('/'));
      int month =
          std::atoi(tail.substr(tail.find('-', slug.size()) + 1).c_str());
      for (auto& [question, cycle] : by_month) {
        std::string city = ReplaceAll(ToLower(question.substr(
                                          27, question.find(" in ", 27) - 27)),
                                      " ", "-");
        if (city == slug &&
            question.find(" in " + Date(year, month, 1).MonthName() + " of ") !=
                std::string::npos) {
          cycle.pages.push_back(doc);
        }
      }
    }
    for (auto& [question, cycle] : by_month) cycles.push_back(cycle);
  }
  Shuffle(&cycles, seed);
  return cycles;
}

/// The untimed part of a set-up: a fresh corpus copy, file system and
/// server.
Deployment Prepare(const MultiYearWeb& corpus,
                   const serve::ServerConfig& server_config) {
  Deployment d;
  d.docs = std::make_unique<ir::DocumentStore>();
  CopyDocuments(corpus, d.docs.get());
  d.fs = std::make_unique<MemFs>();
  d.server = std::make_unique<serve::QaServer>(server_config);
  return d;
}

/// The program's set-up calls: load, bind, match, register. Times the
/// warehouse ones for the traced run.
Status Deploy(const dw::Warehouse& staged, const dw::Warehouse& partner,
              const ontology::UmlModel& uml, Deployment* out,
              SetupTimes* times) {
  Deployment& d = *out;
  DWQA_ASSIGN_OR_RETURN(dw::Warehouse loaded,
                        LoadSales(staged, &times->load_fact_us));
  d.warehouse = std::make_unique<dw::Warehouse>(std::move(loaded));
  d.views = std::make_unique<dw::ViewCatalog>();
  DWQA_RETURN_NOT_OK(d.views->DefineAll(
      dw::DeriveViewsFromSchema(d.warehouse->schema())));
  d.warehouse->AttachViews(d.views.get());
  DWQA_RETURN_NOT_OK(Timed(&times->bind_ms, false,
                           [&] { return d.views->Bind(*d.warehouse); }));
  dw::fed::SchemaMatcher matcher(
      dw::fed::PartnerAirline::DefaultMatcherOptions());
  DWQA_ASSIGN_OR_RETURN(dw::fed::SchemaMapping mapping,
                        Timed(&times->match_ms, false, [&] {
                          return matcher.Match(*d.warehouse, partner);
                        }));
  d.mapping = std::make_unique<dw::fed::SchemaMapping>(std::move(mapping));
  d.pool = std::make_unique<ThreadPool>(kFanoutThreads);
  d.federation = std::make_unique<dw::fed::FederatedEngine>(d.warehouse.get());
  d.federation->set_pool(d.pool.get());
  DWQA_RETURN_NOT_OK(
      d.federation->AddRemote("partner", &partner, *d.mapping));

  serve::ServeTenantConfig config;
  config.name = kTenant;
  config.warehouse = d.warehouse.get();
  config.uml = &uml;
  config.docs = d.docs.get();
  config.ingest_docs = d.docs.get();
  config.federation = d.federation.get();
  config.pipeline = LastMinuteSales::DefaultPipelineConfig();
  config.pipeline.resilience.durability.dir = "/wal";
  config.pipeline.resilience.durability.sync_each_append = true;
  config.pipeline.resilience.durability.fs = d.fs.get();
  return d.server->AddTenant(config);
}

/// Per-endpoint client-side latencies of the timed phase.
struct Endpoints {
  Samples ingest, feed, bi, fed_bi, cycle;
  double facts_loaded = 0.0;
  double feed_ms = 0.0;
};

}  // namespace

RunResult RunDwFeedBi(const Options& options) {
  RunResult result;
  // Inputs, untimed: staged sales over every year plus the first year's
  // weather, the first year's corpus, the partner warehouse, the cycles.
  const MultiYearWeb corpus = BuildMultiYearWeb(options.seed, kFirstYear, 1);
  const int sales_days =
      int(Date(kFirstYear + kYears, 1, 1).ToEpochDays() -
          Date(kFirstYear, 1, 1).ToEpochDays());
  auto staged = StageSales(options.seed, Date(kFirstYear, 1, 1), sales_days);
  Status st = staged.status();
  if (st.ok()) st = StageWeather(corpus.truth, &*staged);
  auto partner = MakePartner(Date(kFirstYear + 1, 1, 1), kPartnerDays);
  if (st.ok()) st = partner.status();
  if (!st.ok()) {
    result.Mismatch("input staging failed: " + st.ToString());
    return result;
  }
  web::GroundTruth truth = corpus.truth;
  const std::vector<Cycle> cycles = BuildCycles(options.seed, &truth);
  const ontology::UmlModel uml = LastMinuteSales::MakeUmlModel();
  serve::ServerConfig server_config;

  Deployment d;
  SetupTimes setup_times;
  SetupClock setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    d = Deployment();  // Frees the previous set-up before the next one.
    d = Prepare(corpus, server_config);
    st = setup.Time(
        [&] { return Deploy(*staged, *partner, uml, &d, &setup_times); });
    if (!st.ok()) {
      result.Mismatch("set-up failed: " + st.ToString());
      return result;
    }
  }
  serve::QaServer* server = d.server.get();
  result.context.push_back(
      "tenant: sales_facts=" +
      std::to_string(*staged->FactRowCount("LastMinuteSales")) +
      " weather_facts=" +
      std::to_string(*d.warehouse->FactRowCount("Weather")) +
      " documents=" + std::to_string(d.docs->size()) +
      " views=" + std::to_string(d.views->view_count()) +
      " cycles_available=" + std::to_string(cycles.size()));

  TenantView view;
  view.server = server;
  view.tenant = kTenant;
  view.warehouse = d.warehouse.get();
  view.uml = &uml;
  view.docs = d.docs.get();
  view.pipeline_config = LastMinuteSales::DefaultPipelineConfig();
  view.server_config = server_config;
  view.views = d.views.get();
  view.federation = d.federation.get();

  uint64_t next_id = 1;
  auto request = [&](serve::Endpoint endpoint) {
    serve::Request r;
    r.id = next_id++;
    r.tenant = kTenant;
    r.endpoint = endpoint;
    return r;
  };
  // Set for the timed phase only.
  PhaseClock* clock = nullptr;
  auto timed = [&](const serve::Request& r, Samples* latency) {
    Clock::time_point start = Clock::now();
    serve::Response response = server->Handle(r);
    if (latency != nullptr) latency->Add(MsSince(start));
    if (clock != nullptr) clock->Completed();
    ++result.attempted;
    if (response.status != "ok") ++result.failed;
    return response;
  };

  // One cycle; returns false when the cycles ran out.
  LayerProfile profile;
  double feed_ask_ms = 0.0;
  size_t next_cycle = 0, cycle_count = 0, thin_best = 0;
  auto run_cycle = [&](Endpoints* e, bool tracing) {
    if (next_cycle >= cycles.size()) return false;
    const Cycle& cycle = cycles[next_cycle++];
    Clock::time_point start = Clock::now();
    for (const ir::Document& page : cycle.pages) {
      serve::Request ingest = request(serve::Endpoint::kIngest);
      ingest.doc_url = page.url;
      ingest.doc_title = page.title;
      ingest.doc_format = "html";
      ingest.doc_content = page.raw;
      serve::Response r = timed(ingest, e ? &e->ingest : nullptr);
      if (r.AnswerField("ingested") != "1") {
        result.Mismatch("ingest of " + page.url + " returned " + r.status);
      }
    }
    serve::Request feed = request(serve::Endpoint::kFeed);
    feed.questions = {cycle.question.question};
    Samples feed_ms;
    serve::Response fed = timed(feed, &feed_ms);
    if (e != nullptr) e->feed.Append(feed_ms);
    if (clock != nullptr && !tracing) clock->Latency(feed_ms.Sum());
    const double rows = std::atof(fed.AnswerField("rows_loaded").c_str());
    const double facts =
        std::atof(fed.AnswerField("facts_extracted").c_str());
    // Every extracted fact is loaded, deduplicated (already fed from an
    // earlier page) or quarantined — never lost.
    const double settled =
        rows + std::atof(fed.AnswerField("rows_deduplicated").c_str()) +
        std::atof(fed.AnswerField("rows_quarantined").c_str());
    if (fed.AnswerField("questions_answered") != "1" || facts < 1.0 ||
        settled != facts) {
      result.Mismatch("feed of '" + cycle.question.question + "':\n" +
                      fed.Serialize());
    }
    if (tracing) {
      profile["integration.feed_question_ms"].Append(feed_ms);
      profile.Count("integration.rows_loaded", rows);
      profile.Count("integration.facts_extracted", facts);
      const double ask_ms =
          ProfileAsk(view, cycle.question.question, -1.0, &profile);
      feed_ask_ms += ask_ms;
      profile["qa.feed_ask_us"].Add(ask_ms * 1000.0);
    }
    serve::Response bi = timed(request(serve::Endpoint::kBi),
                               e ? &e->bi : nullptr);
    if (!PlantedRangeRecovered(bi)) {
      result.Mismatch("bi misses the planted interval (" + bi.status +
                      ")\n" + bi.payload);
    }
    // The report's own best_* field also admits thin ranges (3 city-days);
    // how often that lands outside the planted interval is reported, not
    // failed on.
    if (!InsidePlanted(std::atof(bi.AnswerField("best_low_c").c_str()),
                       std::atof(bi.AnswerField("best_high_c").c_str()))) {
      ++thin_best;
    }
    const bool federated = ++cycle_count % kFedEvery == 0;
    if (federated) {
      serve::Request fed_bi = request(serve::Endpoint::kBi);
      fed_bi.scope = "federated";
      serve::Response r = timed(fed_bi, e ? &e->fed_bi : nullptr);
      // The partner's weather is uniform noise with no planted boost, so
      // the federated answer is checked for full coverage here and byte
      // for byte against the merged-warehouse oracle after the run.
      if (r.status != "ok" || r.AnswerField("coverage") != "full") {
        result.Mismatch("federated bi: status " + r.status + ", coverage '" +
                        r.AnswerField("coverage") + "'");
      }
    }
    if (e != nullptr) {
      e->cycle.Add(MsSince(start));
      e->facts_loaded += rows;
      e->feed_ms += feed_ms.Sum();
    }
    if (tracing) ProfileBiReads(view, federated, &profile);
    return true;
  };

  for (size_t i = 0; i < kWarmupCycles; ++i) run_cycle(nullptr, false);
  result.attempted = 0;
  result.failed = 0;

  const double rss_mb = PeakRssMb();
  const double budget_ms = options.seconds * 1000.0;
  Endpoints untraced, traced;
  Samples untraced_wall, traced_wall;
  Clock::time_point phase_start = Clock::now();
  PhaseClock phase_clock;
  clock = &phase_clock;
  for (;;) {
    double elapsed = MsSince(phase_start);
    if (elapsed >= budget_ms) break;
    const bool tracing = options.trace && elapsed >= budget_ms / 2;
    phase_clock.Tick();
    Clock::time_point start = Clock::now();
    if (!run_cycle(tracing ? &traced : &untraced, tracing)) {
      result.Mismatch("ran out of unseen (city, month) cycles");
      break;
    }
    (tracing ? traced_wall : untraced_wall).Add(MsSince(start));
  }
  phase_clock.Finish();
  clock = nullptr;

  // Checks outside the timed phase: every Weather row against the ground
  // truth, and the federated analysis against the merged-warehouse oracle.
  size_t rows_checked = 0, rows_matched = 0;
  {
    const dw::Table* weather = *d.warehouse->FactTable("Weather");
    const dw::Table* cities = *d.warehouse->DimensionTable("City");
    const dw::Table* days = *d.warehouse->DimensionTable("Date");
    for (size_t row = 0; row < weather->row_count(); ++row) {
      std::string city =
          ToLower(cities->Get(size_t(weather->Get(row, 0).as_int()), 0)
                      .ToString());
      std::string day =
          days->Get(size_t(weather->Get(row, 1).as_int()), 0).ToString();
      double value = weather->Get(row, 3).ToDouble();
      ++rows_checked;
      auto it = truth.temperature.find({city, day});
      if (it != truth.temperature.end() &&
          std::abs(it->second - value) < 0.76) {
        ++rows_matched;
      } else {
        result.Mismatch("fed row (" + city + ", " + day + ", " +
                        FormatDouble(value, 2) + ") is not in the truth");
      }
    }
  }
  {
    // The view-answered local analysis against a full recompute.
    serve::Response served = server->Handle(request(serve::Endpoint::kBi));
    auto recomputed = integration::BiAnalysis::SalesVsTemperature(
        *d.warehouse, "LastMinuteSales", "Weather", 5.0,
        integration::BiMode::kRecompute);
    if (!recomputed.ok() || RenderBi(served) != RenderBi(*recomputed)) {
      result.Mismatch("local bi differs from its recompute");
    }
  }
  {
    serve::Request fed_bi = request(serve::Endpoint::kBi);
    fed_bi.scope = "federated";
    serve::Response served = server->Handle(fed_bi);
    auto merged = dw::fed::MergeWarehouses(*d.warehouse, *partner, *d.mapping);
    std::string oracle = "(merge failed)";
    if (merged.ok()) {
      auto report = integration::BiAnalysis::SalesVsTemperature(*merged);
      if (report.ok()) oracle = RenderBi(*report);
    }
    if (RenderBi(served) != oracle) {
      result.Mismatch("federated bi differs from the merged-warehouse "
                      "oracle:\n" + RenderBi(served) + "--- oracle ---\n" +
                      oracle);
    }
  }
  result.context.push_back(ParallelismRecord(1, 0, kFanoutThreads, 1));
  result.context.push_back(
      "checks: weather_rows=" + std::to_string(rows_checked) +
      " matching_truth=" + std::to_string(rows_matched) +
      " cycles=" + std::to_string(cycle_count - kWarmupCycles) +
      " bi_best_field_outside_planted=" + std::to_string(thin_best));

  if (!options.trace) {
    const Endpoints& e = untraced;
    auto split = [&](const char* name, const Samples& s) {
      Samples::Tail tail = s.TailPercentile();
      result.context.push_back(
          std::string("endpoint: ") + name + " samples=" +
          std::to_string(s.size()) + " p50=" + FormatDouble(s.Median(), 3) +
          "ms " + tail.label + "=" + FormatDouble(tail.value, 3) + "ms (" +
          std::to_string(tail.beyond) + " beyond)");
    };
    split("ingest", e.ingest);
    split("feed", e.feed);
    split("bi", e.bi);
    split("fed_bi", e.fed_bi);
    split("cycle", e.cycle);
    result.context.push_back(
        "feed_facts_per_s=" +
        FormatDouble(e.feed_ms > 0 ? e.facts_loaded / (e.feed_ms / 1000.0)
                                   : 0.0,
                     1));
    AddEndToEnd(setup, rss_mb, {&phase_clock},
                rows_checked == 0
                    ? 0.0
                    : double(rows_matched) / double(rows_checked),
                "feed request", &result);
    return result;
  }

  profile["dw.load_fact_us"].Append(setup_times.load_fact_us);
  profile["dw.view_bind_ms"].Append(setup_times.bind_ms);
  profile["dw.fed.match_ms"].Append(setup_times.match_ms);
  st = ProfileSetup(view, &profile);
  if (st.ok()) {
    st = ProbeRemainingLayers(view, options.seed, kFirstYear + kYears,
                              &profile);
  }
  if (!st.ok()) result.Mismatch("layer probe failed: " + st.ToString());
  EmitLayerMetrics(view, profile, &result);
  result.Add("trace.overhead_share",
             traced_wall.Mean() / untraced_wall.Mean() - 1.0, "share");
  // Feed reconciliation: the feed requests against their ask plus, per
  // loaded row, one WAL append and one maintained insert.
  const double per_row_ms = (profile.Median("dw.wal_append_us") +
                             profile.Median("dw.insert_maintained_us")) /
                            1000.0;
  AddReconciliation(traced.feed_ms,
                    feed_ask_ms + traced.facts_loaded * per_row_ms,
                    "integration", 0.25, &result);
  return result;
}

}  // namespace perfbench
}  // namespace dwqa
