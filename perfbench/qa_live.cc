// qa_live — one client asking live (nocache=1) questions of one tenant over
// an eight-year weather corpus through QaServer::Handle. Text analysis, IR
// retrieval and answer extraction do the work; the warehouse does none.

#include <cstdlib>
#include <memory>

#include "integration/last_minute_sales.h"
#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "serve/server.h"

namespace dwqa {
namespace perfbench {

namespace {

constexpr int kFirstYear = 1999;
constexpr int kYears = 8;
constexpr int kSetupRepeats = 5;
constexpr size_t kWarmupAsks = 100;
constexpr int kSalesDays = 60;

/// One tenant's serving state. Declaration order is destruction order in
/// reverse: the server goes first, then what it points into.
struct Tenant {
  std::unique_ptr<ir::DocumentStore> docs;
  std::unique_ptr<dw::Warehouse> warehouse;
  std::unique_ptr<serve::QaServer> server;
};

bool AnswerMatches(const web::GoldQuestion& gold,
                   const serve::Response& response) {
  if (response.status != "ok") return false;
  const std::string value = response.AnswerField("value");
  return web::QuestionFactory::Matches(
      gold, response.AnswerField("answer"), !value.empty(),
      value.empty() ? 0.0 : std::atof(value.c_str()));
}

}  // namespace

RunResult RunQaLive(const Options& options) {
  RunResult result;
  // Inputs: generated from the seed, never timed.
  const MultiYearWeb web = BuildMultiYearWeb(options.seed, kFirstYear, kYears);
  std::vector<web::GoldQuestion> questions = web.weather_questions;
  for (const web::GoldQuestion& q : ClefQuestions(web.weather_questions)) {
    questions.push_back(q);
  }
  Shuffle(&questions, options.seed);
  auto staged =
      StageSales(options.seed, Date(kFirstYear, 1, 1), kSalesDays);
  if (!staged.ok()) {
    result.Mismatch("sales staging failed: " + staged.status().ToString());
    return result;
  }
  const ontology::UmlModel uml =
      integration::LastMinuteSales::MakeUmlModel();
  serve::ServerConfig server_config;

  // Set-up, repeated: the tenant's warehouse load and AddTenant (Steps 1–4
  // plus corpus indexation) on fresh objects each time.
  Tenant tenant;
  SetupClock setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    tenant = Tenant();
    tenant.docs = std::make_unique<ir::DocumentStore>();
    CopyDocuments(web, tenant.docs.get());
    tenant.server = std::make_unique<serve::QaServer>(server_config);
    Status st = setup.Time([&]() -> Status {
      DWQA_ASSIGN_OR_RETURN(dw::Warehouse loaded, LoadSales(*staged, nullptr));
      tenant.warehouse = std::make_unique<dw::Warehouse>(std::move(loaded));
      serve::ServeTenantConfig config;
      config.name = "live";
      config.warehouse = tenant.warehouse.get();
      config.uml = &uml;
      config.docs = tenant.docs.get();
      config.pipeline = integration::LastMinuteSales::DefaultPipelineConfig();
      return tenant.server->AddTenant(config);
    });
    if (!st.ok()) {
      result.Mismatch("set-up failed: " + st.ToString());
      return result;
    }
  }
  result.context.push_back(
      "corpus: documents=" + std::to_string(tenant.docs->size()) +
      " questions=" + std::to_string(questions.size()));

  TenantView view;
  view.server = tenant.server.get();
  view.tenant = "live";
  view.warehouse = tenant.warehouse.get();
  view.uml = &uml;
  view.docs = tenant.docs.get();
  view.pipeline_config = integration::LastMinuteSales::DefaultPipelineConfig();
  view.server_config = server_config;

  uint64_t next_id = 1;
  auto ask = [&](const web::GoldQuestion& q, double* ms) {
    serve::Request request;
    request.id = next_id++;
    request.tenant = "live";
    request.endpoint = serve::Endpoint::kAsk;
    request.questions = {q.question};
    request.no_cache = true;
    Clock::time_point start = Clock::now();
    serve::Response response = tenant.server->Handle(request);
    *ms = MsSince(start);
    return response;
  };

  // Warm-up, untimed.
  for (size_t i = 0; i < kWarmupAsks && i < questions.size(); ++i) {
    double ms = 0.0;
    ask(questions[i], &ms);
  }

  // Timed phase. A traced run spends its first half untraced, as the
  // baseline of the tracing overhead, and its second half attributing each
  // ask to its layers.
  LayerProfile profile;
  Samples untraced_wall, traced_wall;
  double handle_total = 0.0, ask_total = 0.0;
  size_t matched = 0;
  size_t cursor = kWarmupAsks % questions.size();
  const double rss_mb = PeakRssMb();
  const double budget_ms = options.seconds * 1000.0;
  Clock::time_point phase_start = Clock::now();
  PhaseClock clock;
  for (;;) {
    double elapsed = MsSince(phase_start);
    if (elapsed >= budget_ms) break;
    const bool tracing = options.trace && elapsed >= budget_ms / 2;
    clock.Tick();
    const web::GoldQuestion& q = questions[cursor];
    cursor = (cursor + 1) % questions.size();
    Clock::time_point request_start = Clock::now();
    double ms = 0.0;
    serve::Response response = ask(q, &ms);
    ++result.attempted;
    clock.Completed();
    if (response.status != "ok") ++result.failed;
    if (AnswerMatches(q, response)) {
      ++matched;
    } else {
      result.Mismatch("ask '" + q.question + "' answered '" +
                      response.AnswerField("answer") + "' (" +
                      response.status + ")");
    }
    if (tracing) {
      ask_total += ProfileAsk(view, q.question, ms, &profile);
      handle_total += ms;
      traced_wall.Add(MsSince(request_start));
    } else {
      clock.Latency(ms);
      untraced_wall.Add(MsSince(request_start));
    }
  }
  clock.Finish();
  result.context.push_back(ParallelismRecord(1, 0, 0, 1));

  if (!options.trace) {
    AddEndToEnd(setup, rss_mb, {&clock}, double(matched) / double(result.attempted),
                "live ask", &result);
    return result;
  }

  // Traced run: set-up layers, then every layer the stream did not drive.
  Status st = ProfileSetup(view, &profile);
  if (st.ok()) {
    st = ProbeRemainingLayers(view, options.seed, kFirstYear + kYears,
                              &profile);
  }
  if (!st.ok()) result.Mismatch("layer probe failed: " + st.ToString());
  EmitLayerMetrics(view, profile, &result);
  result.Add("trace.overhead_share",
             traced_wall.Mean() / untraced_wall.Mean() - 1.0, "share");
  AddReconciliation(handle_total, ask_total, "serve", 0.10, &result);
  return result;
}

}  // namespace perfbench
}  // namespace dwqa
