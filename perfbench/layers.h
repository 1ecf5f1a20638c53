// Per-layer attribution for the traced run. Every function here times calls
// into one module's public API from the benchmark's side: the program is
// never instrumented. The workloads call the ask/front-end/BI helpers on
// the inputs of their own request stream, and ProbeRemainingLayers fills in
// every layer their stream did not drive, against their own tenant.

#ifndef DWQA_PERFBENCH_LAYERS_H_
#define DWQA_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "dw/federation/federated_engine.h"
#include "dw/materialized_view.h"
#include "dw/warehouse.h"
#include "integration/pipeline.h"
#include "ontology/uml_model.h"
#include "perfbench/harness.h"
#include "serve/server.h"

namespace dwqa {
namespace perfbench {

/// Synthetic sales over `days` days from `start`, generated once per run
/// (benchmark input) into a staging warehouse.
Result<dw::Warehouse> StageSales(uint64_t seed, const Date& start, int days);

/// A fresh warehouse with the staged warehouse's schema and contents,
/// loaded through Warehouse::AddMember/InsertFact with no views attached:
/// the program-side load a tenant's set-up times. Each InsertFact is timed
/// into `per_fact_us` when non-null.
Result<dw::Warehouse> LoadSales(const dw::Warehouse& staged,
                                Samples* per_fact_us);

/// The partner airline's warehouse over the same period (benchmark input).
Result<dw::Warehouse> MakePartner(const Date& start, int days);

/// The program objects one tenant is served from.
struct TenantView {
  serve::QaServer* server = nullptr;
  std::string tenant;
  dw::Warehouse* warehouse = nullptr;
  const ontology::UmlModel* uml = nullptr;
  /// The store the tenant indexed; the ingest probe appends to it.
  ir::DocumentStore* docs = nullptr;
  integration::PipelineConfig pipeline_config;
  serve::ServerConfig server_config;
  /// The tenant's bound view catalog and federation, when it has them.
  const dw::ViewCatalog* views = nullptr;
  const dw::fed::FederatedEngine* federation = nullptr;
};

/// Steps 1–3, Step 4 and IndexCorpus of a fresh pipeline over the tenant's
/// inputs, plus CorpusAnalyzer::AnalyzeDocument over a corpus sample.
Status ProfileSetup(const TenantView& tenant, LayerProfile* profile);

/// One ask, attributed: AnalyzeQuestion, SelectPassages and AskWith on the
/// tenant's engine, with `handle_ms` (the live Handle the client timed)
/// giving the serve overhead. Returns AskWith's time in ms.
double ProfileAsk(const TenantView& tenant, const std::string& question,
                  double handle_ms, LayerProfile* profile);

/// Wall time of each step of one protocol round trip, ms.
struct RoundTripSteps {
  /// The client's Request::Serialize + WriteFrame and its ReadFrame +
  /// Response::Parse.
  double client_ms = 0.0;
  /// The server's ReadFrame + Request::Parse.
  double read_ms = 0.0;
  /// QaServer::Handle.
  double handle_ms = 0.0;
  /// The server's Response::Serialize + WriteFrame.
  double write_ms = 0.0;

  double total_ms() const { return client_ms + read_ms + handle_ms + write_ms; }
  /// Adds the steps to serve.client_frame_us, serve.read_frame_us,
  /// serve.write_frame_us and, for a cache hit, serve.handle_hit_us.
  void Record(bool cache_hit, LayerProfile* profile) const;
};

/// One request through the public protocol path, both sides in the
/// calling thread: Request::Serialize → Framing::WriteFrame → ReadFrame →
/// Request::Parse → QaServer::Handle → Response::Serialize → WriteFrame →
/// ReadFrame → Response::Parse. Each step is timed into `steps` when it is
/// non-null. A framing or parse failure comes back as an "error" response.
serve::Response RoundTrip(serve::QaServer* server,
                          const serve::Request& request,
                          RoundTripSteps* steps);

/// AnswerCache::Get on the question's key and AdmissionController::Admit +
/// Release under the tenant's admission config, timed.
void ProfileCacheAndAdmission(const TenantView& tenant,
                              const std::string& question,
                              LayerProfile* profile);

/// One metrics scrape through Handle.
void ProfileScrape(const TenantView& tenant, LayerProfile* profile);

/// The read side of one `bi`: view reads of both BI queries, their
/// recompute, the cost estimate and the join (SalesVsTemperature minus the
/// view reads); with a federation, FederatedEngine::Execute of both.
/// Returns the SalesVsTemperature time in ms.
double ProfileBiReads(const TenantView& tenant, bool federated,
                      LayerProfile* profile);

/// Per-layer metrics not yet in `profile`, probed on the tenant after its
/// stream: ingest of `year`'s weather pages for three cities (appended to
/// the tenant's store, enough to seal a segment), live asks and Step-5
/// feeds of their questions, WAL appends, warehouse load/bind/maintenance/
/// reads on a copy of the tenant's warehouse, and schema match plus
/// federated execute against a partner warehouse.
Status ProbeRemainingLayers(const TenantView& tenant, uint64_t seed, int year,
                            LayerProfile* profile);

/// Appends every per-layer metric (the full per_layer list of
/// BENCHMARK.json) from `profile` and the tenant's registries.
void EmitLayerMetrics(const TenantView& tenant, const LayerProfile& profile,
                      RunResult* result);

}  // namespace perfbench
}  // namespace dwqa

#endif  // DWQA_PERFBENCH_LAYERS_H_
