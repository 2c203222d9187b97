#pragma once

/// \file api.hpp
/// The stable public request/response vocabulary of the serving layer (see
/// docs/API.md). Callers build an AnalysisRequest around a PG design, hand
/// it to an irf::serve::Engine, and receive an AnalysisResult whose status
/// says exactly where the map came from: the full fusion path, the degraded
/// numerical-only fallback, or not at all (timeout / cancellation / error).
/// These types are re-exported at the top level by the irf.hpp facade.

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "common/grid2d.hpp"
#include "pg/design.hpp"

namespace irf::serve {

/// Where an AnalysisResult came from — and whether it exists at all.
enum class ResultStatus {
  kOk,        ///< full pipeline: numerical stage + model refinement
  kDegraded,  ///< rough numerical map only (no model, or inference failed)
  kTimedOut,  ///< deadline expired before the engine finished the request
  kCancelled, ///< cancelled via Engine::cancel() or engine shutdown
  kFailed,    ///< hard error; see AnalysisResult::error
  kShed,      ///< rejected by admission control (class quota, or evicted
              ///< from a full queue by a higher-priority arrival)
};

/// Human-readable status label ("ok", "degraded", ...), for logs and JSON.
const char* status_name(ResultStatus status);

/// Request priority class for admission control (docs/API.md "Sharded
/// serving"). Higher values matter more: when the queue is saturated an
/// arriving request may shed a queued request of a strictly lower class
/// (shed-lowest-first), and per-class quotas can cap how much of the queue
/// one class may occupy. Priorities never reorder dispatch — the queue
/// stays FIFO — they only decide who gets a queue slot under pressure.
enum class Priority {
  kBatch = 0,        ///< bulk/offline work; first to be shed
  kNormal = 1,       ///< default class
  kInteractive = 2,  ///< latency-sensitive; may displace lower classes
};

inline constexpr int kNumPriorities = 3;

/// Human-readable priority label ("batch", "normal", "interactive").
const char* priority_name(Priority priority);

/// One unit of serving work. The design is shared ownership: the engine's
/// per-design cache may keep it alive past the request (cached MNA/AMG
/// state references the design), so callers hand in a shared_ptr rather
/// than a borrowed reference.
struct AnalysisRequest {
  std::shared_ptr<const pg::PgDesign> design;

  /// Per-request deadline in seconds from submission; 0 uses the engine's
  /// default_timeout_seconds (and 0 there means "no deadline"). Deadlines
  /// are checked at stage boundaries — dequeue and pre-inference — so a
  /// timed-out request never occupies a batch slot.
  double timeout_seconds = 0.0;

  /// Allow the rough numerical fallback when the model path is unavailable.
  /// When false, such requests fail instead of degrading.
  bool allow_degraded = true;

  /// Admission-control class (see Priority). Under saturation a request of
  /// a strictly higher class may shed the oldest queued request of the
  /// lowest class present; per-class quotas (EngineOptions::priority_quotas)
  /// reject at admission with kShed.
  Priority priority = Priority::kNormal;
};

/// Per-stage wall-clock breakdown of one served request, measured by the
/// engine at stage boundaries. Stages a request never entered stay 0 (a
/// cache hit has no setup/solve/features time; a timed-out request may only
/// have queue_wait). respond_seconds is the residual of total_seconds not
/// attributed to a named stage (dispatcher bookkeeping, result copies).
struct StageTimings {
  double queue_wait_seconds = 0.0;  ///< submit -> dequeued by the dispatcher
  double batch_form_seconds = 0.0;  ///< dequeue -> admission checks done
  double setup_seconds = 0.0;       ///< MNA assembly + AMG setup (cold) or rebind (warm)
  double solve_seconds = 0.0;       ///< rough / warm-started PCG iterations
  double feature_seconds = 0.0;     ///< feature extraction or delta refresh
  double inference_seconds = 0.0;   ///< whole batched model forward (every request
                                    ///< of the batch reports the same interval)
  double respond_seconds = 0.0;     ///< unattributed remainder before fulfilment
  double total_seconds = 0.0;       ///< submit -> promise fulfilled
};

/// The engine's answer. `ir_drop` is only populated for kOk/kDegraded.
struct AnalysisResult {
  ResultStatus status = ResultStatus::kFailed;
  GridF ir_drop;  ///< final bottom-layer IR-drop image (volts)
  GridF rough;    ///< rough numerical map (populated when computed)

  bool degraded = false;    ///< convenience mirror of status == kDegraded
  bool cache_hit = false;   ///< numerical+feature stage served from cache
  bool warm_start = false;  ///< incremental re-analysis: cached hierarchy +
                            ///< rough solution reused, only the delta recomputed

  /// Completed-work-wins: the deadline expired after the last pre-inference
  /// check, so the request finished (status kOk/kDegraded, map populated)
  /// but later than asked. Deadlines are enforced at stage boundaries —
  /// dequeue and pre-inference — and never discard a finished map; this
  /// flag is the indication that the enforcement window was overrun
  /// (docs/API.md "Deadlines").
  bool deadline_exceeded = false;

  /// Size of the dispatch batch this request was formed into. For
  /// kOk/kDegraded it equals the NN-forward / degraded cohort; requests
  /// that fail or time out inside the batch report the batch they rode in.
  int batch_size = 0;
  int shard = 0;                  ///< index of the engine shard that served it
  std::uint64_t design_hash = 0;  ///< content hash used as the cache key
  std::string design_name;

  /// Request-scoped trace context: the engine-monotonic request id every
  /// span of this request carries as a `req_id` arg, the wall-clock anchor
  /// taken at submission, and the queue depth right after admission.
  std::uint64_t req_id = 0;
  double submit_unix_seconds = 0.0;
  int queue_depth_at_admission = 0;

  double queue_seconds = 0.0;      ///< time between submit and dequeue
  double numerical_seconds = 0.0;  ///< MNA + AMG + rough solve + features
  double inference_seconds = 0.0;  ///< whole batched model forward (= stages.inference_seconds)
  StageTimings stages;             ///< full per-stage latency breakdown

  /// Convergence telemetry of the numerical stage that produced `rough`
  /// (cold rough solve or warm-started PCG; cached values on a cache hit).
  int solver_iterations = 0;
  double solver_final_residual = 0.0;

  std::string error;  ///< populated for kFailed (and degraded-by-exception)

  bool ok() const { return status == ResultStatus::kOk; }
  bool has_map() const {
    return status == ResultStatus::kOk || status == ResultStatus::kDegraded;
  }
};

/// Engine construction knobs. Defaults suit an interactive tool; a serving
/// deployment raises queue_capacity/cache_budget_bytes to its memory share.
struct EngineOptions {
  int max_batch = 8;            ///< max requests fused into one NN forward
  int queue_capacity = 64;      ///< bounded work queue; submit blocks when full

  /// Per-class queue quotas, indexed by Priority (0 = unlimited). A request
  /// whose class already occupies its quota of queue slots is rejected at
  /// admission: its future resolves immediately with kShed. Quotas bound
  /// how much of a saturated queue bulk traffic may own; they are checked
  /// before the shared-capacity backpressure.
  std::array<int, kNumPriorities> priority_quotas{{0, 0, 0}};
  std::size_t cache_budget_bytes = std::size_t{256} << 20;  ///< per-design cache
  double default_timeout_seconds = 0.0;  ///< 0 = requests never expire
  bool allow_degraded = true;   ///< engine-wide master switch for the fallback

  /// Incremental re-analysis: when a request misses the content cache but a
  /// cached entry has the identical topology up to a bounded value delta
  /// (new current map, scaled supply, a few resistor edits), reuse its AMG
  /// hierarchy, warm-start PCG from its rough solution and refresh only the
  /// delta-dependent feature maps. Up to 8 resistor value edits count as
  /// such a delta. Any classification or numerical failure falls back to
  /// the cold path (docs/API.md "Incremental serving").
  bool enable_warm_start = true;

  /// Test hook: sleep this long between the pre-inference deadline check
  /// and stage B, simulating a slow model forward. Pins the
  /// completed-work-wins deadline policy (AnalysisResult::deadline_exceeded)
  /// deterministically in tests; leave 0 in production.
  double debug_batch_delay_seconds = 0.0;

  /// When non-empty, the engine (over)writes the flight-recorder JSON dump
  /// here every time a request degrades, misses its deadline, falls back
  /// from warm-start, or trips a CheckError — a post-mortem of the lead-up.
  /// Engine::dump_flight_recorder() dumps on demand regardless.
  std::string flight_dump_path;
};

/// Content hash of a design: geometry, supply, and every netlist element —
/// but not the name, so re-parsed copies of one deck share a cache entry.
std::uint64_t design_content_hash(const pg::PgDesign& design);

/// Structure-only hash: node names, physical extent, and element endpoints,
/// with every value (ohms/amps/volts/farads) excluded. Two designs that
/// differ only in values collide here — exactly the candidates the warm
/// path wants to find; pg::classify_design_delta then verifies for real.
std::uint64_t design_topology_hash(const pg::PgDesign& design);

}  // namespace irf::serve
