#pragma once

/// \file engine.hpp
/// The persistent analysis engine: a long-lived service wrapper around a
/// fitted IrFusionPipeline that amortizes everything amortizable across
/// requests (see docs/API.md):
///
///  * bounded work queue — submit() enqueues and returns a Ticket with a
///    std::future; a single dispatcher thread drains the queue in batches
///    (the numerical kernels underneath fan out on the irf::par pool);
///  * per-design cache keyed by design_content_hash(): the assembled MNA
///    system + AMG hierarchy (the PgSolver) and the fused feature stacks
///    (train::make_inference_sample, the recipe analyze() uses) are
///    computed once per design and reused, LRU-evicted under a byte budget;
///  * cross-request batched inference: the samples of every request in a
///    dispatch batch go through one IrFusionPipeline::predict call, one
///    [N,C,H,W] forward. Per-sample kernels make this bit-identical to
///    serial analyze() (tests/test_serve.cpp pins it);
///  * robustness: per-request deadlines checked at stage boundaries,
///    cancellation, and graceful degradation to the rough numerical map —
///    flagged in the result — when no model is loaded or inference throws.
///
///  * incremental re-analysis: a content-cache miss whose design matches a
///    cached entry's topology up to a bounded value delta (at most 8
///    resistor edits) reuses that entry's AMG hierarchy and rough solution
///    (warm-started PCG) and refreshes only the delta-dependent feature maps
///    (train::refresh_inference_sample, docs/API.md).
///
/// Telemetry: serve.queue.depth / serve.cache.bytes gauges, cache
/// hit/miss/eviction + warm_hits/warm_fallbacks + degraded/timeout
/// counters, serve.batch.size / serve.queue.depth_at_admission histograms,
/// and request-scoped spans — serve_queue_wait / serve_numerical /
/// serve_infer_share / serve_request all carry the request's `req_id` arg,
/// alongside the batch-level serve_batch / serve_infer spans. Each
/// AnalysisResult returns the per-stage latency breakdown (StageTimings)
/// and the solver convergence behind its rough map. A flight recorder of
/// obs::FlightRecorder::kDefaultCapacity (256) recent engine events is
/// dumped as JSON on degradation, deadline miss, warm fallback or
/// CheckError (docs/OBSERVABILITY.md).
///
/// A model-less engine serves the rough map at 64 px after 3 rough
/// iterations; with a pipeline loaded, its config sets both.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/flight.hpp"
#include "serve/api.hpp"

namespace irf::serve {

/// Monotonic counters + cache occupancy, readable from any thread. This is
/// the engine's own bookkeeping and stays live even when obs metrics are
/// globally disabled.
struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   ///< fulfilled with any status
  std::uint64_t served_ok = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t warm_hits = 0;       ///< misses served by incremental re-analysis
  std::uint64_t warm_fallbacks = 0;  ///< warm candidates rejected or failed
  std::uint64_t degraded = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failures = 0;
  std::uint64_t shed = 0;  ///< rejected by admission control (kShed)
  std::uint64_t batches = 0;
  std::size_t cache_bytes = 0;
  int cache_entries = 0;
};

class Engine {
 public:
  /// Handle to an in-flight request. The future resolves exactly once, with
  /// every terminal status expressed in AnalysisResult::status (the promise
  /// never carries an exception).
  struct Ticket {
    std::uint64_t id = 0;
    std::future<AnalysisResult> result;
  };

  /// Serve from a fitted (trained or checkpoint-restored) pipeline.
  explicit Engine(core::IrFusionPipeline pipeline, EngineOptions options = {});

  /// Model-less engine: every request is answered by the rough numerical
  /// map in degraded mode (or fails when degradation is disallowed).
  explicit Engine(EngineOptions options = {});

  /// Load a checkpoint and serve it. A *missing* file degrades gracefully
  /// when options.allow_degraded is set (the engine runs model-less and
  /// counts serve.degraded); an unreadable or corrupt file always throws.
  static std::unique_ptr<Engine> from_checkpoint(const std::string& path,
                                                 EngineOptions options = {});

  /// Joins the dispatcher; queued requests resolve as kCancelled.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Enqueue a request. Blocks while the queue is at capacity
  /// (backpressure); throws irf::ConfigError on a null design.
  Ticket submit(AnalysisRequest request);

  /// Non-blocking submit: nullopt when the queue is full.
  std::optional<Ticket> try_submit(AnalysisRequest request);

  /// Synchronous convenience: copies the design, submits, waits. Examples
  /// and tools use this; throughput-sensitive callers should submit shared
  /// designs asynchronously instead.
  AnalysisResult analyze(const pg::PgDesign& design);

  /// Cancel a queued request by ticket id. True when the request was still
  /// queued (its future will resolve kCancelled); false when it already
  /// left the queue.
  bool cancel(std::uint64_t id);

  /// Pause/resume dispatch. Requests keep queueing while paused (deadlines
  /// keep ticking — a paused engine can time requests out).
  void pause();
  void resume();

  bool has_model() const { return pipeline_.has_value(); }
  const core::IrFusionPipeline* pipeline() const {
    return pipeline_ ? &*pipeline_ : nullptr;
  }
  const EngineOptions& options() const { return options_; }

  EngineStats stats() const;
  int queue_depth() const;
  void clear_cache();

  /// Flight-recorder JSON dump on demand: returns the document and, when
  /// `path` is non-empty, also writes it there (overwrite; throws
  /// irf::Error on write failure).
  std::string dump_flight_recorder(const std::string& path = std::string()) const;

 private:
  friend class Router;  // shard wiring: id striding

  using Clock = std::chrono::steady_clock;

  /// One queued request, shared between the queue and the dispatcher.
  struct Pending {
    std::uint64_t id = 0;
    AnalysisRequest request;
    std::promise<AnalysisResult> promise;
    Clock::time_point enqueued;
    Clock::time_point deadline = Clock::time_point::max();
    double submit_unix_seconds = 0.0;  ///< wall-clock anchor for the trace context
    int queue_depth_at_admission = 0;  ///< queue size right after this push
    bool cancelled = false;  ///< guarded by the owning Engine's mutex_
  };

  struct CacheEntry;
  void start();
  void run_dispatcher();
  /// Shared enqueue path behind submit()/try_submit(): one mutex_
  /// acquisition covering the admission decision AND the push, so the
  /// non-blocking caller can never be parked on space_cv_ by a producer
  /// that slipped in between a capacity check and the enqueue.
  std::optional<Ticket> submit_impl(AnalysisRequest request, bool blocking);
  /// Resolve an accepted-but-not-served request (admission shed, shutdown
  /// cancel). Counts submitted+completed exactly once each.
  void fulfil_without_service(const std::shared_ptr<Pending>& pending,
                              ResultStatus status, const char* error);

  /// Router (sharding) hook, private so single-engine users never see it:
  /// stride the ticket-id sequence so ids are unique across shards and
  /// encode the admitting shard: shard i issues i+1, i+1+n, i+1+2n, ...
  void configure_shard(int shard_index, std::uint64_t first_id, std::uint64_t id_step);
  void process_batch(std::vector<std::shared_ptr<Pending>> batch);
  std::shared_ptr<CacheEntry> lookup_or_build(const AnalysisRequest& request,
                                              AnalysisResult& result);
  /// Incremental fast path: serve a content-cache miss from a
  /// topology-identical cached entry (delta-classified, hierarchy reused,
  /// PCG warm-started, dirty features refreshed). Returns nullptr — after
  /// counting a warm fallback — when the delta is incompatible or the warm
  /// build fails; the caller then runs the cold path.
  std::shared_ptr<CacheEntry> build_warm(const AnalysisRequest& request,
                                         std::uint64_t content_hash,
                                         std::uint64_t topology_hash,
                                         const std::shared_ptr<CacheEntry>& base,
                                         AnalysisResult& result);
  void evict_to_budget();
  void fulfil(Pending& pending, AnalysisResult result);
  /// Auto-dump the flight recorder to options_.flight_dump_path (no-op when
  /// unset; export failures are logged, never thrown into the serve path).
  void maybe_dump_flight(const char* reason);

  EngineOptions options_;
  std::optional<core::IrFusionPipeline> pipeline_;

  // Global lock order through the serve path (verified by irf_analyze, see
  // docs/ANALYSIS.md). submit_impl counts the submission under cache_mutex_
  // while still holding the queue mutex (so completed <= submitted holds at
  // every observation point). CacheEntry footprint accounting under
  // cache_mutex_ takes no further lock.
  // irf-lock-order: engine.mutex_ < engine.cache_mutex_
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable space_cv_;
  std::deque<std::shared_ptr<Pending>> queue_;
  bool stop_ = false;
  bool paused_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t id_step_ = 1;  ///< ticket-id stride (num shards under a Router)
  int shard_index_ = 0;        ///< stamped into AnalysisResult::shard

  // Cache + stats are only mutated on the dispatcher thread but read from
  // callers; guarded by cache_mutex_.
  mutable std::mutex cache_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<CacheEntry>> cache_;
  std::uint64_t lru_tick_ = 0;
  EngineStats stats_;

  obs::FlightRecorder flight_;

  std::thread dispatcher_;
};

}  // namespace irf::serve
