#pragma once

/// \file router.hpp
/// Sharded serving: N engine shards behind one submit surface.
///
/// A Router owns `num_shards` independent Engines — each with its own
/// dispatcher thread, bounded queue and LRU cache — and routes every
/// request by design hash, so all traffic for one design (and for every
/// topology-identical variant of it) lands on the same shard. That keeps
/// the per-design cache entries AND the warm-start candidate set
/// shard-local: sharding never splits a design's amortizable state, it
/// only partitions the population's working set across shards.
///
/// Every request runs on the shard that admitted it, `shard_for(design)`:
/// no request ever moves between shards, so a served map depends only on
/// the design and the shard's own cache, exactly as under a single Engine.
///
/// On top of plain routing the Router adds:
///
///  * admission control — per-request Priority classes with per-class
///    queue quotas and shed-lowest-first on saturation (mechanism lives in
///    Engine::submit_impl; the Router configures and aggregates it);
///  * aggregated observability — Engine-compatible stats() plus a
///    per-shard breakdown, `serve.shard.s<i>.*` gauges and the
///    `serve.router.requests` counter (docs/OBSERVABILITY.md).
///
/// The Router exposes the same submit/try_submit/analyze/stats/queue_depth
/// surface as Engine, so callers scale from one engine to N shards by
/// swapping the type. Ticket ids stay globally unique (shard i issues
/// i+1, i+1+N, ...), so cancel() goes straight to the owning shard.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/engine.hpp"

namespace irf::serve {

/// Router construction knobs. `engine` is applied to every shard as-is
/// (cache budgets and queue capacities are PER SHARD; a non-empty
/// flight_dump_path gets a ".s<i>" suffix per shard so dumps never
/// clobber each other).
struct RouterOptions {
  int num_shards = 2;
  EngineOptions engine;
};

/// Aggregated engine counters plus the per-shard breakdown. Work never
/// leaves its admitting shard, so per-shard `completed <= submitted` holds
/// like the aggregate one.
struct RouterStats {
  EngineStats total;
  std::vector<EngineStats> shards;
  /// Always 0: requests never move between shards. Kept only because the
  /// traced benchmark still reports this field as a per-layer metric.
  std::uint64_t stolen_requests = 0;
};

class Router {
 public:
  /// Shard a fitted pipeline: the model state is cloned into every shard
  /// (bit-identical weights, so any shard serves any request identically).
  explicit Router(core::IrFusionPipeline pipeline, RouterOptions options = {});

  /// Model-less router: every shard answers with the rough numerical map
  /// in degraded mode (or fails when degradation is disallowed).
  explicit Router(RouterOptions options = {});

  /// Load a checkpoint once and clone it across shards. A missing file
  /// degrades gracefully when options.engine.allow_degraded is set; an
  /// unreadable or corrupt file always throws (same contract as
  /// Engine::from_checkpoint).
  static std::unique_ptr<Router> from_checkpoint(const std::string& path,
                                                 RouterOptions options = {});

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Route by design hash and enqueue on the owning shard. Same contract
  /// as Engine::submit (blocks on that shard's backpressure; admission
  /// control may resolve the ticket immediately as kShed).
  Engine::Ticket submit(AnalysisRequest request);

  /// Non-blocking submit: nullopt when the owning shard's queue is full.
  std::optional<Engine::Ticket> try_submit(AnalysisRequest request);

  /// Synchronous convenience: copies the design, submits, waits.
  AnalysisResult analyze(const pg::PgDesign& design);

  /// Cancel by ticket id on the shard that admitted it (encoded in the id).
  bool cancel(std::uint64_t id);

  /// Pause/resume dispatch on every shard.
  void pause();
  void resume();

  /// Engine-compatible aggregated counters (also refreshes the
  /// serve.shard.* gauges).
  EngineStats stats() const;

  /// Aggregate + per-shard breakdown.
  RouterStats router_stats() const;

  /// Total queued requests across shards.
  int queue_depth() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// The shard index a design routes to. Exposed so tests and tools can
  /// pin affinity; stable for the Router's lifetime.
  int shard_for(const pg::PgDesign& design) const;

  /// Direct access to one shard (tests, per-shard flight dumps).
  Engine& shard(int index);
  const Engine& shard(int index) const;

  bool has_model() const;
  void clear_cache();

 private:
  void wire_shards();
  EngineOptions shard_options(int index) const;

  RouterOptions options_;
  std::vector<std::string> shard_queue_gauges_;  ///< serve.shard.s<i>.queue.depth
  std::vector<std::string> shard_cache_gauges_;  ///< serve.shard.s<i>.cache.bytes
  std::vector<std::unique_ptr<Engine>> shards_;
};

}  // namespace irf::serve
