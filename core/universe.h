#pragma once

// TmUniverse<H> — the shared world every protocol instance runs against:
// the HTM substrate instance, the striped version-word store, the global
// version clock, the protocols' cross-thread words, and (when configured
// durable) the simulated persistent domain every software write-back
// funnels through. Benches construct one universe per figure (or per
// protocol) and instantiate protocols over it.

#include <atomic>
#include <memory>
#include <stdexcept>

#include "core/clock.h"
#include "core/contention.h"
#include "core/htm_common.h"
#include "core/pmem.h"
#include "core/stripe.h"
#include "core/trace.h"

namespace rhtm {

struct UniverseConfig {
  HtmConfig htm;
  StripeConfig stripe;
  GvMode gv_mode = GvMode::kGv1;
  /// Contention management: retry/backoff/escalation policy applied by every
  /// protocol ThreadCtx constructed over this universe (see core/contention.h;
  /// --cm= bench flag). kFixed is bit-compatible with the historical coins
  /// and budgets.
  CmConfig cm;
  /// Durability mode: every committing write-back is redo-logged, fenced and
  /// applied to the PersistentDomain's durable image (see core/pmem.h).
  /// Requires a substrate with real commit atomicity — the durable hardware
  /// commits stamp their write stripes locked inside the transaction, and a
  /// substrate that cannot roll stores back (HtmEmul) would abandon those
  /// locks on abort.
  bool durable = false;
  PmemConfig pmem;
  /// Event tracing: when non-null, every protocol ThreadCtx constructed
  /// over this universe acquires a TraceRing from this tracer and records
  /// its full transaction lifecycle (core/trace.h; --trace bench flag).
  /// Non-owning — the tracer outlives every universe built over it. Null
  /// (the default) disables tracing: the per-event cost collapses to one
  /// predictable null-check branch.
  trace::Tracer* tracer = nullptr;
  /// NUMA geometry axis (core/topology.h; --numa bench flag). kOff keeps
  /// the flat stripe table and plain clock bit-identical to the pre-NUMA
  /// universe; kShard sockets-shards the stripe table (first-touch
  /// allocated); kShardClock additionally enables the per-socket cached
  /// version clock.
  NumaMode numa = NumaMode::kOff;
  /// Topology override for tests/benches; null resolves to
  /// Topology::system(). Non-owning — must outlive the universe.
  const Topology* topology = nullptr;
};

/// The topology a universe built from `cfg` operates over.
[[nodiscard]] inline const Topology& resolve_topology(const UniverseConfig& cfg) {
  return cfg.topology != nullptr ? *cfg.topology : Topology::system();
}

namespace detail {
/// Derives the stripe-table shard geometry from the numa mode: per-socket
/// shards (StripeTable rounds up to a power of two) when sharding is on,
/// the flat table otherwise.
[[nodiscard]] inline StripeConfig sharded_stripe_config(const UniverseConfig& cfg) {
  StripeConfig sc = cfg.stripe;
  if (cfg.numa != NumaMode::kOff) {
    const Topology& topo = resolve_topology(cfg);
    sc.shards = topo.socket_count();
    sc.topology = &topo;
  }
  return sc;
}
}  // namespace detail

/// How a protocol's thread contexts use stripe locks (TmUniverse::
/// claim_stripe_use).
enum class StripeLockUse : unsigned {
  kNone,    ///< never locks stripes, or only inside a HybridTm RH2 attempt
  kHybrid,  ///< HybridTm: hardware commits test locks only under live RH2
  kLocker,  ///< locks stripes in software (Tl2, StandardHytm, PhasedTm)
};

template <class H>
class TmUniverse {
 public:
  TmUniverse() : TmUniverse(UniverseConfig{}) {}
  explicit TmUniverse(const UniverseConfig& cfg)
      : cfg_(cfg),
        topo_(&resolve_topology(cfg)),
        htm_(cfg.htm),
        stripes_(detail::sharded_stripe_config(cfg)),
        clock_(cfg.gv_mode,
               cfg.numa == NumaMode::kShardClock ? topo_ : nullptr) {
    if (cfg_.durable) pmem_ = std::make_unique<PersistentDomain>(cfg_.pmem);
  }

  TmUniverse(const TmUniverse&) = delete;
  TmUniverse& operator=(const TmUniverse&) = delete;

  [[nodiscard]] const UniverseConfig& config() const { return cfg_; }
  [[nodiscard]] H& htm() { return htm_; }
  [[nodiscard]] StripeTable& stripes() { return stripes_; }
  [[nodiscard]] GlobalVersionClock& clock() { return clock_; }

  // Cross-thread protocol words. They live here rather than in protocol
  // instances, so any number of instances over one universe synchronize
  // through the same word, as they do through the stripes and the clock.
  // Read-modify-writes on them go through the substrate (nontx_cas /
  // nontx_fetch_add) so they serialize against simulated commits.
  /// Lock-fallback seqlock (HtmOnly, StandardHytm): odd = held.
  [[nodiscard]] TmCell& fallback_lock_word() { return fallback_lock_; }
  /// HybridNorec sequence lock: even = quiet, odd = a writer is committing.
  [[nodiscard]] TmCell& norec_seq_word() { return norec_seq_; }
  /// PhasedTm: transactions currently running in the software phase.
  [[nodiscard]] TmCell& phase_word() { return phase_; }
  /// HybridTm: live RH2 transactions; fast and reduced commits subscribe.
  [[nodiscard]] TmCell& rh2_word() { return rh2_active_; }

  /// The stripe-lock rule (docs/ARCHITECTURE.md §2). In a non-durable
  /// universe HybridTm's hardware commits test their write stripes for the
  /// lock bit only while an RH2 attempt is live, so no other protocol may
  /// lock stripes while a HybridTm runs. Every thread context claims its
  /// use for its lifetime; a claim that would make HybridTm contexts and
  /// stripe-locking contexts live at once throws std::logic_error. Durable
  /// universes test locks on every commit and accept any mix.
  void claim_stripe_use(StripeLockUse use) {
    if (use == StripeLockUse::kNone || durable()) return;
    std::atomic<unsigned>& mine = claims(use);
    // seq_cst increment, then read: of two racing claims of different
    // kinds, at least one sees the other.
    mine.fetch_add(1);
    if (claims(use == StripeLockUse::kHybrid ? StripeLockUse::kLocker : StripeLockUse::kHybrid)
            .load() != 0) {
      mine.fetch_sub(1);
      throw std::logic_error(
          "HybridTm and a stripe-locking protocol (Tl2, StandardHytm, PhasedTm) live on one "
          "non-durable universe");
    }
  }
  void release_stripe_use(StripeLockUse use) {
    if (use == StripeLockUse::kNone || durable()) return;
    claims(use).fetch_sub(1);
  }

  /// True when this universe persists commits (cfg.durable). Non-durable
  /// universes never construct a PersistentDomain and emit zero fences.
  [[nodiscard]] bool durable() const { return pmem_ != nullptr; }
  /// The persistent domain; only valid when durable().
  [[nodiscard]] PersistentDomain& pmem() { return *pmem_; }

  /// The NUMA geometry axis this universe was built with.
  [[nodiscard]] NumaMode numa() const { return cfg_.numa; }
  /// The resolved topology (config override or Topology::system()).
  [[nodiscard]] const Topology& topology() const { return *topo_; }

  /// The flight recorder, or null when tracing is off.
  [[nodiscard]] trace::Tracer* tracer() const { return cfg_.tracer; }
  /// A fresh per-thread trace ring, or null when tracing is off (or the
  /// tracer's ring budget is exhausted — callers treat both as "no trace").
  [[nodiscard]] trace::TraceRing* acquire_trace_ring() const {
    return cfg_.tracer != nullptr ? cfg_.tracer->acquire_ring() : nullptr;
  }

 private:
  std::atomic<unsigned>& claims(StripeLockUse use) {
    return use == StripeLockUse::kHybrid ? hybrid_ctxs_ : locker_ctxs_;
  }

  UniverseConfig cfg_;
  const Topology* topo_;
  H htm_;
  StripeTable stripes_;
  GlobalVersionClock clock_;
  std::unique_ptr<PersistentDomain> pmem_;
  // One cache line each: on real HTM a write to one word must not conflict
  // out the hardware transactions subscribed to another.
  alignas(64) TmCell fallback_lock_;
  alignas(64) TmCell norec_seq_;
  alignas(64) TmCell phase_;
  alignas(64) TmCell rh2_active_;
  // Written only when a thread context is built or destroyed; its own
  // line keeps that off the RH2 word's.
  alignas(64) std::atomic<unsigned> hybrid_ctxs_{0};  ///< live kHybrid contexts
  std::atomic<unsigned> locker_ctxs_{0};              ///< live kLocker contexts
};

}  // namespace rhtm
