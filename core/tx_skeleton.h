#pragma once

// The transaction skeleton every protocol shares. The hybrids differ in
// their instrumentation (what a hardware attempt loads and stamps, how the
// software path reads and commits), not in the loop around it: begin,
// attempt in hardware, abort, escalate, commit. That loop lives here once;
// each protocol supplies only its hooks and its commit.
//
//  * ThreadCtxBase<H> — what every protocol ThreadCtx holds: the substrate
//    transaction, the RNG, the ContentionManager and the Recorder (counters
//    plus trace ring, core/trace.h). It also carries the loops:
//      - run_hardware: attempt, poison, execute, commit or abort,
//        give_up_hardware, backoff — with hooks for the subscription, the
//        access handle, the commit-point stamp and the post-_xend step;
//      - run_software: attempt, run, commit or abort (with the clock's
//        abort step), backoff;
//      - run_under_lock: the non-speculative lock-fallback commit.
//  * durable_persist / write_back — the one durable
//    log -> mark -> [publish] -> apply sequence.
//
// Hooks and bodies are template parameters, so the loops inline into each
// protocol: a hardware attempt issues exactly the loads and stores of the
// protocol's hooks and the body, nothing more.

#include <cstdint>
#include <optional>

#include "core/contention.h"
#include "core/stats.h"
#include "core/trace.h"
#include "core/universe.h"

namespace rhtm {

namespace detail {

/// Thrown by software-path barriers/commits; caught by run_software.
struct StmAbort {
  AbortCause cause;
};

/// Uninstrumented transactional accessors over a hardware transaction.
template <class Tx>
struct HwPlainHandle {
  Tx& t;
  TmWord load(const TmCell& c) { return t.load(c); }
  void store(TmCell& c, TmWord v) { t.store(c, v); }
};

/// Plain accessors for code running under the fallback lock.
template <class H>
struct NonSpecHandle {
  H& htm;
  TmWord load(const TmCell& c) { return htm.nontx_load(c); }
  void store(TmCell& c, TmWord v) { htm.nontx_store(c, v); }
};

/// Default hardware-attempt hooks: always ready, no subscription, plain
/// accesses, no commit-point stamp, nothing after _xend. Protocol hooks
/// derive from this and hide what they change.
struct HwHooks {
  static bool ready() { return true; }
  template <class Tx>
  static void subscribe(Tx&) {}
  template <class Tx>
  static HwPlainHandle<Tx> handle(Tx& t) {
    return {t};
  }
  template <class Tx>
  static void stamp(Tx&) {}
  static void committed() {}
};

/// Hardware-side subscription to an odd-held lock word: the word joins the
/// transaction's read set and a held lock aborts it, so any later acquire
/// or release conflicts the transaction out.
template <class Tx>
inline void subscribe_lock_word(Tx& t, const TmCell& lock) {
  if ((t.load(lock) & 1) != 0) t.abort_explicit();
}

/// Test-and-test-and-set acquire of an odd-held lock word: spin on plain
/// loads, and attempt the substrate CAS only when the lock reads free.
template <class H>
inline void acquire_lock_word(H& htm, TmCell& lock) {
  for (;;) {
    const TmWord s = htm.nontx_load(lock);
    if ((s & 1) == 0 && htm.nontx_cas(lock, s, s + 1)) return;
    cpu_relax();
  }
}

/// The durable commit sequence: redo-log the entries, mark the record (the
/// durability point), publish them to memory when the commit is a software
/// one (a hardware commit published at _xend), then apply them to the
/// durable image. Each phase is recorded with its own cycle span. The
/// caller holds what keeps readers out (stripe locks, the NOrec sequence
/// lock) across the whole sequence, so no reader consumes a value before
/// it is durably marked.
template <class H, class Entries>
inline void durable_persist(TmUniverse<H>& u, Recorder& rec, const Entries& entries,
                            const char* path, bool publish) {
  PersistentDomain& pd = u.pmem();
  const std::uint64_t t0 = rdtsc();
  const std::uint64_t txid = pd.durable_log(entries, path);
  const std::uint64_t t1 = rdtsc();
  rec.record_durable_phase(trace::EventKind::kDurLog, t1 - t0);
  pd.durable_mark(txid, path);
  rec.record_durable_phase(trace::EventKind::kDurMark, rdtsc() - t1);
  if (publish) u.htm().nontx_publish(entries);  // one atomic batch, not N racy stores
  const std::uint64_t t2 = rdtsc();
  pd.durable_apply(entries, path);
  rec.record_durable_phase(trace::EventKind::kDurApply, rdtsc() - t2);
}

/// A software commit's write-back: persisted then published in durable
/// mode, one atomic batch otherwise.
template <class H, class Entries>
inline void write_back(TmUniverse<H>& u, Recorder& rec, const Entries& entries,
                       const char* path) {
  if (u.durable()) {
    durable_persist(u, rec, entries, path, /*publish=*/true);
  } else {
    u.htm().nontx_publish(entries);
  }
}

/// A thread context's claim on its universe's stripe-lock rule, held for
/// the context's lifetime (TmUniverse::claim_stripe_use).
template <class H>
class StripeUseClaim {
 public:
  StripeUseClaim(TmUniverse<H>& u, StripeLockUse use) : u_(u), use_(use) {
    u_.claim_stripe_use(use_);
  }
  ~StripeUseClaim() { u_.release_stripe_use(use_); }
  StripeUseClaim(const StripeUseClaim&) = delete;
  StripeUseClaim& operator=(const StripeUseClaim&) = delete;

 private:
  TmUniverse<H>& u_;
  StripeLockUse use_;
};

}  // namespace detail

/// The per-thread context every protocol ThreadCtx derives from, and the
/// transaction loops the protocols drive through it.
template <class H>
class ThreadCtxBase : public Recorder {
 public:
  ThreadCtxBase(TmUniverse<H>& u, const ContentionManager::Limits& limits,
                StripeLockUse stripe_use = StripeLockUse::kNone)
      : Recorder(u.acquire_trace_ring()),
        stripe_use_(u, stripe_use),
        tx_(u.htm()),
        rng_(detail::next_ctx_seed()),
        cm_(u.config().cm, limits) {
    cm_.set_trace(trace_ring());
  }

  /// The per-thread retry/escalation policy engine (tests introspect it).
  [[nodiscard]] ContentionManager& cm() { return cm_; }

  /// Hardware attempts until one commits (true) or the contention manager
  /// gives up on hardware (false). Per attempt: `hooks.ready()` resets the
  /// protocol's per-attempt state and may stop the loop; inside the
  /// transaction, `hooks.subscribe(t)`, then the body over
  /// `hooks.handle(t)`, then `hooks.stamp(t)` at the commit point; after a
  /// successful _xend, `hooks.committed()`.
  template <class Hooks, class Body>
  bool run_hardware(H& htm, const AbortInjector& injector, ExecPath path, Hooks&& hooks,
                    Body& body) {
    for (;;) {
      if (!hooks.ready()) return false;
      record_attempt(path);
      const bool poison = injector.fire(rng_);
      const HtmOutcome out = htm.execute(tx_, [&](typename H::Tx& t) {
        hooks.subscribe(t);
        if (poison) t.poison();
        auto h = hooks.handle(t);
        body(h);
        hooks.stamp(t);
      });
      if (out.ok()) {
        hooks.committed();
        record_commit(path);
        cm_.on_hardware_commit();
        return true;
      }
      const AbortCause cause = to_abort_cause(out.status);
      record_abort(cause);
      if (cm_.give_up_hardware(cause, rng_)) return false;
      cm_.backoff_hardware();
    }
  }

  /// Software attempts until one commits. `attempt(path, rv)` runs one
  /// attempt recorded on `path` at read-version `rv`, and returns the tier
  /// that committed, or nothing after it moved `path` down a tier (RH1 ->
  /// RH2) to re-run at once. `rv` is sampled here from the version clock of
  /// `clocked`, the universe of a stripe protocol (null for NOrec, which
  /// has no clock: `rv` is then 0). A StmAbort is recorded, then the clock
  /// takes its abort step at that `rv` (GlobalVersionClock::abort_step),
  /// and the loop backs off.
  template <class Attempt>
  void run_software(ExecPath path, TmUniverse<H>* clocked, Attempt&& attempt) {
    cm_.begin_software();
    for (;;) {
      record_attempt(path);
      const TmWord rv = clocked != nullptr ? clocked->clock().read() : 0;
      std::optional<ExecPath> tier;
      try {
        tier = attempt(path, rv);
      } catch (const detail::StmAbort& a) {
        record_abort(a.cause);
        if (clocked != nullptr) {
          GlobalVersionClock& clock = clocked->clock();
          clock.abort_step(clocked->htm(), rv, a.cause == AbortCause::kStmValidation);
          if (clock.cached()) record_clock_publish();
        }
        cm_.backoff_software();
        continue;
      }
      if (!tier) continue;
      record_commit(*tier);
      cm_.on_software_commit();
      return;
    }
  }

  /// The non-speculative fallback: take the universe's fallback lock (every
  /// hardware attempt of HtmOnly and StandardHytm subscribes to it), run
  /// the body with plain accesses, release, commit on the hardware tier.
  template <class Body>
  void run_under_lock(TmUniverse<H>& u, Body& body) {
    record_fallback_lock();
    TmCell& lock = u.fallback_lock_word();
    detail::acquire_lock_word(u.htm(), lock);
    detail::NonSpecHandle<H> h{u.htm()};
    body(h);
    u.htm().nontx_fetch_add(lock, 1);
    record_commit(ExecPath::kHtm);
    cm_.on_software_commit();
  }

 protected:
  detail::StripeUseClaim<H> stripe_use_;
  typename H::Tx tx_;
  Xoshiro256 rng_;
  ContentionManager cm_;
};

}  // namespace rhtm
