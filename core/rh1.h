#pragma once

// HybridTm — the paper's RH1 algorithm, with the RH2 / slow-slow escalation
// chain of §4.
//
// Fast path (kRh1Fast): the whole body runs in ONE hardware transaction.
// Reads are completely uninstrumented (one load). A write is one data store
// plus a note of its stripe; at the commit point the transaction re-reads
// the clock and publishes every written stripe at clock+1, so software
// readers serialize against fast commits through the ordinary TL2
// validation rules. No read-set, no write buffering, no logging — and no
// clock store, under any GvMode: a clock that fast commits wrote would make
// every pair of overlapping fast commits conflict on the clock line. The
// clock moves through software and reduced commits instead, and through the
// software abort step, which lifts it past a rejected read-version
// (GlobalVersionClock::abort_step; docs/ARCHITECTURE.md §4 "The clock
// rule").
//
// Slow path (kRh1Slow): a TL2-style software body (instrumented reads into
// a ReadSet, writes buffered in a WriteSet) committed by a *reduced
// hardware transaction*: one short HTM transaction that revalidates the
// read stripes (metadata only — one stripe word per granule of data, the
// ~4x capacity headroom of §1.2), fetches a write version, and publishes
// write-set data + stripe versions atomically. No stripe locks anywhere on
// this path.
//
// Where stripe locks can exist. In a non-durable universe the only stripe
// locks are those of the slow-slow commit (detail::tl2_software_commit),
// which runs inside an RH2 transaction, between its increment and its
// decrement of the universe's RH2 word. Both hardware commits load that
// word anyway (for the mask check), so they test their write stripes for
// the lock bit only while it is non-zero: an RH2 transaction that starts
// later writes the word and conflicts the commit out. A durable universe
// also keeps the hardware commits' own stripes locked past _xend, until
// their persist step; there the lock test is unconditional. The reduced
// commit still validates every read stripe (lock bit and version): it needs
// the version anyway. No other protocol may lock stripes of a non-durable
// universe while a HybridTm runs on it: the universe refuses thread
// contexts that would (TmUniverse::claim_stripe_use, docs/ARCHITECTURE.md
// §2).
//
// RH2 (kRh2Slow): if the reduced commit itself exceeds the hardware budget,
// the transaction re-executes with *visible* reads — readers publish
// themselves on per-stripe read masks (fetch-add vs CAS-loop is ablation
// A4) — and commits with a write-set-only hardware transaction that refuses
// to overwrite stripes carrying foreign readers. While any RH2 transaction
// is active (a global counter both fast and RH1-slow commits subscribe to),
// every committer checks the masks of its write stripes.
//
// Slow-slow (kRh2SlowSlow): the final all-software fallback — the TL2
// stripe-locked commit, mask-respecting. Needs no hardware at all.
//
// Mixed-mode policy (§2.3): an aborted fast transaction retries in
// hardware; the per-thread ContentionManager (core/contention.h) decides
// when to fall back to the slow path instead. Under the default kFixed
// policy that is exactly the paper's `slow_retry_percent` coin; kAdaptive
// replaces the coin with abort-density-derived escalation thresholds and a
// software mode that skips doomed hardware attempts and re-probes
// periodically; kAggressive holds on to hardware.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/tl2.h"
#include "stm/stripe_set.h"

namespace rhtm {

template <class H>
class HybridTm {
 public:
  struct Config {
    std::uint32_t inject_abort_bp = 0;
    unsigned slow_retry_percent = 100;  ///< Mixed-N: % of aborts retried in software
    bool force_slow_path = false;       ///< breakdown bench: software body + HTM commit
    bool force_rh2 = false;             ///< ablation A4: visible-read slow mode
  };
  static constexpr unsigned kCommitRetries = 8;    ///< reduced-commit conflict retries
  static constexpr unsigned kCapacityRetries = 2;  ///< fast-path capacity aborts before fallback

  class ThreadCtx : public ThreadCtxBase<H> {
   public:
    explicit ThreadCtx(HybridTm& tm)
        : ThreadCtxBase<H>(tm.u_,
                           ContentionManager::Limits{tm.cfg_.slow_retry_percent, 0,
                                                     kCapacityRetries},
                           StripeLockUse::kHybrid) {}

   private:
    friend class HybridTm;
    detail::Tl2Sets sw_;
    /// Distinct stripes the fast path stamps. Its insert is the fast-path
    /// write barrier, so the table starts sparse: a transaction's few dozen
    /// stripes would half fill the default 64 slots and lengthen the probe
    /// runs.
    StripeSet fast_written_{1024};
    std::vector<pmem::CapturedWrite> fast_redo_;  ///< durable: fast-path write capture
    StripeSet masks_;  ///< stripes with our RH2 read mask published (O(1) self test)
  };

  explicit HybridTm(TmUniverse<H>& u, Config cfg = {})
      : u_(u), cfg_(cfg), injector_(cfg.inject_abort_bp) {}

  template <class Body>
  void atomically(ThreadCtx& ctx, Body&& body) {
    ctx.transaction([&] { run(ctx, body); });
  }

  /// Exposed for tests: number of in-flight RH2 transactions.
  [[nodiscard]] TmWord rh2_active() const { return u_.rh2_word().unsafe_load(); }

 private:
  // ---------------------------------------------------------------- fast --
  /// Uninstrumented reads; a write is the data store plus a note of its
  /// stripe, with no metadata load (fast_commit_stamp tests for locks). The
  /// written-stripe record is exactly deduplicated, so the commit point
  /// stamps each stripe once however the body's stores interleave: a stamp
  /// per store would double the hardware write footprint.
  struct FastHandle {
    typename H::Tx& t;
    StripeTable& st;
    StripeSet& written;
    std::vector<pmem::CapturedWrite>* redo;  ///< non-null in durable mode

    TmWord load(const TmCell& c) {
      if (redo != nullptr &&
          StripeTable::is_locked(t.load(st.word(st.index_of(&c))))) {
        // Durable mode's one extra load per read (the fast-path fine-grained
        // locking cost): a locked stripe belongs to a commit that has
        // published its values in memory but not yet durably — reading them
        // now could make this transaction durable before its antecedent.
        // The stripe word joins the HTM read set, so the owner's unlock
        // conflicts us out rather than racing the data load.
        t.abort_explicit();
      }
      return t.load(c);
    }

    void store(TmCell& c, TmWord v) {
      t.store(c, v);
      written.insert(static_cast<std::uint32_t>(st.index_of(&c)));
      if (redo != nullptr) redo->push_back({&c, v});
    }
  };

  /// The fast path's hooks: no subscription, the FastHandle, the stamp at
  /// the commit point and, in durable mode, the post-_xend persist.
  struct FastHooks : detail::HwHooks {
    HybridTm& tm;
    ThreadCtx& ctx;
    bool durable;
    TmWord wv = 0;  ///< commit version the durable unlock releases to

    bool ready() {
      ctx.fast_written_.clear();
      if (durable) ctx.fast_redo_.clear();  // aborted attempts leave entries behind
      return true;
    }
    FastHandle handle(typename H::Tx& t) {
      return FastHandle{t, tm.u_.stripes(), ctx.fast_written_,
                        durable ? &ctx.fast_redo_ : nullptr};
    }
    void stamp(typename H::Tx& t) { tm.fast_commit_stamp(t, ctx.fast_written_, &wv); }
    void committed() {
      if (ctx.fast_written_.empty()) return;
      // The commit stored no clock: nothing to count as a publish. Cached
      // mode still refreshes its home socket cache.
      tm.u_.clock().publish_home();
      if (durable) {
        tm.durable_publish(ctx, ctx.fast_redo_, ctx.fast_written_.items(), wv,
                           pmem::kPathRh1Fast);
      }
    }
  };

  template <class Body>
  void run(ThreadCtx& ctx, Body& body) {
    if (cfg_.force_slow_path || cfg_.force_rh2) {
      run_slow(ctx, body, cfg_.force_rh2);
      return;
    }
    if (ctx.cm().start_in_software()) {
      run_slow(ctx, body, false);  // adaptive software mode: skip doomed hardware
      return;
    }
    if (ctx.run_hardware(u_.htm(), injector_, ExecPath::kRh1Fast,
                         FastHooks{{}, *this, ctx, u_.durable()}, body)) {
      return;
    }
    ctx.record_escalate(ExecPath::kRh1Slow);
    run_slow(ctx, body, false);
  }

  /// Commit-point publication for the fast path: one stamp at clock + 1 per
  /// distinct written stripe (stamp_write_stripes). The clock is loaded,
  /// never stored (hw_peek_next; the header says why).
  ///
  /// In durable mode the stamps carry the lock bit: the transaction's
  /// in-memory effects become visible at _xend, but every written stripe
  /// stays locked until durable_publish() has logged, marked and applied
  /// them — so no reader consumes state that is not yet on the durable
  /// medium. `*wv_out` receives the commit version the post-_xend unlock
  /// releases to.
  void fast_commit_stamp(typename H::Tx& t, const StripeSet& written, TmWord* wv_out) {
    if (written.empty()) return;
    const TmWord wv = u_.clock().hw_peek_next(t);
    stamp_write_stripes(t, written.items(), StripeTable::commit_stamp(wv, u_.durable()));
    *wv_out = wv;
  }

  /// The write-stripe loop of the fast and reduced commits: one stamp per
  /// stripe, each tested first only where a lock or a visible reader can
  /// exist — the lock bit while an RH2 transaction is live or in durable
  /// mode, the read mask while an RH2 transaction is live. With the RH2
  /// word zero in a non-durable universe no stripe word is loaded at all.
  void stamp_write_stripes(typename H::Tx& t, const std::vector<std::uint32_t>& stripes,
                           TmWord stamp) {
    StripeTable& st = u_.stripes();
    const bool check_masks = t.load(u_.rh2_word()) != 0;
    const bool check_locks = check_masks || u_.durable();
    for (std::size_t i = 0; i < stripes.size(); ++i) {
      if (i + 1 < stripes.size()) st.prefetch_word(stripes[i + 1], /*for_write=*/true);
      const std::uint32_t s = stripes[i];
      if (check_locks) {
        if (StripeTable::is_locked(t.load(st.word(s)))) t.abort_explicit();
        if (check_masks && t.load(st.read_mask(s)) != 0) t.abort_explicit();
      }
      t.store(st.word(s), stamp);
    }
  }

  // ---------------------------------------------------------------- slow --
  /// RH2 visible-read barrier; the RH1-slow barrier is the plain Tl2Handle.
  struct Rh2Handle {
    HybridTm& tm;
    ThreadCtx& ctx;
    TmWord rv;

    TmWord load(const TmCell& c) {
      if (const WriteEntry* e = ctx.sw_.ws.find(c)) return e->value;
      const std::size_t s = tm.u_.stripes().index_of(&c);
      tm.publish_once(ctx, static_cast<std::uint32_t>(s));
      return detail::stripe_validated_read(tm.u_, c, s, rv, ctx.sw_.rs);
    }

    void store(TmCell& c, TmWord v) {
      ctx.sw_.ws.put(c, v, static_cast<std::uint32_t>(tm.u_.stripes().index_of(&c)));
    }
  };

  /// The software body: RH1-slow (TL2 barriers + reduced hardware commit)
  /// until the reduced commit overflows the hardware, then RH2 (visible
  /// reads + write-set-only hardware commit, falling back to slow-slow).
  template <class Body>
  void run_slow(ThreadCtx& ctx, Body& body, bool rh2) {
    detail::Tl2Sets& sw = ctx.sw_;
    const ExecPath first = rh2 ? ExecPath::kRh2Slow : ExecPath::kRh1Slow;
    ctx.run_software(first, &u_, [&](ExecPath& path, TmWord rv) -> std::optional<ExecPath> {
      sw.rs.clear();
      sw.ws.clear();
      if (path == ExecPath::kRh1Slow) {
        detail::Tl2Handle<H> h{u_, sw.rs, sw.ws, rv};
        body(h);
        if (rh1_reduced_commit(ctx, rv)) return ExecPath::kRh1Slow;
        path = ExecPath::kRh2Slow;  // commit exceeds the hardware budget: go visible
        ctx.record_escalate(ExecPath::kRh2Slow);
        return std::nullopt;
      }
      TmCell& active = u_.rh2_word();
      u_.htm().nontx_fetch_add(active, 1);
      ctx.masks_.clear();
      try {
        Rh2Handle h{*this, ctx, rv};
        body(h);
        const ExecPath tier = rh2_commit(ctx, rv);
        unpublish_all(ctx);
        u_.htm().nontx_fetch_add(active, ~TmWord{0});  // -1
        return tier;
      } catch (...) {
        unpublish_all(ctx);
        u_.htm().nontx_fetch_add(active, ~TmWord{0});
        throw;
      }
    });
  }

  /// The reduced hardware commit (§2.1): metadata-only read validation +
  /// write-set publication in one short HTM transaction. Returns false when
  /// the commit transaction cannot fit in hardware (escalate to RH2);
  /// throws StmAbort when validation fails (retry the whole transaction).
  ///
  /// Both metadata loops run over exact-deduped stripe views (the ReadSet
  /// logs each stripe once, the WriteSet keeps a distinct-stripe list), so
  /// the transaction's hardware footprint is proportional to the DISTINCT
  /// stripe count of the transaction — re-reading a hot stripe a hundred
  /// times costs one commit-time load, not a hundred.
  bool rh1_reduced_commit(ThreadCtx& ctx, TmWord rv) {
    detail::Tl2Sets& sw = ctx.sw_;
    if (sw.ws.empty()) return true;  // read-only: access-time validation suffices
    StripeTable& st = u_.stripes();
    const bool durable = u_.durable();
    unsigned tries = 0;
    for (;;) {
      TmWord wv_out = 0;
      const HtmOutcome out = u_.htm().execute(ctx.tx_, [&](typename H::Tx& t) {
        const auto& read_stripes = sw.rs.stripes();  // distinct by construction
        for (std::size_t i = 0; i < read_stripes.size(); ++i) {
          // Hide the next validation load's miss behind this one's check:
          // the stripe list is exact-deduped insertion order, so the walk
          // has no stride the hardware prefetcher could learn.
          if (i + 1 < read_stripes.size()) st.prefetch_word(read_stripes[i + 1]);
          const TmWord w = t.load(st.word(read_stripes[i]));
          if (StripeTable::is_locked(w) || StripeTable::version_of(w) > rv) {
            t.abort_explicit();
          }
        }
        const TmWord wv = u_.clock().hw_next(t);
        // Durable: stamp LOCKED inside the hardware transaction, so the
        // values published at _xend stay unreadable until durable_publish()
        // has persisted them and unlocked to wv (fine-grained fast-path
        // locking — the reduced commit stays lock-free in non-durable mode).
        stamp_write_stripes(t, sw.ws.write_stripes(), StripeTable::commit_stamp(wv, durable));
        for (const WriteEntry& e : sw.ws.entries()) {
          t.store(*e.cell, e.value);
        }
        wv_out = wv;
      });
      if (out.ok()) {
        u_.clock().note_hw_commit();
        if (durable) {
          durable_publish(ctx, sw.ws.entries(), sw.ws.write_stripes(), wv_out, pmem::kPathRh1);
        }
        return true;
      }
      if (out.status == HtmStatus::kCapacity) {
        // The reduced commit itself overflowed hardware; the transaction
        // re-executes with visible reads (RH2), so this is a real abort —
        // count it, or capacity escalation is invisible in every report.
        ctx.record_abort(AbortCause::kHtmCapacity);
        return false;
      }
      if (out.status == HtmStatus::kExplicit || ++tries >= kCommitRetries) {
        throw detail::StmAbort{AbortCause::kStmValidation};
      }
      ctx.cm().backoff_commit(tries);
    }
  }

  /// RH2 commit: write-set-only hardware transaction. Reads are protected by
  /// the published masks, so the transaction never touches read metadata —
  /// it only refuses to overwrite stripes carrying *foreign* readers.
  /// Escalates to the all-software slow-slow commit when hardware fails.
  ExecPath rh2_commit(ThreadCtx& ctx, TmWord rv) {
    detail::Tl2Sets& sw = ctx.sw_;
    if (sw.ws.empty()) return ExecPath::kRh2Slow;  // visible reads validated at access
    StripeTable& st = u_.stripes();
    const bool durable = u_.durable();
    unsigned tries = 0;
    for (;;) {
      TmWord wv_out = 0;
      const HtmOutcome out = u_.htm().execute(ctx.tx_, [&](typename H::Tx& t) {
        const TmWord wv = u_.clock().hw_next(t);
        // Same durable discipline as the reduced commit: locked stamps in
        // hardware, persist + unlock after _xend.
        const TmWord stamped = StripeTable::commit_stamp(wv, durable);
        for (const std::uint32_t s : sw.ws.write_stripes()) {  // one check+stamp each
          const TmWord w = t.load(st.word(s));
          if (StripeTable::is_locked(w) || StripeTable::version_of(w) > rv) {
            t.abort_explicit();
          }
          if (t.load(st.read_mask(s)) > self_mask(ctx, s)) {
            t.abort_explicit();  // a foreign visible reader holds this stripe
          }
          t.store(st.word(s), stamped);
        }
        for (const WriteEntry& e : sw.ws.entries()) {
          t.store(*e.cell, e.value);
        }
        wv_out = wv;
      });
      if (out.ok()) {
        u_.clock().note_hw_commit();
        if (durable) {
          durable_publish(ctx, sw.ws.entries(), sw.ws.write_stripes(), wv_out, pmem::kPathRh2);
        }
        return ExecPath::kRh2Slow;
      }
      if (out.status == HtmStatus::kExplicit) throw detail::StmAbort{AbortCause::kStmValidation};
      if (out.status == HtmStatus::kCapacity || ++tries >= kCommitRetries) {
        if (out.status == HtmStatus::kCapacity) {
          // Same observability rule as the reduced commit: the hardware
          // commit overflowed, and escalation must be visible in reports
          // even though the slow-slow commit completes this same attempt.
          ctx.record_abort(AbortCause::kHtmCapacity);
        }
        ctx.record_escalate(ExecPath::kRh2SlowSlow);
        detail::tl2_software_commit(u_, ctx, sw.rs, sw.ws, rv, sw.lock_scratch,
                                    /*beside_hardware=*/true, &ctx.masks_);
        return ExecPath::kRh2SlowSlow;
      }
      ctx.cm().backoff_commit(tries);
    }
  }

  /// Post-_xend persist step of the durable hardware commits (fast,
  /// reduced, RH2). The transaction already published its values and
  /// LOCKED stripe stamps atomically at _xend; while the locks are held, no
  /// reader — the durable fast path checks the lock bit, software reads
  /// validate it — can consume the new state. Persist (log, mark, apply),
  /// then release the locks to the commit version, so marker order
  /// respects stripe-conflict serialization. A crash anywhere in this
  /// sequence abandons only in-memory locks (they die with the process);
  /// recovery replays or discards from the log.
  template <class Entries, class Stripes>
  void durable_publish(ThreadCtx& ctx, const Entries& entries, const Stripes& stripes, TmWord wv,
                       const char* path) {
    detail::durable_persist(u_, ctx, entries, path, /*publish=*/false);
    for (const std::uint32_t s : stripes) u_.stripes().unlock_to(s, wv);
  }

  void publish_once(ThreadCtx& ctx, std::uint32_t stripe) {
    if (ctx.masks_.insert(stripe)) u_.stripes().publish_read(u_.htm(), stripe);
  }

  void unpublish_all(ThreadCtx& ctx) {
    for (const std::uint32_t s : ctx.masks_.items()) u_.stripes().unpublish_read(u_.htm(), s);
    ctx.masks_.clear();
  }

  /// 1 when this transaction published a read mask on `stripe`, else 0.
  /// O(1): the mask set is an exact stripe set, not a scanned list.
  [[nodiscard]] TmWord self_mask(const ThreadCtx& ctx, std::uint32_t stripe) const {
    return ctx.masks_.contains(stripe) ? 1 : 0;
  }

  TmUniverse<H>& u_;
  Config cfg_;
  AbortInjector injector_;
};

}  // namespace rhtm
