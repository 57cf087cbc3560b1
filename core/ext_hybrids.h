#pragma once

// The two alternative hybrid designs RH1 was proposed to replace (§1),
// implemented for the ext_hybrids bench:
//
//  * HybridNorec — tiny instrumentation (one global sequence lock), but a
//    writer's commit bumps the sequence word that every concurrent hardware
//    transaction has subscribed to, so writer commits abort ALL overlapping
//    hardware transactions: coarse-grained conflicts.
//
//  * PhasedTm — runs everyone in uninstrumented hardware while it can, but
//    a single transaction needing software flips a global phase word and
//    drags every thread into the STM phase until the stragglers drain.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/tl2.h"

namespace rhtm {

// ---------------------------------------------------------------------------
// HybridNorec
// ---------------------------------------------------------------------------
template <class H>
class HybridNorec {
 public:
  struct Config {
    std::uint32_t inject_abort_bp = 0;
    unsigned max_hw_attempts = 8;  ///< 0: every transaction runs in software
  };
  static constexpr unsigned kCapacityRetries = 2;

  class ThreadCtx : public ThreadCtxBase<H> {
   public:
    explicit ThreadCtx(HybridNorec& tm)
        : ThreadCtxBase<H>(tm.u_, ContentionManager::Limits{0, tm.cfg_.max_hw_attempts,
                                                            kCapacityRetries}) {}

   private:
    friend class HybridNorec;
    WriteSet ws_;
    std::vector<std::pair<const TmCell*, TmWord>> read_log_;  ///< value-based (NOrec)
    std::vector<pmem::CapturedWrite> hw_redo_;  ///< durable: hw-path write capture
  };

  explicit HybridNorec(TmUniverse<H>& u, Config cfg = {})
      : u_(u), cfg_(cfg), injector_(cfg.inject_abort_bp) {}

  template <class Body>
  void atomically(ThreadCtx& ctx, Body&& body) {
    ctx.transaction([&] { run(ctx, body); });
  }

 private:
  /// Hardware handle: plain accesses; only tracks whether we wrote (and, in
  /// durable mode, captures the writes for the post-_xend redo log).
  struct HwHandle {
    typename H::Tx& t;
    bool& wrote;
    std::vector<pmem::CapturedWrite>* redo;  ///< non-null in durable mode
    TmWord load(const TmCell& c) { return t.load(c); }
    void store(TmCell& c, TmWord v) {
      wrote = true;
      t.store(c, v);
      if (redo != nullptr) redo->push_back({&c, v});
    }
  };

  /// Hardware attempt: subscribe to the sequence lock, run plain, and have
  /// a writer bump the sequence at its commit point.
  struct Hooks {
    HybridNorec& tm;
    ThreadCtx& ctx;
    bool durable;
    bool wrote = false;
    TmWord s0 = 0;  ///< the sequence value the attempt subscribed at

    bool ready() {
      wrote = false;
      if (durable) ctx.hw_redo_.clear();  // aborted attempts leave entries behind
      return true;
    }
    void subscribe(typename H::Tx& t) {
      s0 = t.load(tm.u_.norec_seq_word());
      if ((s0 & 1) != 0) t.abort_explicit();
    }
    HwHandle handle(typename H::Tx& t) {
      return HwHandle{t, wrote, durable ? &ctx.hw_redo_ : nullptr};
    }
    void stamp(typename H::Tx& t) {
      // Durable writers come out of _xend still HOLDING the sequence lock
      // (odd): the values are in memory, but every concurrent reader —
      // hardware txns subscribe to the sequence, software revalidates
      // against it — is fenced out until the post-_xend persist releases
      // it. The non-durable commit bump releases immediately (s0 + 2).
      if (wrote) t.store(tm.u_.norec_seq_word(), durable ? s0 + 1 : s0 + 2);
    }
    void committed() {
      if (!durable || !wrote) return;
      detail::durable_persist(tm.u_, ctx, ctx.hw_redo_, pmem::kPathNorecHw,
                              /*publish=*/false);
      tm.u_.htm().nontx_store(tm.u_.norec_seq_word(), s0 + 2);
    }
  };

  /// Software handle: NOrec value-based read log + buffered writes.
  struct SwHandle {
    HybridNorec& tm;
    ThreadCtx& ctx;
    TmWord& snapshot;

    TmWord load(const TmCell& c) {
      if (const WriteEntry* e = ctx.ws_.find(c)) return e->value;
      for (;;) {
        // Epoch-bracketed so a hardware commit's multi-word write-back (data
        // stores before its seq bump) cannot slip a torn value past the
        // snapshot check.
        const TmWord e1 = tm.u_.htm().publication_epoch();
        const TmWord val = tm.u_.htm().nontx_load(c);
        const TmWord e2 = tm.u_.htm().publication_epoch();
        if ((e1 & 1) != 0 || e1 != e2) {
          detail::cpu_relax();
          continue;
        }
        if (tm.u_.htm().nontx_load(tm.u_.norec_seq_word()) != snapshot) {
          snapshot = tm.revalidate(ctx);
          continue;
        }
        // Consecutive re-reads of the same cell add nothing to value-based
        // revalidation (an unchanged seq snapshot pins the value), so the
        // log — like the stripe-indexed sets — only grows on new
        // observations. Prefix-scan shapes no longer quadruple it.
        if (ctx.read_log_.empty() || ctx.read_log_.back().first != &c) {
          ctx.read_log_.push_back({&c, val});
        }
        return val;
      }
    }

    // NOrec has no stripe metadata; the write-set's stripe field is unused.
    void store(TmCell& c, TmWord v) { ctx.ws_.put(c, v, 0); }
  };

  template <class Body>
  void run(ThreadCtx& ctx, Body& body) {
    // max_hw_attempts == 0 disables the hardware path outright (the crash
    // harness uses it to force the software commit path deterministically).
    if (cfg_.max_hw_attempts == 0 || ctx.cm().start_in_software()) {
      run_software(ctx, body);
      return;
    }
    if (ctx.run_hardware(u_.htm(), injector_, ExecPath::kHtm, Hooks{*this, ctx, u_.durable()},
                         body)) {
      return;
    }
    ctx.record_escalate(ExecPath::kStm);
    run_software(ctx, body);
  }

  template <class Body>
  void run_software(ThreadCtx& ctx, Body& body) {
    TmCell& seq = u_.norec_seq_word();
    ctx.run_software(ExecPath::kStm, nullptr, [&](ExecPath, TmWord) -> std::optional<ExecPath> {
      ctx.ws_.clear();
      ctx.read_log_.clear();
      TmWord snapshot = wait_quiescent();
      SwHandle h{*this, ctx, snapshot};
      body(h);
      if (!ctx.ws_.empty()) {
        // Acquire the sequence lock at our validated snapshot, through the
        // substrate so the CAS cannot land inside a simulated hardware
        // commit's validate -> write-back window.
        while (!u_.htm().nontx_cas(seq, snapshot, snapshot + 1)) snapshot = revalidate(ctx);
        // Sequence lock held (odd) across the whole write-back: in durable
        // mode log + mark before values become visible, apply before release.
        detail::write_back(u_, ctx, ctx.ws_.entries(), pmem::kPathNorecSw);
        u_.htm().nontx_store(seq, snapshot + 2);
      }
      return ExecPath::kStm;
    });
  }

  TmWord wait_quiescent() {
    for (;;) {
      const TmWord s = u_.htm().nontx_load(u_.norec_seq_word());
      if ((s & 1) == 0) return s;
      detail::cpu_relax();
    }
  }

  /// NOrec value-based revalidation: wait for a quiescent sequence, re-read
  /// every logged value, and adopt the new snapshot if nothing moved.
  TmWord revalidate(ThreadCtx& ctx) {
    for (;;) {
      const TmWord s = wait_quiescent();
      for (const auto& [cell, seen] : ctx.read_log_) {
        if (u_.htm().nontx_load(*cell) != seen) {
          throw detail::StmAbort{AbortCause::kStmValidation};
        }
      }
      if (u_.htm().nontx_load(u_.norec_seq_word()) == s) return s;
    }
  }

  TmUniverse<H>& u_;
  Config cfg_;
  AbortInjector injector_;
};

// ---------------------------------------------------------------------------
// PhasedTm
// ---------------------------------------------------------------------------
template <class H>
class PhasedTm {
 public:
  struct Config {
    std::uint32_t inject_abort_bp = 0;
  };
  static constexpr unsigned kMaxHwAttempts = 8;
  static constexpr unsigned kCapacityRetries = 2;

  class ThreadCtx : public ThreadCtxBase<H> {
   public:
    explicit ThreadCtx(PhasedTm& tm)
        : ThreadCtxBase<H>(tm.u_, ContentionManager::Limits{0, kMaxHwAttempts, kCapacityRetries},
                           StripeLockUse::kLocker) {}

   private:
    friend class PhasedTm;
    detail::Tl2Sets sw_;
  };

  explicit PhasedTm(TmUniverse<H>& u, Config cfg = {})
      : u_(u), cfg_(cfg), injector_(cfg.inject_abort_bp) {}

  template <class Body>
  void atomically(ThreadCtx& ctx, Body&& body) {
    ctx.transaction([&] { run(ctx, body); });
  }

  /// Exposed for tests: number of transactions currently in software mode.
  [[nodiscard]] TmWord software_pending() const { return u_.phase_word().unsafe_load(); }

 private:
  /// Hardware attempt: only while no software phase is active, and
  /// subscribed to the phase word so a phase flip aborts it.
  struct Hooks : detail::HwHooks {
    TmUniverse<H>& u;
    bool ready() { return u.htm().nontx_load(u.phase_word()) == 0; }
    template <class Tx>
    void subscribe(Tx& t) {
      if (t.load(u.phase_word()) != 0) t.abort_explicit();
    }
  };

  template <class Body>
  void run(ThreadCtx& ctx, Body& body) {
    // Durable universes always run the software phase: the uninstrumented
    // hardware handle captures no redo, so its commits could not be logged.
    // (HybridTm's fast path shows what a durable hardware phase costs; the
    // phased design's whole point is zero instrumentation, so it opts out.)
    if (!u_.durable() && !ctx.cm().start_in_software() &&
        ctx.run_hardware(u_.htm(), injector_, ExecPath::kHtm, Hooks{{}, u_}, body)) {
      return;
    }
    // Software phase: registering flips (or keeps) the phase word nonzero,
    // which aborts every in-flight hardware transaction and diverts new ones
    // here — the whole system pays STM until the count drains back to zero.
    ctx.record_escalate(ExecPath::kStm);
    u_.htm().nontx_fetch_add(u_.phase_word(), 1);
    detail::tl2_run(u_, ctx, ctx.sw_, body, /*beside_hardware=*/false);
    u_.htm().nontx_fetch_add(u_.phase_word(), ~TmWord{0});  // -1
  }

  TmUniverse<H>& u_;
  Config cfg_;
  AbortInjector injector_;
};

}  // namespace rhtm
