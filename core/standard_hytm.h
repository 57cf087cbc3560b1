#pragma once

// StandardHytm — the conventional hybrid baseline the paper argues against:
// the hardware path instruments *every* access with a stripe-metadata read
// (and writes additionally publish the stripe version), so hardware
// transactions pay a metadata load + branch per data access and generate
// coherence traffic on the stripe words. The software fallback is TL2.
//
// `hardware_only` is the paper's best-case configuration: the software
// fallback is disabled, so the series shows pure instrumentation overhead
// with no mixed-mode penalty (deterministic capacity overflows still take a
// non-speculative lock fallback for liveness).

#include <cstdint>

#include "core/tl2.h"
#include "stm/stripe_set.h"

namespace rhtm {

template <class H>
class StandardHytm {
 public:
  struct Config {
    bool hardware_only = false;
    std::uint32_t inject_abort_bp = 0;
  };
  static constexpr unsigned kMaxHwAttempts = 8;    ///< before falling back to software
  static constexpr unsigned kCapacityRetries = 2;  ///< capacity aborts before giving up on HW

  class ThreadCtx : public ThreadCtxBase<H> {
   public:
    explicit ThreadCtx(StandardHytm& tm)
        : ThreadCtxBase<H>(
              tm.u_,
              ContentionManager::Limits{0, tm.cfg_.hardware_only ? 0 : kMaxHwAttempts,
                                        kCapacityRetries},
              // hardware_only never reaches the TL2 fallback outside a
              // durable universe.
              tm.cfg_.hardware_only ? StripeLockUse::kNone : StripeLockUse::kLocker) {}

   private:
    friend class StandardHytm;
    detail::Tl2Sets sw_;
    StripeSet hw_written_;  ///< distinct stripes the hardware path stamps
  };

  explicit StandardHytm(TmUniverse<H>& u, Config cfg = {})
      : u_(u), cfg_(cfg), injector_(cfg.inject_abort_bp) {}

  template <class Body>
  void atomically(ThreadCtx& ctx, Body&& body) {
    ctx.transaction([&] { run(ctx, body); });
  }

 private:
  /// The instrumented hardware handle: metadata load + locked-check on every
  /// access; writes record their stripe (exactly deduplicated) for
  /// commit-time publication.
  struct HwHandle {
    typename H::Tx& t;
    StripeTable& st;
    StripeSet& written;

    TmWord load(const TmCell& c) {
      const std::size_t s = st.index_of(&c);
      if (StripeTable::is_locked(t.load(st.word(s)))) t.abort_explicit();
      return t.load(c);
    }
    void store(TmCell& c, TmWord v) {
      const std::size_t s = st.index_of(&c);
      if (StripeTable::is_locked(t.load(st.word(s)))) t.abort_explicit();
      t.store(c, v);
      written.insert(static_cast<std::uint32_t>(s));
    }
  };

  /// Instrumented accesses after subscribing to the fallback lock; the
  /// commit point stamps every written stripe.
  struct Hooks {
    StandardHytm& tm;
    StripeSet& written;

    bool ready() {
      written.clear();
      return true;
    }
    void subscribe(typename H::Tx& t) {
      detail::subscribe_lock_word(t, tm.u_.fallback_lock_word());
    }
    HwHandle handle(typename H::Tx& t) { return HwHandle{t, tm.u_.stripes(), written}; }
    void stamp(typename H::Tx& t) { tm.publish_stamps(t, written); }
    void committed() {
      if (!written.empty()) tm.u_.clock().note_hw_commit();
    }
  };

  template <class Body>
  void run(ThreadCtx& ctx, Body& body) {
    // Durable universes go straight to the TL2 fallback (which redo-logs
    // its write-back); the instrumented hardware handle has no redo capture
    // and the baseline's contract is not worth complicating — the durable
    // hardware commit story is HybridTm's (core/rh1.h).
    if (!u_.durable() && !ctx.cm().start_in_software() &&
        ctx.run_hardware(u_.htm(), injector_, ExecPath::kHtm, Hooks{*this, ctx.hw_written_},
                         body)) {
      return;
    }
    if (!u_.durable() && cfg_.hardware_only) {
      // No STM fallback in hardware-only mode: capacity overflow (and, under
      // the adaptive policy, a hopeless conflict streak) takes the
      // non-speculative lock for liveness.
      ctx.run_under_lock(u_, body);
      return;
    }
    ctx.record_escalate(ExecPath::kStm);
    detail::tl2_run(u_, ctx, ctx.sw_, body, /*beside_hardware=*/true);
  }

  /// Commit-point stamping: re-read the clock inside the transaction so the
  /// published version is provably newer than any concurrent software
  /// reader's read-version, then publish every written stripe exactly once.
  void publish_stamps(typename H::Tx& t, const StripeSet& written) {
    if (written.empty()) return;
    const TmWord wv = u_.clock().hw_next(t);
    for (const std::uint32_t s : written.items()) {
      t.store(u_.stripes().word(s), StripeTable::make_word(wv));
    }
  }

  TmUniverse<H>& u_;
  Config cfg_;
  AbortInjector injector_;
};

}  // namespace rhtm
