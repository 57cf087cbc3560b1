#pragma once

// HtmOnly — the paper's "HTM" series: every transaction is one hardware
// transaction with completely uninstrumented accesses. The only concession
// to liveness is the universe's fallback seqlock for transactions that
// deterministically exceed the hardware budget (classic lock elision);
// hardware attempts subscribe to the fallback lock so the two are mutually
// atomic on the simulated substrate.
//
// With an elision budget (Config::max_hw_attempts > 0) the same protocol is
// the TATAS lock-elision baseline (bench series "TATAS-Elide"): a
// test-and-test-and-set lock whose critical sections speculate in hardware
// with the lock word subscribed, and which is actually taken after the
// budget. It has no STM, no stripe metadata and no concurrency in the
// fallback, so its throughput isolates what the ContentionManager's retry
// decisions are worth before any TM machinery is added.
//
// HtmOnly is NOT durable-capable: with zero instrumentation there is
// nowhere to capture a redo log, so it ignores TmUniverse durability mode
// (the durable scenarios exclude it). The durable hardware-commit designs
// live in core/rh1.h and core/ext_hybrids.h.

#include <cstdint>

#include "core/tx_skeleton.h"

namespace rhtm {

template <class H>
class HtmOnly {
 public:
  struct Config {
    std::uint32_t inject_abort_bp = 0;
    unsigned capacity_retries = 4;  ///< capacity aborts before the lock fallback
    unsigned max_hw_attempts = 0;   ///< hardware attempts before the lock; 0 = unbounded
  };

  class ThreadCtx : public ThreadCtxBase<H> {
   public:
    explicit ThreadCtx(HtmOnly& tm)
        : ThreadCtxBase<H>(tm.u_, ContentionManager::Limits{0, tm.cfg_.max_hw_attempts,
                                                            tm.cfg_.capacity_retries}) {}
  };

  explicit HtmOnly(TmUniverse<H>& u, Config cfg = {})
      : u_(u), cfg_(cfg), injector_(cfg.inject_abort_bp) {}

  template <class Body>
  void atomically(ThreadCtx& ctx, Body&& body) {
    ctx.transaction([&] {
      // Fixed policy gives up only on deterministic overflow (or the elision
      // budget); adaptive may also retire a hopeless conflict streak.
      if (!ctx.cm().start_in_software() &&
          ctx.run_hardware(u_.htm(), injector_, ExecPath::kHtm, Hooks{{}, u_}, body)) {
        return;
      }
      ctx.run_under_lock(u_, body);
    });
  }

 private:
  /// Plain accesses after subscribing to the fallback lock.
  struct Hooks : detail::HwHooks {
    TmUniverse<H>& u;
    template <class Tx>
    void subscribe(Tx& t) {
      detail::subscribe_lock_word(t, u.fallback_lock_word());
    }
  };

  TmUniverse<H>& u_;
  Config cfg_;
  AbortInjector injector_;
};

}  // namespace rhtm
