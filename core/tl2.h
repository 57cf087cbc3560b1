#pragma once

// TL2 — the software baseline and the shared STM machinery (read/write
// barriers and the all-software stripe-locked commit). The figure benches
// use Tl2<H> both as the "TL2" series and as the calibration run whose
// abort ratio is injected into the hardware-mode series. StandardHytm's
// software fallback and PhasedTm's software phase reuse detail::tl2_run.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/tx_skeleton.h"
#include "stm/read_set.h"
#include "stm/stripe_set.h"
#include "stm/write_set.h"

namespace rhtm {

namespace detail {

/// The post-validated software read (the TL2 read barrier's slow half,
/// shared by the TL2 and RH2 handles): stripe word, data word, stripe word
/// again — bracketed by the substrate's publication epoch so a hardware
/// commit's multi-word write-back (which software readers do not otherwise
/// synchronize with) can never interleave a torn view. Records the read in
/// `rs` on success; throws StmAbort on a locked or too-new stripe.
template <class H>
inline TmWord stripe_validated_read(TmUniverse<H>& u, const TmCell& c, std::size_t s, TmWord rv,
                                    ReadSet& rs) {
  StripeTable& st = u.stripes();
  for (;;) {
    const TmWord e1 = u.htm().publication_epoch();
    const TmWord w1 = st.word(s).word.load(std::memory_order_acquire);
    const TmWord val = c.word.load(std::memory_order_acquire);
    const TmWord w2 = st.word(s).word.load(std::memory_order_acquire);
    const TmWord e2 = u.htm().publication_epoch();
    if ((e1 & 1) != 0 || e1 != e2) {  // a publication overlapped: re-read
      cpu_relax();
      continue;
    }
    if (StripeTable::is_locked(w1)) throw StmAbort{AbortCause::kStmLocked};
    if (w1 != w2 || StripeTable::version_of(w1) > rv) {
      throw StmAbort{AbortCause::kStmValidation};
    }
    rs.add(static_cast<std::uint32_t>(s));
    return val;
  }
}

/// TL2 access barriers over a universe. Read: bloom-checked write-set
/// lookup, then stripe-validated post-read. Write: write-set insert.
template <class H>
struct Tl2Handle {
  TmUniverse<H>& u;
  ReadSet& rs;
  WriteSet& ws;
  TmWord rv;

  TmWord load(const TmCell& c) {
    if (const WriteEntry* e = ws.find(c)) return e->value;
    return stripe_validated_read(u, c, u.stripes().index_of(&c), rv, rs);
  }

  void store(TmCell& c, TmWord v) {
    ws.put(c, v, static_cast<std::uint32_t>(u.stripes().index_of(&c)));
  }
};

/// The all-software TL2 commit: lock the write stripes (deduplicated and
/// sorted), fetch a write version, revalidate the read-set, write back,
/// release to the new version. Throws StmAbort with locks released on any
/// failure.
///
/// The lock list is the write-set's exact deduped stripe view, sorted into
/// canonical order — every committer acquires in the same global order, so
/// two overlapping commits cannot each hold half of the other's stripes
/// and livelock. "Is this stripe mine?" during read validation is an O(1)
/// `wrote_stripe` probe; the old per-entry linear scan made large commits
/// O(W^2).
///
/// `self_read_masks`, when non-null, is the set of stripes on which the
/// committing transaction itself published an RH2 read mask; the commit
/// then refuses to overwrite a stripe that carries any *other* visible
/// reader (the RH2 slow-slow path's obligation).
///
/// `beside_hardware`: hardware commits on the universe may run while this
/// commit takes its locks (StandardHytm's fallback beside its hardware
/// path, RH2's slow-slow beside RH1 commits). The acquire then runs under
/// the substrate's nontx_exclusive: on `sim` a raw CAS landing between a
/// hardware commit's validation and its write-back would be overwritten by
/// the commit's stamp, and two commits would own the stripe. Tl2 has no
/// hardware path, and PhasedTm's software phase shuts its hardware out.
template <class H>
inline void tl2_software_commit(TmUniverse<H>& u, Recorder& rec, ReadSet& rs, WriteSet& ws,
                                TmWord rv, std::vector<std::uint32_t>& locked,
                                bool beside_hardware,
                                const StripeSet* self_read_masks = nullptr) {
  if (ws.empty()) return;  // read-only: post-validated reads suffice
  StripeTable& st = u.stripes();
  locked = ws.write_stripes();  // deduped; assign reuses the scratch capacity
  std::sort(locked.begin(), locked.end());
  std::size_t acquired = 0;
  const auto release_restore = [&] {
    for (std::size_t i = 0; i < acquired; ++i) st.unlock_restore(locked[i]);
  };
  const auto acquire_all = [&] {
    for (; acquired < locked.size(); ++acquired) {
      // The sorted stripe indices hash to scattered table words; prefetch
      // the next lock word (exclusive) so its miss overlaps this CAS.
      if (acquired + 1 < locked.size()) {
        st.prefetch_word(locked[acquired + 1], /*for_write=*/true);
      }
      if (!st.try_lock(locked[acquired])) return false;
    }
    return true;
  };
  if (!(beside_hardware ? u.htm().nontx_exclusive(acquire_all) : acquire_all())) {
    release_restore();
    throw StmAbort{AbortCause::kStmLocked};
  }
  if (self_read_masks != nullptr) {
    for (const std::uint32_t s : locked) {
      // publish_once guarantees at most one own mask per stripe.
      const TmWord self = self_read_masks->contains(s) ? 1 : 0;
      if (st.readers(s) > self) {
        release_restore();
        throw StmAbort{AbortCause::kStmLocked};
      }
    }
  }
  const TmWord wv = u.clock().next();
  const auto is_self = [&](std::uint32_t s) { return ws.wrote_stripe(s); };
  if (!rs.validate(st, rv, is_self)) {
    release_restore();
    throw StmAbort{AbortCause::kStmValidation};
  }
  // Durable: stripe locks stay held across the whole persist sequence, so
  // the commit marker lands in stripe-lock serialization order and no
  // reader observes the new values before they are durably marked. RH2's
  // slow-slow escalation funnels through here too.
  write_back(u, rec, ws.entries(), pmem::kPathTl2);
  for (const std::uint32_t s : locked) st.unlock_to(s, wv);
  u.clock().publish_home();  // cached-clock lazy propagation; no-op otherwise
}

/// The software read and write sets of a TL2-style software path, plus the
/// commit's lock-order scratch.
struct Tl2Sets {
  ReadSet rs;
  WriteSet ws;
  std::vector<std::uint32_t> lock_scratch;
};

/// Full TL2 transaction: software attempts until one commits, recorded on
/// the software tier. Callers that escalate into it have already recorded
/// the begin. `beside_hardware` as for tl2_software_commit.
template <class H, class Body>
inline void tl2_run(TmUniverse<H>& u, ThreadCtxBase<H>& ctx, Tl2Sets& sw, Body& body,
                    bool beside_hardware) {
  ctx.run_software(ExecPath::kStm, &u, [&](ExecPath, TmWord rv) -> std::optional<ExecPath> {
    sw.rs.clear();
    sw.ws.clear();
    Tl2Handle<H> h{u, sw.rs, sw.ws, rv};
    body(h);
    tl2_software_commit(u, ctx, sw.rs, sw.ws, rv, sw.lock_scratch, beside_hardware);
    return ExecPath::kStm;
  });
}

}  // namespace detail

template <class H>
class Tl2 {
 public:
  struct Config {};

  class ThreadCtx : public ThreadCtxBase<H> {
   public:
    explicit ThreadCtx(Tl2& tm)
        : ThreadCtxBase<H>(tm.u_, ContentionManager::Limits{}, StripeLockUse::kLocker) {}

   private:
    friend class Tl2;
    detail::Tl2Sets sw_;
  };

  explicit Tl2(TmUniverse<H>& u, Config = {}) : u_(u) {}

  template <class Body>
  void atomically(ThreadCtx& ctx, Body&& body) {
    ctx.transaction([&] { detail::tl2_run(u_, ctx, ctx.sw_, body, /*beside_hardware=*/false); });
  }

 private:
  TmUniverse<H>& u_;
};

}  // namespace rhtm
