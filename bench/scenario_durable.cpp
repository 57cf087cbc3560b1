// Durability scenario — the persistence-mode universe (core/pmem.h) under
// throughput load. Every series runs with UniverseConfig::durable set, so
// each committed writer pays the full log-then-fence-then-apply pipeline:
// one pwb per logged element plus the record header, two pfences around the
// commit marker, one psync draining the image apply. Three tables:
//
//  1. Durable KV transfer throughput vs threads (AccountStore transfers —
//     2 reads + 2 writes per committed transfer).
//  2. The same runs re-keyed on fences_per_commit — the gate-visible
//     persistence-cost axis (the table is marked Better::kLower, so the
//     regression gate flags a *rising* RH1-Fast/TL2 fence ratio). The fence arithmetic is
//     path-independent by design (tests/durable_mode_test.cpp pins
//     pwb = 2n+2, pfence = 2, psync = 1 per n-entry durable commit), so
//     this ratio should sit at ~1.0: RH1's reduced hardware commit buys its
//     throughput without extra persistence traffic.
//  3. Durable MPMC queue throughput vs threads (enqueue/dequeue — 2-entry
//     durable commits on an inherently serializing hot spot).
//
// Substrate note: durability needs real commit atomicity — the durable
// hardware commits stamp stripes locked inside the transaction, which
// HtmEmul's no-rollback emulation cannot undo on abort (the same exclusion
// capacity_paths_test documents for its emul leg). A requested emul run is
// therefore remapped to sim, visibly: rep.substrate and the
// "emul_remapped_to" meta record the substitution.

#include "registry.h"
#include "workloads/account_store.h"
#include "workloads/txn_queue.h"

namespace rhtm::bench {
namespace {

constexpr std::size_t kAccounts = 1024;
constexpr TmWord kInitialBalance = 1 << 16;  ///< deep enough that transfers rarely no-op

/// The durable protocol set: every series that can capture a redo log.
/// HtmOnly is excluded by design (zero instrumentation, nowhere to capture —
/// core/htm_only.h) and PhasedTm/StandardHytm route durable work to their
/// software paths anyway, so the interesting matrix is the two baselines
/// against the RH1 flavours.
const Series kDurableSeries[] = {Series::kTl2, Series::kRh1Fast, Series::kRh1Mix100,
                                 Series::kHybridNorec};

[[nodiscard]] UniverseConfig durable_universe_config(bool full) {
  UniverseConfig ucfg;
  ucfg.durable = true;
  // One redo log per run (each point constructs a fresh universe): big
  // enough that a smoke/default run never fills it. A --full run can —
  // overflow is sticky and graceful (appends stop, the run continues), and
  // every point reports it as the log_overflowed metric so a clipped fence
  // count is never mistaken for a cheap protocol.
  ucfg.pmem.log_words = full ? (std::size_t{1} << 24) : (std::size_t{1} << 23);
  return ucfg;
}

/// One durable throughput run plus its persistence-cost counters, taken
/// from the run's own fresh PersistentDomain (no cross-run delta math).
struct DurableRun {
  ThroughputResult result;
  FenceCounts fences;
  bool overflowed = false;
};

void fill_durable_point(report::Point& p, const DurableRun& run) {
  fill_point(p, run.result);
  const double commits =
      run.result.stats.commits > 0 ? static_cast<double>(run.result.stats.commits) : 1.0;
  p.set("fences_per_commit", static_cast<double>(run.fences.total()) / commits);
  p.set("pwb_per_commit", static_cast<double>(run.fences.pwb) / commits);
  p.set("pfence_per_commit", static_cast<double>(run.fences.pfence) / commits);
  p.set("psync_per_commit", static_cast<double>(run.fences.psync) / commits);
  p.set("log_overflowed", run.overflowed ? 1.0 : 0.0);
}

/// Runs one durable series point over a fresh durable universe. The TL2
/// series doubles as the §3.1 calibration run: its measured abort ratio is
/// injected into the hardware-mode series of the same point, exactly like
/// the non-durable figures.
template <class H, class OpFactory>
DurableRun run_durable(Series series, unsigned threads, double seconds,
                       std::uint32_t inject_bp, OpFactory&& op, PinMode pin, bool full) {
  TmUniverse<H> universe(durable_universe_config(full));
  DurableRun run;
  run.result = run_series_point(universe, series, threads, seconds, inject_bp, op, pin);
  run.fences = universe.pmem().fence_counts();
  run.overflowed = universe.pmem().log_overflowed();
  return run;
}

template <class H, class OpFactory>
std::pair<std::uint32_t, DurableRun> calibrate_durable_tl2(unsigned threads, double seconds,
                                                           OpFactory&& op, PinMode pin,
                                                           bool full) {
  TmUniverse<H> universe(durable_universe_config(full));
  auto [inject_bp, result] = calibrate_tl2(universe, threads, seconds, op, pin);
  DurableRun run;
  run.result = std::move(result);
  run.fences = universe.pmem().fence_counts();
  run.overflowed = universe.pmem().log_overflowed();
  return {inject_bp, std::move(run)};
}

/// Fills one thread-count point of `tables` (same runs, different primary
/// metric per table) for every durable series.
template <class H, class OpFactory>
void add_durable_point(std::vector<report::TableData*> const& tables, std::size_t first,
                       unsigned threads, const Options& opt, OpFactory&& op) {
  const auto [inject_bp, tl2_run] =
      calibrate_durable_tl2<H>(threads, opt.calib_seconds, op, opt.pin, opt.full);
  std::size_t i = 0;
  for (const Series s : kDurableSeries) {
    DurableRun run = s == Series::kTl2
                         ? tl2_run
                         : run_durable<H>(s, threads, opt.seconds, inject_bp, op, opt.pin,
                                          opt.full);
    for (report::TableData* table : tables) {
      fill_durable_point(table->series[first + i].add_point(threads), run);
    }
    ++i;
  }
}

auto transfer_op(const AccountStore& store) {
  return [&store](auto& tm, auto& ctx, Xoshiro256& rng, unsigned) {
    const std::uint64_t from = rng.next_u64() % store.accounts();
    const std::uint64_t to = rng.next_u64() % store.accounts();
    const TmWord amount = 1 + rng.next_u64() % 8;
    tm.atomically(ctx, [&](auto& tx) { (void)store.transfer(tx, from, to, amount); });
  };
}

/// 1:1 producer/consumer split; a single-threaded run alternates roles by
/// coin flip so both sides make progress (same shape as scenario_queue).
auto queue_op(const TxnQueue& queue, unsigned threads) {
  return [&queue, threads](auto& tm, auto& ctx, Xoshiro256& rng, unsigned tid) {
    const bool produce = threads == 1 ? rng.percent_chance(50) : tid < threads / 2;
    if (produce) {
      const TmWord v = rng.next_u64();
      tm.atomically(ctx, [&](auto& tx) { (void)queue.enqueue(tx, v); });
    } else {
      TmWord sink = 0;
      tm.atomically(ctx, [&](auto& tx) { (void)queue.dequeue(tx, &sink); });
      do_not_optimize(sink);
    }
  };
}

template <class H>
void run_durable_scenario(const Options& opt, report::BenchReport& rep,
                          std::size_t queue_capacity) {
  AccountStore store(kAccounts, kInitialBalance);
  const std::string substrate(opt.substrate_name());

  report::TableData& kv = rep.add_table(
      "Durable KV transfer throughput vs threads (" + std::to_string(kAccounts) +
          " accounts, redo-logged commits, substrate=" + substrate + ")",
      report::TableStyle::kSweep);
  report::TableData& fences = rep.add_table(
      "Durable fence cost per commit, KV transfers (pwb+pfence+psync, substrate=" +
          substrate + ")",
      report::TableStyle::kSweep, "threads", "fences_per_commit", report::Better::kLower);
  for (const Series s : kDurableSeries) {
    kv.add_series(to_string(s));
    fences.add_series(to_string(s));
  }
  for (const unsigned threads : opt.threads) {
    add_durable_point<H>({&kv, &fences}, 0, threads, opt, transfer_op(store));
  }

  TxnQueue queue(queue_capacity);
  report::TableData& q = rep.add_table(
      "Durable MPMC queue throughput vs threads (capacity " +
          std::to_string(queue_capacity) + ", 1:1 producers:consumers, substrate=" +
          substrate + ")",
      report::TableStyle::kSweep);
  for (const Series s : kDurableSeries) q.add_series(to_string(s));
  for (const unsigned threads : opt.threads) {
    queue.unsafe_reset(queue_capacity / 2);
    add_durable_point<H>({&q}, 0, threads, opt, queue_op(queue, threads));
  }
}

}  // namespace

RHTM_SCENARIO(durable, "extension (durability)",
              "durable redo-logged commits: KV + queue throughput and "
              "fences-per-commit, durable protocol set") {
  // Durable commits need abort-capable hardware transactions (locked stripe
  // stamps inside the txn); HtmEmul cannot roll those back, so an emul
  // request runs on sim instead — recorded, never silent.
  Options eff = opt;
  const bool remapped = eff.substrate == SubstrateKind::kEmul;
  if (remapped) eff.substrate = SubstrateKind::kSim;

  report::BenchReport rep;
  rep.substrate = eff.substrate_name();
  const std::size_t queue_capacity = eff.full ? 65536 : 4096;
  rep.set_meta("workload", "durable account transfers + durable txn_queue");
  rep.set_meta("accounts", std::to_string(kAccounts));
  rep.set_meta("queue_capacity", std::to_string(queue_capacity));
  rep.set_meta("log_words", std::to_string(durable_universe_config(eff.full).pmem.log_words));
  if (remapped) rep.set_meta("emul_remapped_to", "sim");
  dispatch_substrate(eff, [&]<class H>(SubstrateTag<H>) {
    run_durable_scenario<H>(eff, rep, queue_capacity);
  });
  return rep;
}

}  // namespace rhtm::bench
