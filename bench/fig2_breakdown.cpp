// Figure 2 (middle + bottom) — single-thread speedup (normalised to TL2) and
// single-thread performance breakdown for the 100K-node constant RB-tree at
// 20% and 80% mutations.
//
// Breakdown semantics follow the paper's table: "Read/Write Time" is time in
// the read/write *barrier* — a path with no barrier (HTM reads and writes,
// RH1-fast reads) reports zero by construction and its memory accesses count
// as Private time. Commit time includes transaction begin/commit machinery;
// InterTX is everything between transactions (key selection, RNG, loop).

#include <array>

#include "registry.h"
#include "workloads/constant_rbtree.h"
#include "workloads/timed_handle.h"

namespace rhtm::bench {
namespace {

struct Row {
  const char* name;
  BreakdownResult breakdown;
  double plain_ops_per_sec = 0;  ///< untimed run — rdtsc wrapping inflates
                                 ///< barrier paths, so speedups use this
};

/// One transaction of the RB-tree workload through a TimedHandle with the
/// read/write timing flags of the series.
template <bool kTimeReads, bool kTimeWrites, class Tm, class Ctx>
void one_op(Tm& tm, Ctx& ctx, Xoshiro256& rng, TxStats& stats, std::uint64_t& body_cycles,
            ConstantRbTree& tree, unsigned write_percent) {
  const std::uint64_t key = rng.below(2 * tree.size());
  const bool is_write = rng.percent_chance(write_percent);
  tm.atomically(ctx, [&](auto& tx) {
    const std::uint64_t t0 = rdtsc();
    TimedHandle<std::decay_t<decltype(tx)>, kTimeReads, kTimeWrites> timed(tx, stats);
    if (is_write) {
      (void)tree.update(timed, key, rng.next_u64(), rng);
    } else {
      TmWord sink = 0;
      (void)tree.lookup(timed, key, &sink);
      do_not_optimize(sink);
    }
    body_cycles += rdtsc() - t0;
  });
}

template <class H>
void run_breakdowns(const Options& opt, report::BenchReport& rep, ConstantRbTree& tree,
                    unsigned write_percent) {
  TmUniverse<H> universe(universe_config(opt));
  const double secs = opt.seconds * 2;  // single point per series; can afford more

  // Untimed single-thread throughput (for the speedup column).
  const auto plain_run = [&](auto& tm) {
    const ThroughputResult r = run_throughput(
        tm, 1, secs, [&](auto& m, auto& ctx, Xoshiro256& rng, unsigned) {
          const std::uint64_t key = rng.below(2 * tree.size());
          if (rng.percent_chance(write_percent)) {
            m.atomically(ctx, [&](auto& tx) { (void)tree.update(tx, key, rng.next_u64(), rng); });
          } else {
            TmWord sink = 0;
            m.atomically(ctx, [&](auto& tx) { (void)tree.lookup(tx, key, &sink); });
            do_not_optimize(sink);
          }
        });
    return r.seconds > 0 ? static_cast<double>(r.total_ops) / r.seconds : 0.0;
  };

  std::array<Row, 5> rows{};
  std::size_t n = 0;

  {  // RH1 Slow — the mixed slow-path only (software body, HTM commit)
    typename HybridTm<H>::Config cfg;
    cfg.force_slow_path = true;
    HybridTm<H> tm(universe, cfg);
    rows[n++] = {"RH1-Slow",
                 run_breakdown(tm, secs,
                               [&](auto& m, auto& ctx, Xoshiro256& rng, TxStats& stats,
                                   std::uint64_t& body) {
                                 one_op<true, true>(m, ctx, rng, stats, body, tree, write_percent);
                               }),
                 plain_run(tm)};
  }
  {  // TL2
    Tl2<H> tm(universe);
    rows[n++] = {"TL2",
                 run_breakdown(tm, secs,
                               [&](auto& m, auto& ctx, Xoshiro256& rng, TxStats& stats,
                                   std::uint64_t& body) {
                                 one_op<true, true>(m, ctx, rng, stats, body, tree, write_percent);
                               }),
                 plain_run(tm)};
  }
  {  // Standard HyTM (hardware only) — barriers on reads and writes
    typename StandardHytm<H>::Config cfg;
    cfg.hardware_only = true;
    StandardHytm<H> tm(universe, cfg);
    rows[n++] = {"StandardHyTM",
                 run_breakdown(tm, secs,
                               [&](auto& m, auto& ctx, Xoshiro256& rng, TxStats& stats,
                                   std::uint64_t& body) {
                                 one_op<true, true>(m, ctx, rng, stats, body, tree, write_percent);
                               }),
                 plain_run(tm)};
  }
  {  // RH1 Fast — write barrier only (version store); reads uninstrumented
    typename HybridTm<H>::Config cfg;
    cfg.slow_retry_percent = 0;
    HybridTm<H> tm(universe, cfg);
    rows[n++] = {"RH1-Fast",
                 run_breakdown(tm, secs,
                               [&](auto& m, auto& ctx, Xoshiro256& rng, TxStats& stats,
                                   std::uint64_t& body) {
                                 one_op<false, true>(m, ctx, rng, stats, body, tree,
                                                     write_percent);
                               }),
                 plain_run(tm)};
  }
  {  // HTM — no barriers at all
    HtmOnly<H> tm(universe);
    rows[n++] = {"HTM",
                 run_breakdown(tm, secs,
                               [&](auto& m, auto& ctx, Xoshiro256& rng, TxStats& stats,
                                   std::uint64_t& body) {
                                 one_op<false, false>(m, ctx, rng, stats, body, tree,
                                                      write_percent);
                               }),
                 plain_run(tm)};
  }

  const double tl2_ops = rows[1].plain_ops_per_sec;

  report::TableData& table = rep.add_table(
      "Figure 2 - single-thread breakdown, RB-Tree " + std::to_string(write_percent) +
          "% mutations (substrate=" + opt.substrate_name() + ")",
      report::TableStyle::kWide, "write_percent", "speedup_vs_tl2",
      report::Better::kNone);
  for (std::size_t i = 0; i < n; ++i) {
    const BreakdownResult& b = rows[i].breakdown;
    report::Point& p = table.add_series(rows[i].name).add_point(write_percent);
    p.set("read_pct", b.read_pct);
    p.set("write_pct", b.write_pct);
    p.set("commit_pct", b.commit_pct);
    p.set("private_pct", b.private_pct);
    p.set("intertx_pct", b.intertx_pct);
    p.set("reads", static_cast<double>(b.reads));
    p.set("writes", static_cast<double>(b.writes));
    p.set("aborts", static_cast<double>(b.aborts));
    p.set("commits", static_cast<double>(b.commits));
    p.set("speedup_vs_tl2", tl2_ops > 0 ? rows[i].plain_ops_per_sec / tl2_ops : 0.0);
  }
}

template <class H>
void run_fig2_breakdown(const Options& opt, report::BenchReport& rep) {
  ConstantRbTree tree(100'000);
  run_breakdowns<H>(opt, rep, tree, 20);
  run_breakdowns<H>(opt, rep, tree, 80);
}

}  // namespace

RHTM_SCENARIO(fig2_breakdown, "Fig. 2 (mid+bot)",
              "Single-thread speedup vs TL2 + read/write/commit/private/intertx breakdown") {
  report::BenchReport rep;
  rep.substrate = opt.substrate_name();
  rep.set_meta("workload", "constant_rbtree/100000");
  rep.set_meta("write_percents", "20,80");
  dispatch_substrate(opt, [&]<class H>(SubstrateTag<H>) { run_fig2_breakdown<H>(opt, rep); });
  return rep;
}

}  // namespace rhtm::bench
