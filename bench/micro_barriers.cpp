// Microbenchmark: per-access barrier cost of each protocol's fast path on
// the emulated substrate — the paper's Figure-1 story at nanosecond scale.
// Each timed call runs one transaction performing N reads (or writes)
// through the protocol's handle, so ns_per_access ≈ the barrier cost.
//
//   HTM           read = 1 load                       write = 1 store
//   RH1 fast      read = 1 load                       write = store + stripe note
//                 (+ one stamp per distinct stripe at the commit point)
//   StandardHyTM  read = metadata load + branch + load; write adds the store
//   TL2           read = full STM read barrier         write = write-set insert
//
// Reads and writes are separate tables, each with its own primary metric.
// Neither metric is in the CI regression gate's sets, so both tables stay
// out of the gate, visibly: on a shared 4-core host the RH1-Fast/TL2 ratio
// of either table moved about 2x between runs at --seconds=0.01 and 0.1,
// and the fastest of five slices per run did not narrow it.

#include "registry.h"

namespace rhtm::bench {
namespace {

constexpr std::size_t kCells = 1024;
constexpr std::size_t kAccesses = 256;

template <class Tm>
double reads_ns_per_access(const Options& opt, TmUniverse<HtmEmul>& universe) {
  Tm tm(universe);
  typename Tm::ThreadCtx ctx(tm);
  std::vector<TVar<TmWord>> cells(kCells);
  std::size_t base = 0;
  const double ns = ns_per_op(opt.seconds, [&] {
    TmWord sum = 0;
    tm.atomically(ctx, [&](auto& tx) {
      sum = 0;
      for (std::size_t i = 0; i < kAccesses; ++i) {
        sum += cells[(base + i) & (kCells - 1)].read(tx);
      }
    });
    do_not_optimize(sum);
    base += kAccesses;
  });
  return ns / static_cast<double>(kAccesses);
}

template <class Tm>
double writes_ns_per_access(const Options& opt, TmUniverse<HtmEmul>& universe) {
  Tm tm(universe);
  typename Tm::ThreadCtx ctx(tm);
  std::vector<TVar<TmWord>> cells(kCells);
  std::size_t base = 0;
  const double ns = ns_per_op(opt.seconds, [&] {
    tm.atomically(ctx, [&](auto& tx) {
      for (std::size_t i = 0; i < kAccesses; ++i) {
        cells[(base + i) & (kCells - 1)].write(tx, i);
      }
    });
    base += kAccesses;
  });
  return ns / static_cast<double>(kAccesses);
}

/// One series per protocol in each of the read and write tables. Each
/// measurement gets a fresh universe.
template <class Tm>
void protocol_rows(const Options& opt, report::TableData& reads, report::TableData& writes,
                   const char* name) {
  const double x = static_cast<double>(kAccesses);
  {
    TmUniverse<HtmEmul> u;
    reads.add_series(name).add_point(x).set("read_ns_per_access",
                                            reads_ns_per_access<Tm>(opt, u));
  }
  {
    TmUniverse<HtmEmul> u;
    writes.add_series(name).add_point(x).set("write_ns_per_access",
                                             writes_ns_per_access<Tm>(opt, u));
  }
}

// Tracing-overhead series: the same barrier loop, once with no tracer (the
// disabled path — one predictable null-check branch per emission point) and
// once with a live tracer recording every event. The ISSUE's acceptance bar
// is that the untraced rows above stay within noise of the pre-trace
// baseline; these rows quantify what turning the recorder ON costs.
template <class Tm>
void tracing_row(const Options& opt, report::TableData& table, const char* name) {
  report::SeriesData& series = table.add_series(name);
  report::Point& p = series.add_point(static_cast<double>(kAccesses));
  double off = 0, on = 0;
  {
    TmUniverse<HtmEmul> u;
    off = reads_ns_per_access<Tm>(opt, u);
  }
  {
    trace::Tracer tracer;
    UniverseConfig cfg;
    cfg.tracer = &tracer;
    TmUniverse<HtmEmul> u(cfg);
    on = reads_ns_per_access<Tm>(opt, u);
  }
  p.set("read_ns_per_access", off);
  p.set("read_ns_per_access_traced", on);
  p.set("overhead_pct", off > 0 ? (on - off) / off * 100.0 : 0.0);
}

}  // namespace

RHTM_SCENARIO(micro_barriers, "—",
              "per-access barrier cost of each protocol's fast path (emul)") {
  report::BenchReport rep;
  rep.substrate = SubstrateTraits<HtmEmul>::kName;
  rep.set_meta("accesses_per_tx", std::to_string(kAccesses));
  report::TableData& reads =
      rep.add_table("Microbench - per-access read barrier cost of each protocol's fast path (emul)",
                    report::TableStyle::kWide, "accesses", "read_ns_per_access",
                    report::Better::kNone);
  report::TableData& writes = rep.add_table(
      "Microbench - per-access write barrier cost of each protocol's fast path (emul)",
      report::TableStyle::kWide, "accesses", "write_ns_per_access", report::Better::kNone);
  protocol_rows<EmulHtmOnly>(opt, reads, writes, "HTM");
  protocol_rows<EmulHybridTm>(opt, reads, writes, "RH1-Fast");
  protocol_rows<EmulStandardHytm>(opt, reads, writes, "StandardHyTM");
  protocol_rows<EmulTl2>(opt, reads, writes, "TL2");

  report::TableData& overhead =
      rep.add_table("Microbench - trace recorder overhead (emul, read path)",
                    report::TableStyle::kWide, "accesses", "overhead_pct", report::Better::kNone);
  tracing_row<EmulHtmOnly>(opt, overhead, "HTM");
  tracing_row<EmulHybridTm>(opt, overhead, "RH1-Fast");
  tracing_row<EmulTl2>(opt, overhead, "TL2");
  return rep;
}

}  // namespace rhtm::bench
