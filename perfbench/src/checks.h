#pragma once

// Output checks. Each returns true when the output is right; the caller
// counts a false as one failed operation (an end-of-run check that fails
// fails every operation of that run). selftest() feeds every check a
// corrupted result and expects it caught, so a check that silently passes
// everything is itself reported.

#include <cstdint>
#include <cstdio>

#include "core/cell.h"

namespace perfbench::checks {

using rhtm::TmWord;

/// tree-read: the tree holds exactly the odd keys below 2n, and keys are
/// drawn from [0, 2n), so a lookup or update hits iff the key is odd.
inline bool tree_hit_ok(std::uint64_t key, bool hit) { return hit == ((key & 1) != 0); }

/// tree-read update value for `key`: a marker bit, the key, and a 24-bit
/// hash of the key. ConstantRbTree::update writes it to the node holding
/// `key`, or, when `key` is absent, to the last node of its search path —
/// the in-order neighbour key - 1 or key + 1.
inline TmWord tree_tag(std::uint64_t key) {
  std::uint64_t z = key * 0x9e3779b97f4a7c15ull;
  z ^= z >> 29;
  return (TmWord{1} << 63) | (key << 24) | (z & 0xffffff);
}

/// A node's value is right when it is the value the tree was built with
/// (node index (key - 1) / 2) or an intact tag written for this key or one
/// of its two neighbours. A write routed to the wrong node, a torn or
/// stale value from another cell, or a lost marker fails it.
inline bool tree_value_ok(std::uint64_t node_key, TmWord v) {
  if (v == (node_key - 1) / 2) return true;
  const std::uint64_t k = (v >> 24) & ((std::uint64_t{1} << 39) - 1);
  return v == tree_tag(k) && k + 1 >= node_key && k <= node_key + 1;
}

/// tree-read end of run: every key in [0, 2n) still answers by parity, and
/// every present key holds a right value. `lookup(key, &value)` returns hit.
template <class Lookup>
bool tree_shape_ok(std::uint64_t n, Lookup&& lookup) {
  for (std::uint64_t key = 0; key < 2 * n; ++key) {
    TmWord v = 0;
    const bool hit = lookup(key, &v);
    if (!tree_hit_ok(key, hit) || (hit && !tree_value_ok(key, v))) return false;
  }
  return true;
}

/// bank-open: a committed audit sees exactly the minted total.
inline bool audit_ok(TmWord sum, TmWord minted) { return sum == minted; }

/// batch-write / bank-open end of run: transfers conserve value. Balances
/// start at 2^20 and a transfer moves at most 64, so no transfer of a run
/// meets insufficient funds; conservation is the check on every write.
inline bool conservation_ok(TmWord total, TmWord minted) { return total == minted; }

/// Each check must reject a corrupted result. Returns the number of checks
/// that let one through (0 = pass) and names them on stderr.
inline int selftest() {
  int missed = 0;
  const auto expect_caught = [&](bool verdict, const char* what) {
    if (verdict) {
      std::fprintf(stderr, "selftest: check missed a corrupted %s\n", what);
      ++missed;
    }
  };
  const auto expect_passed = [&](bool verdict, const char* what) {
    if (!verdict) {
      std::fprintf(stderr, "selftest: check rejected a correct %s\n", what);
      ++missed;
    }
  };
  expect_caught(tree_hit_ok(7, false), "tree lookup (odd key reported absent)");
  expect_caught(tree_hit_ok(8, true), "tree lookup (even key reported present)");
  expect_passed(tree_hit_ok(7, true) && tree_hit_ok(8, false), "tree lookup");
  expect_passed(tree_value_ok(7, 3) && tree_value_ok(7, tree_tag(6)) &&
                    tree_value_ok(7, tree_tag(7)) && tree_value_ok(7, tree_tag(8)),
                "tree value");
  expect_caught(tree_value_ok(7, tree_tag(9)), "tree value (written for another node)");
  expect_caught(tree_value_ok(7, 4), "tree value (another node's initial value)");
  expect_caught(tree_value_ok(7, tree_tag(7) ^ 1), "tree value (tag bit flipped)");
  expect_caught(tree_value_ok(7, tree_tag(7) & ~(TmWord{1} << 63)), "tree value (marker lost)");
  expect_caught(tree_shape_ok(64, [](std::uint64_t k, TmWord* v) {
                  *v = tree_tag(k);
                  return (k & 1) != 0 && k != 33;
                }),
                "tree shape (one key lost)");
  expect_caught(tree_shape_ok(64, [](std::uint64_t k, TmWord* v) {
                  *v = k == 41 ? tree_tag(45) : tree_tag(k);
                  return (k & 1) != 0;
                }),
                "tree shape (one value misrouted)");
  expect_passed(tree_shape_ok(64, [](std::uint64_t k, TmWord* v) {
                  *v = (k - 1) / 2;
                  return (k & 1) != 0;
                }),
                "tree shape");
  expect_caught(audit_ok(1000 - 3, 1000), "audit sum (torn by a partial transfer)");
  expect_passed(audit_ok(1000, 1000), "audit sum");
  expect_caught(conservation_ok(1000 + 1, 1000), "end-of-run total");
  expect_passed(conservation_ok(1000, 1000), "end-of-run total");
  return missed;
}

}  // namespace perfbench::checks
