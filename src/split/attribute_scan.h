// AttributeScan: the per-(node, attribute) view all split finders share.
//
// It merges the effective sample points of every fractional tuple in the
// working set into one sorted axis and answers, for each position, the
// cumulative per-class probability mass (the paper's tuple-count function
// Phi_{c,j}, Definition 6). With it:
//   * candidate split points  = the positions (all but the last),
//   * left/right class counts = O(#classes) lookups,
//   * interval statistics (n_c, k_c, m_c) for the pruning bounds
//                             = two lookups per class,
//   * interval end points Q_j = tuple support boundaries mapped to
//     positions.
//
// Build cost is linear in the working set's sample events: the events
// carry their AttributeIndex rank, a stable radix sort orders them (tied x
// values keep working-set order), and one compress pass writes the
// positions. Storage is compact: per position its x and the end of its
// event run, per event its class and mass, and a full cumulative row only
// every kCheckpoint positions. A lookup replays the (at most
// kCheckpoint-1) positions after the checkpoint before it — the same
// additions, in the same order, as a row-per-position running sum, so
// every value is bitwise what that sum would hold. Sweeps over ascending
// positions go through a ScanCursor, which advances instead of replaying.

#ifndef UDT_SPLIT_ATTRIBUTE_SCAN_H_
#define UDT_SPLIT_ATTRIBUTE_SCAN_H_

#include <cstdint>
#include <vector>

#include "split/attribute_index.h"
#include "split/fractional_tuple.h"
#include "table/dataset.h"

namespace udt {

// Built once per (node, numerical attribute); immutable afterwards.
class AttributeScan {
 public:
  // A cumulative class-mass row is stored every kCheckpoint positions.
  static constexpr int kCheckpoint = 8;

  // An empty scan (no positions); Build() produces the real thing.
  AttributeScan() = default;

  // Builds the scan for `attribute` over `set`. Tuples contribute their
  // sample points restricted to their (lo, hi] constraint, with masses
  // scaled by weight / constrained-mass (the lazily-renormalised truncated
  // pdf of Section 3.2). `index` must be AttributeIndex::Build(data).
  static AttributeScan Build(const Dataset& data, const AttributeIndex& index,
                             const WorkingSet& set, int attribute,
                             int num_classes);

  // Number of distinct candidate positions (distinct sample x values).
  int num_positions() const { return static_cast<int>(xs_.size()); }
  bool empty() const { return xs_.empty(); }

  // x value of position `idx` (ascending in idx).
  double x(int idx) const { return xs_[static_cast<size_t>(idx)]; }

  int num_classes() const { return num_classes_; }

  // Total mass of class `cls` at positions <= idx.
  double CumulativeMass(int idx, int cls) const;

  // Class counts of the left side for a split at x(idx): out[c] = mass of
  // class c at positions <= idx.
  void LeftCounts(int idx, std::vector<double>* out) const;

  // Class counts of the right side: totals - left.
  void RightCounts(int idx, std::vector<double>* out) const;

  // Per-class total mass over the whole axis.
  const std::vector<double>& class_totals() const { return class_totals_; }
  double total_mass() const { return total_mass_; }

  // Positions of the tuple support end points (the paper's Q_j), ascending
  // and unique. Always contains position 0 and num_positions()-1 when the
  // scan is non-empty.
  const std::vector<int>& endpoint_positions() const {
    return endpoint_positions_;
  }

  // Interval statistics for the half-open interval (x(a_idx), x(b_idx)]:
  //   nc[c] = mass at positions <= a_idx        (paper: Phi_c(-inf, a])
  //   kc[c] = mass in (a_idx, b_idx]            (paper: Phi_c(a, b])
  //   mc[c] = mass at positions > b_idx         (paper: Phi_c(b, +inf))
  // Requires a_idx < b_idx.
  void IntervalStats(int a_idx, int b_idx, std::vector<double>* nc,
                     std::vector<double>* kc, std::vector<double>* mc) const;

 private:
  friend class ScanCursor;

  // Writes the cumulative row of position `idx` into row[0..num_classes).
  void LoadRow(int idx, double* row) const;
  // Adds the masses of position `idx`'s events to row[class].
  void AddPosition(int idx, double* row) const;

  std::vector<double> xs_;
  // Events of position p are [event_end_[p-1], event_end_[p]) (from 0 for
  // p == 0), in rank order with ties in working-set order.
  std::vector<uint32_t> event_end_;
  std::vector<int32_t> event_class_;
  std::vector<double> event_mass_;
  // Row k (row-major [k][class]) is the cumulative mass at position
  // k * kCheckpoint.
  std::vector<double> checkpoints_;
  std::vector<double> class_totals_;
  std::vector<int> endpoint_positions_;
  double total_mass_ = 0.0;
  int num_classes_ = 0;
};

// Reads one scan's cumulative rows for a sequence of positions. A seek
// forward from a held row at or past the target's checkpoint adds the
// positions in between; any other seek restarts from the checkpoint row at
// or before the target. Both chains are the scan's own additions, so
// Seek(idx) is bitwise LeftCounts(idx), and an ascending sweep costs one
// pass over its events. A cursor serves one scan for its whole lifetime.
class ScanCursor {
 public:
  // The cumulative class masses at positions <= idx; valid until the next
  // Seek.
  const std::vector<double>& Seek(const AttributeScan& scan, int idx);

 private:
  const AttributeScan* scan_ = nullptr;  // the scan served (checked)
  int pos_ = -1;
  std::vector<double> row_;
};

}  // namespace udt

#endif  // UDT_SPLIT_ATTRIBUTE_SCAN_H_
