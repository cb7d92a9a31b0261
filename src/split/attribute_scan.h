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
// A scan is built by compressing the node's rank-ordered event list for
// the attribute (split/fractional_tuple.h: a root takes its lists from the
// rank index, every other node filters its parent's): one pass writes one
// position per distinct rank. An event's mass is pdf.mass(p) * (weight /
// window mass), evaluated in that order wherever it is read. The scan is a
// view over the list and the rank index, which must outlive it: it keeps
// per tuple its class and share (weight / window mass), per position the
// end of its event run, and a full cumulative row only every kCheckpoint
// positions — or at every position when the list holds at least
// kCheckpoint events per distinct value of the attribute, as quantized
// (spilled) columns do. A lookup replays the (at most kCheckpoint-1)
// positions after the row before it — the same additions, in the same
// order, as a row-per-position running sum, so every value is bitwise what
// that sum would hold. Sweeps over ascending positions go through a
// ScanCursor, which advances instead of replaying.

#ifndef UDT_SPLIT_ATTRIBUTE_SCAN_H_
#define UDT_SPLIT_ATTRIBUTE_SCAN_H_

#include <cstdint>
#include <vector>

#include "common/default_init.h"
#include "split/attribute_index.h"
#include "split/fractional_tuple.h"
#include "table/dataset.h"

namespace udt {

// Built once per (node, numerical attribute); immutable afterwards.
// Move-only, so a node's scan buffers are never copied by accident.
class AttributeScan {
 public:
  // A cumulative class-mass row is stored at least every kCheckpoint
  // positions.
  static constexpr int kCheckpoint = 8;

  // An empty scan (no positions); Build() produces the real thing.
  AttributeScan() = default;
  AttributeScan(AttributeScan&&) = default;
  AttributeScan& operator=(AttributeScan&&) = default;
  AttributeScan(const AttributeScan&) = delete;
  AttributeScan& operator=(const AttributeScan&) = delete;

  // Builds the scan for `attribute` over `set` by compressing
  // set.lists[attribute]. Tuples contribute their sample points restricted
  // to their (lo, hi] constraint, with masses scaled by weight /
  // constrained-mass (the lazily-renormalised truncated pdf of Section
  // 3.2). `index` must be AttributeIndex::Build(data). The scan borrows
  // the list and `index`: both must outlive it.
  static AttributeScan Build(const Dataset& data, const AttributeIndex& index,
                             const NodeSet& set, int attribute,
                             int num_classes);

  // Number of distinct candidate positions (distinct sample x values).
  int num_positions() const { return static_cast<int>(event_end_.size()); }
  bool empty() const { return event_end_.empty(); }

  // x value of position `idx` (ascending in idx).
  double x(int idx) const {
    return index_->value(
        attribute_, events_[event_end_[static_cast<size_t>(idx)] - 1].rank);
  }

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

  // Per interval between consecutive end points (endpoint_positions()[i],
  // endpoint_positions()[i+1]]: how many classes gain more than
  // kMassEpsilon of mass across it, capped at 2 — the interval is empty,
  // homogeneous or heterogeneous (Definitions 2-4) for 0, 1 or 2.
  const std::vector<uint8_t>& endpoint_interval_classes() const {
    return endpoint_interval_classes_;
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

  // A tuple's class and the factor from its raw pdf masses to its masses
  // in the node.
  struct TupleShare {
    double scale;  // weight / window mass
    int32_t cls;
  };

  // Compresses `list`, the events of `tuples` on `attribute`, into this
  // empty scan, which reads `list` from then on.
  void Compress(const Dataset& data, const AttributeIndex& index,
                const WorkingSet& tuples, const AttributeEvents& list,
                int attribute);

  // Writes the cumulative row of position `idx` into row[0..num_classes).
  void LoadRow(int idx, double* row) const;
  // Adds the masses of position `idx`'s events to row[class].
  void AddPosition(int idx, double* row) const;

  // The event list read, borrowed from a NodeSet. A position's x is its
  // events' rank, read back through the index.
  const SampleEvent* events_ = nullptr;
  const AttributeIndex* index_ = nullptr;
  int attribute_ = -1;
  std::vector<TupleShare> shares_;  // per tuple of the working set
  // Events of position p are [event_end_[p-1], event_end_[p]) (from 0 for
  // p == 0), in rank order with ties in working-set order.
  DefaultInitVector<uint32_t> event_end_;
  // Positions per stored row: 1 or kCheckpoint (see Compress).
  int row_stride_ = kCheckpoint;
  // Row k (row-major [k][class]) is the cumulative mass at position
  // k * row_stride_.
  DefaultInitVector<double> checkpoints_;
  std::vector<double> class_totals_;
  std::vector<int> endpoint_positions_;
  std::vector<uint8_t> endpoint_interval_classes_;
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
