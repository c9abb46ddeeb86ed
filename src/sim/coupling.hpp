// CouplingBus: the slot-barrier demand router of a coupled fleet.
//
// During a lockstep slot each lane steps with the imports its neighbors
// routed to it at the previous slot boundary and deposits its own exported
// overflow; at the barrier the coordinator — alone, in fixed lane order —
// routes every deposit to the depositor's road-graph neighbors (equal
// split).  Exports gathered at slot t are therefore delivered at slot t+1,
// and because the exchange is serial and order-fixed the routed totals are
// bit-identical at any lockstep_threads.
//
// Thread-safety contract: deposit/take/drop_pending touch only the given
// lane's slots and each lane is owned by exactly one crew member, so members
// never race; exchange() must run with no crew phase in flight (the slot
// barrier).
#pragma once

#include <cstddef>
#include <vector>

namespace ecthub::sim {

class CouplingBus {
 public:
  /// One neighbor list per lane.  Throws std::invalid_argument on a neighbor
  /// index out of range or a self-loop.
  explicit CouplingBus(std::vector<std::vector<std::size_t>> neighbors);

  [[nodiscard]] std::size_t lanes() const noexcept { return exported_.size(); }

  /// Records `export_kw` as lane's outgoing overflow this slot (member-side,
  /// after the lane steps).
  void deposit(std::size_t lane, double export_kw) { exported_[lane] = export_kw; }

  /// Consumes and returns the demand routed to `lane` at the previous slot
  /// boundary (member-side, before the lane steps).
  [[nodiscard]] double take(std::size_t lane) {
    const double kw = pending_[lane];
    pending_[lane] = 0.0;
    return kw;
  }

  /// Discards demand routed to `lane` across an episode boundary (member-
  /// side, on episode turnover): a fresh episode starts clean.
  void drop_pending(std::size_t lane) { pending_[lane] = 0.0; }

  /// Routes every deposit to the depositor's neighbors, equal split, in
  /// fixed lane order.  Coordinator-only, at the slot barrier.
  void exchange();

 private:
  std::vector<std::vector<std::size_t>> neighbors_;
  std::vector<double> exported_;  ///< this slot's deposits, cleared by exchange
  std::vector<double> pending_;   ///< routed demand awaiting next slot's take
};

}  // namespace ecthub::sim
