// The unified decision interface: one Policy API for rule-based and DRL
// schedulers.
//
// A Policy maps the EctHubEnv observation vector (see observation.hpp) to a
// BP action (0 = idle, 1 = charge, 2 = discharge) and never sees the
// environment object itself.  That inversion is what lets one fleet engine
// drive every scheduler family the same way — and batch them.
//
// Stateless policies additionally expose decide_rows(): a const, thread-safe
// batched form that fills one action per row of a (hubs x state_dim)
// matrix, so a neural policy replaces per-hub matrix-vector products with
// one matrix-matrix forward pass across the whole fleet slot.  Several
// workers can call it concurrently on disjoint row ranges of one shared
// observation matrix — the contract the lockstep fleet runner's slot phase
// builds on.  Per-call scratch lives in a caller-owned Workspace (one per
// calling thread, reused across slots) so the steady-state path stays
// allocation-free.
#pragma once

#include "nn/matrix.hpp"

#include <cstddef>
#include <memory>
#include <span>
#include <string>

namespace ecthub::policy {

class Policy {
 public:
  /// Opaque per-caller scratch for decide_rows().  Callers create one per
  /// thread via make_workspace() and pass it to every call; a policy
  /// downcasts to its own derived workspace type.  Reusing one workspace
  /// across calls keeps the steady-state batched path allocation-free.
  class Workspace {
   public:
    virtual ~Workspace() = default;
  };

  virtual ~Policy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Decides the BP action for one observation.  Called exactly once per
  /// slot, in slot order — stateful policies (price trackers, RNG-driven
  /// exploration) advance their internal state on each call.
  virtual std::size_t decide(std::span<const double> obs) = 0;

  /// Fresh scratch for decide_rows(); one per calling thread.  The base
  /// workspace is empty — policies whose row kernel needs buffers (DrlPolicy)
  /// return their own derived type.
  [[nodiscard]] virtual std::unique_ptr<Workspace> make_workspace() const;

  /// Row-block batched decisions: computes actions[row_begin, row_end) from
  /// the same rows of `obs` (a full-batch matrix — `actions` spans all of
  /// it), each bit-identical to decide() on that row.  Only stateless()
  /// policies support it; the kernel is const and touches no member state,
  /// so disjoint row blocks may run concurrently on one shared instance as
  /// long as each caller passes its own workspace.  The default
  /// implementation throws std::logic_error (stateful policies must stay
  /// one-instance-per-hub and use decide).
  virtual void decide_rows(const nn::Matrix& obs, std::size_t row_begin,
                           std::size_t row_end, std::span<std::size_t> actions,
                           Workspace& ws) const;

  /// Resets per-episode state; called after every env reset.  Stateless
  /// policies ignore it.  Cross-episode knowledge (e.g. a learned diurnal
  /// price curve) deliberately survives — only within-episode trackers clear.
  virtual void begin_episode() {}

  /// True when decide() is a pure function of the observation, so a single
  /// instance may serve many hubs and decide_rows() may mix rows from
  /// different hubs in one call.
  [[nodiscard]] virtual bool stateless() const { return false; }

 protected:
  /// Shared argument validation for decide_rows overrides: the range must
  /// lie inside obs and actions must span the full batch.
  static void check_rows(const nn::Matrix& obs, std::size_t row_begin,
                         std::size_t row_end, std::span<const std::size_t> actions);
};

}  // namespace ecthub::policy
