#pragma once

// The simulate compute step of SweepService's reuse ladder
// (sweep_service.hpp): answers a "mode": "simulate" request's resolved
// grid by running CI-bounded adaptive Monte Carlo (sim/adaptive.hpp), one
// campaign per (point, family, weibull_shape, faulty_ops) cell. Cells are
// computed — and streamed — SEQUENTIALLY in canonical table order while
// each cell's runs fan out across the shared executor pool, so the
// response stream is byte-identical at any pool size by construction
// (parallelism lives inside a cell, never across the emission order).
// Per-cell RNG streams are content-addressed (sim_cell_seed), so a router
// shard computing a slice of the grid emits the same cell bytes the whole
// grid would.
//
// Error models: each cell binds one of two instantiations of the
// arrival-driven model statically, a pure function of (weibull_shape,
// faulty_ops). The default cell (1, 1) runs sim::PoissonArrivalModel, the
// paper's Poisson processes at the platform's rates; every other cell
// runs sim::RenewalErrorModel, renewal inter-arrivals at the platform's
// MTBFs — exponential at shape 1, Weibull otherwise — with faulty_ops as
// the operation-site factor.
//
// Cancellation/deadlines: the token is polled before every cell, between
// run batches, and inside runs on every 4096th arrival a model draws
// (sim/adaptive.hpp check_cancel), so a deadline or a disconnect
// interrupts even a run stuck in an error storm. A fired token unwinds
// with core::SweepCancelled and no table is returned.

#include <memory>
#include <vector>

#include "resilience/core/cancel.hpp"
#include "resilience/service/sim_table.hpp"
#include "resilience/service/sweep_service.hpp"

namespace resilience::util {
class ThreadPool;  // campaigns only carry a pointer; see thread_pool.hpp
}

namespace resilience::service {

/// Runs every cell of the simulate grid (points x kinds x the `sim` axes)
/// on `pool` (null = global pool) and returns the finished table; each
/// cell goes to `sink` (may be empty) as it finishes, in table order.
[[nodiscard]] std::shared_ptr<const SimTable> compute_sim_table(
    const std::vector<core::ScenarioPoint>& points,
    const std::vector<core::PatternKind>& kinds, const SimParams& sim,
    util::ThreadPool* pool, const SimCellFn& sink,
    const core::CancelToken& cancel);

}  // namespace resilience::service
