#pragma once

#include <cstddef>

#include "common/pool.hpp"
#include "poset/poset.hpp"
#include "trace/computation.hpp"

/// \file ground_truth.hpp
/// Reference computations of the paper's order relations, built directly
/// from the definition (transitive closure of the per-process ▷ edges).
/// Every clock algorithm in src/clocks is verified against these posets.

namespace syncts {

/// The poset (M, ↦) of Section 2 over the computation's messages:
/// m1 ↦ m2 iff some chain of same-process precedences connects them.
/// Elements are MessageIds. The closure is serial (Poset::close). The
/// unnamed AnalysisOptions parameter is ignored; it remains only so
/// that existing callers passing one, such as
/// perfbench/pipeline_bench.cpp, still compile.
Poset message_poset(const SyncComputation& computation,
                    const AnalysisOptions& = {});

/// Lamport happened-before over *all* events — messages (as single
/// rendezvous instants, per the vertical-arrow model with
/// acknowledgements) and internal events. Element ids: message m is
/// element m; internal event i is element num_messages() + i.
Poset event_poset(const SyncComputation& computation);

/// Element id of an internal event in event_poset numbering.
std::size_t internal_element(const SyncComputation& computation,
                             InternalId internal);

/// True when every pair of messages is comparable under ↦ — Lemma 1
/// guarantees this for all computations iff the topology is a star or a
/// triangle.
bool messages_totally_ordered(const Poset& message_order);

}  // namespace syncts
