#include "trace/ground_truth.hpp"

namespace syncts {

Poset message_poset(const SyncComputation& computation,
                    const AnalysisOptions&) {
    Poset poset(computation.num_messages());
    // Consecutive participations within one process generate ▷; its
    // transitive closure is ↦. Non-consecutive same-process pairs follow
    // transitively, so consecutive edges suffice.
    for (ProcessId p = 0; p < computation.num_processes(); ++p) {
        const auto msgs = computation.process_messages(p);
        for (std::size_t i = 0; i + 1 < msgs.size(); ++i) {
            poset.add_relation(msgs[i], msgs[i + 1]);
        }
    }
    poset.close();
    return poset;
}

Poset event_poset(const SyncComputation& computation) {
    const std::size_t message_count = computation.num_messages();
    Poset poset(message_count + computation.num_internal_events());
    const auto element_of = [&](const ProcessEvent& e) {
        return e.kind == ProcessEvent::Kind::message
                   ? static_cast<std::size_t>(e.index)
                   : message_count + e.index;
    };
    for (ProcessId p = 0; p < computation.num_processes(); ++p) {
        const auto events = computation.process_events(p);
        for (std::size_t i = 0; i + 1 < events.size(); ++i) {
            poset.add_relation(element_of(events[i]),
                               element_of(events[i + 1]));
        }
    }
    poset.close();
    return poset;
}

std::size_t internal_element(const SyncComputation& computation,
                             InternalId internal) {
    return computation.num_messages() + internal;
}

bool messages_totally_ordered(const Poset& message_order) {
    for (std::size_t a = 0; a < message_order.size(); ++a) {
        for (std::size_t b = a + 1; b < message_order.size(); ++b) {
            if (message_order.incomparable(a, b)) return false;
        }
    }
    return true;
}

}  // namespace syncts
