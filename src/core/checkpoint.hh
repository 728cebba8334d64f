/**
 * @file
 * Checkpoint/resume (`consim.ckpt.v5`): serialization of the complete
 * deterministic machine state.
 *
 * A checkpoint captures everything the next cycle's behaviour depends
 * on — the clock, the event queue (SimEvents; see fabric.hh),
 * every cache array slot-index-exact (victim() choices depend on slot
 * order and LRU stamps), the bank/directory transaction tables, the
 * NoC's VC queues, credits and in-flight transmissions, the
 * memory-controller channels, workload RNG streams and hot-window
 * positions, fault-injection runtime state, thread-to-core bindings,
 * and the raw statistics registry. Restoring it into a freshly
 * constructed System built from the same configuration reproduces the
 * uninterrupted run byte for byte, including the final
 * `consim.run.v1` JSON.
 *
 * Document layout:
 *
 *   {
 *     "schema":  "consim.ckpt.v5",
 *     "context": { ... },   // experiment-layer context, verbatim
 *                           // (run config echo, phase, migration RNG)
 *     "machine": { cycle, events, cores, l1s, banks, dirs, mcs,
 *                  dir_entries, net, faults, stats },
 *     "vms":     [ { streams, footprint }, ... ]
 *   }
 *
 * The machine section stores no configuration: structural parameters
 * (cache geometry, mesh shape, placements) are re-derived by
 * constructing the System from the same config, and restore asserts
 * shape agreement where it is cheap to do so. The experiment layer
 * embeds the full run configuration in "context" so a resume can
 * rebuild that System without out-of-band information.
 *
 * Entry points are System::saveCheckpoint / System::restoreCheckpoint
 * (core/system.hh); this header exposes the schema check resume runs
 * before it rebuilds a System, the required-field reader the QoS and
 * dyn-sched controllers load their own sections with, and the
 * protocol-message codec, which tests reuse.
 */

#ifndef CONSIM_CORE_CHECKPOINT_HH
#define CONSIM_CORE_CHECKPOINT_HH

#include <string_view>

#include "coherence/protocol.hh"
#include "common/json.hh"

namespace consim
{

/** Refuse @p doc unless it is a `consim.ckpt.v5` document, naming
 *  what each older schema lacks. */
void checkCkptSchema(const json::Value &doc);

/** @return required member @p key of a checkpoint object (refuses
 *  the document when it is missing). */
const json::Value &ckptField(const json::Value &obj,
                             std::string_view key);

/** Serialize a protocol message as a fixed-position JSON array. */
json::Value msgToJson(const Msg &m);

/** Inverse of msgToJson. */
Msg msgFromJson(const json::Value &v);

} // namespace consim

#endif // CONSIM_CORE_CHECKPOINT_HH
