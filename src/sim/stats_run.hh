/**
 * @file
 * The paper's experiment, assembled once: name a machine, run a
 * program on the baseline machine and on the named one, and compare.
 *
 * parseMachine() is the one place machine, selection-policy and
 * hardware-size names become a pipeline::MachineConfig; elagc flags,
 * elagd request members and elag_campaign jobs all go through it, so
 * an unknown name is rejected the same way everywhere.
 *
 * runStats() is the one stats run behind `elagc --json-stats`, the
 * daemon's checkpointed `simulate` verb, and the kill-resume
 * differential check. It owns:
 *
 *  - the baseline run (observer-free, never perturbed);
 *  - the configured run, observed by LoadTelemetry, optionally by the
 *    lockstep InvariantChecker, and optionally perturbed by a
 *    FaultInjector;
 *  - the Watchdog over both;
 *  - optional durable snapshots (CkptPolicy) and the resume rule.
 *
 * The resume rule: an explicit StatsJob::resumeFrom that cannot be
 * restored (torn, corrupt, version or identity mismatch) throws the
 * typed CkptError, for the caller to report. Otherwise, when the
 * policy's own snapshot file exists, the run auto-resumes from it;
 * if that snapshot is unusable the run warns, discards its observers
 * and runs clean from the start.
 *
 * The contract is *kill-resume equivalence*: a run killed at any
 * instant and resumed from its last snapshot produces a final stats
 * report byte-identical to an uninterrupted run's. Snapshots are
 * written atomically (ckpt/checkpoint.hh), so a kill mid-snapshot
 * just resumes from the previous one.
 */

#ifndef ELAG_SIM_STATS_RUN_HH
#define ELAG_SIM_STATS_RUN_HH

#include <optional>
#include <string>

#include "sim/ckpt_run.hh"

namespace elag {
namespace sim {

/**
 * Build the machine named by @p machine (`baseline` or `proposed`)
 * with the ld_n/ld_p/ld_e selection policy @p selection (empty keeps
 * the machine's own; `compiler`, `ev`, `all-predict`, `all-early`).
 * A nonzero @p table enables the address table with that many
 * entries; a nonzero @p regs enables R_addr with that many
 * registers. Names are case-sensitive.
 *
 * @return false, with @p error naming the offending value, on an
 * unknown name; @p out is then unspecified.
 */
bool parseMachine(const std::string &machine,
                  const std::string &selection, uint32_t table,
                  uint32_t regs, pipeline::MachineConfig &out,
                  std::string &error);

/** The default fault-injection seed (the default PCG32 state). */
constexpr uint64_t kDefaultInjectSeed = 0x853c49e6748fea9bULL;

/** Everything one stats run needs besides the program. */
struct StatsJob
{
    /** The configured machine (see parseMachine). */
    pipeline::MachineConfig machine;
    uint64_t maxInstructions = 500'000'000;
    Watchdog watchdog;
    /** Attach the lockstep invariant checker to the configured run. */
    bool verifyInvariants = false;
    /** Fault plan perturbing the configured run; empty for none. */
    std::string inject;
    uint64_t seed = kDefaultInjectSeed;
    /**
     * Snapshot cadence and file. Unset runs each machine in one
     * step; set, the runs are chunked, snapshotted when the policy
     * names a file, and stoppable through policy.interrupted.
     */
    std::optional<CkptPolicy> checkpoint;
    /** Snapshot to resume from; a failed restore throws CkptError. */
    std::string resumeFrom;
};

/** Result of a stats run. */
struct StatsOutcome
{
    TimedResult base;
    TimedResult timed;
    /** Per-PC load telemetry of the configured run. */
    pipeline::LoadTelemetry telemetry;
    /** Events the invariant checker verified (0 without it). */
    uint64_t eventsChecked = 0;
    /** Faults the injector fired (0 without one). */
    uint64_t faultsFired = 0;
    /** True when the run continued from a restored snapshot. */
    bool resumed = false;
    /**
     * True when policy.interrupted() stopped the run early; base and
     * timed are then partial and must not be reported.
     */
    bool interrupted = false;
    /** Snapshots written (a failed write warns and is not counted). */
    uint32_t snapshots = 0;
};

/** The snapshot identity of @p job over @p prog. */
CkptRunKey makeRunKey(const CompiledProgram &prog, const StatsJob &job);

/**
 * Run @p job over @p prog: the baseline machine, then the configured
 * one, under the resume rule above. Invariant violations throw
 * PanicError, watchdog trips SimTimeoutError, guest faults
 * GuestTrapError, an unknown fault plan FatalError.
 */
StatsOutcome runStats(const CompiledProgram &prog, const StatsJob &job);

} // namespace sim
} // namespace elag

#endif // ELAG_SIM_STATS_RUN_HH
