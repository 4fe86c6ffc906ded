/**
 * @file
 * Resumable timed simulation and snapshot identity.
 *
 * ResumableTimedRun is the one guarded timed-run loop: it retires in
 * caller-sized steps, enforces the Watchdog per retire, cuts
 * `sim.slice` trace spans, and can serialize its complete state
 * between steps — architectural state (PC, register files, memory
 * image) and the full timing model (caches, BTB, predictor tables,
 * booking ring, in-flight stores, issue/fetch frontiers, aggregate
 * stats). runTimed() uses it as a single step whenever a watchdog or
 * the span tracer is armed; the stats run (sim/stats_run.hh) uses it
 * in snapshot-sized chunks.
 *
 * Snapshots are bound to their run identity (CkptRunKey) — program
 * hash, machine and baseline config hashes, instruction cap,
 * observer set, fault plan and seed. Restoring against a different
 * identity throws CkptError(Mismatch) rather than silently
 * continuing the wrong run.
 */

#ifndef ELAG_SIM_CKPT_RUN_HH
#define ELAG_SIM_CKPT_RUN_HH

#include <chrono>
#include <functional>
#include <string>

#include "sim/simulator.hh"

namespace elag {

namespace sim {

/**
 * Identity of one checkpointed stats run (built by makeRunKey in
 * sim/stats_run.hh). A snapshot may only be restored into a run with
 * the identical key.
 */
struct CkptRunKey
{
    uint64_t programHash = 0;
    uint64_t machineHash = 0;
    uint64_t baselineHash = 0;
    uint64_t maxInstructions = 0;
    bool hasChecker = false;
    std::string injectorPlan; ///< empty when no injector attached
    uint64_t injectorSeed = 0;

    bool
    operator==(const CkptRunKey &o) const
    {
        return programHash == o.programHash &&
               machineHash == o.machineHash &&
               baselineHash == o.baselineHash &&
               maxInstructions == o.maxInstructions &&
               hasChecker == o.hasChecker &&
               injectorPlan == o.injectorPlan &&
               injectorSeed == o.injectorSeed;
    }
};

void serialize(ckpt::Writer &w, const CkptRunKey &key);
void restore(ckpt::Reader &r, CkptRunKey &key);

/**
 * Stable content hash of a run key — names auto-resume snapshot
 * files, so re-invoking the identical command finds its own
 * checkpoint and a different command cannot collide with it.
 */
uint64_t hashRunKey(const CkptRunKey &key);

/**
 * One timed simulation that can stop at a chunk boundary, serialize
 * its complete state, and later continue — in the same process (for
 * equivalence tests) or after a restore in a fresh one.
 */
class ResumableTimedRun
{
  public:
    ResumableTimedRun(const CompiledProgram &prog,
                      const pipeline::MachineConfig &machine,
                      uint64_t max_instructions);

    /** Attach an observer (order matters for event delivery). */
    void attach(pipeline::Observer *observer);

    /**
     * Retire up to @p budget more instructions. Watchdog limits are
     * enforced per retire (SimTimeoutError); maxRetires and maxCycles
     * count the whole (resumed) run, maxWallMs counts the time since
     * construction or the last restore. With the span tracer armed,
     * every 2^20 retires close one `sim.slice` span.
     */
    void step(uint64_t budget, const Watchdog &watchdog);

    /** True once the program halted or the instruction cap is hit. */
    bool done() const { return done_; }

    /** Retired instructions so far, across restores. */
    uint64_t retired() const { return acc_.instructions; }

    /**
     * Finalize the pipeline and return the result (once done()),
     * closing the last partial `sim.slice` span.
     */
    TimedResult finish();

    /**
     * Checkpoint/restore the run mid-flight. restore() requires a
     * ResumableTimedRun constructed over the identical program and
     * machine configuration (enforced via CkptRunKey by callers).
     */
    void serialize(ckpt::Writer &w) const;
    void restore(ckpt::Reader &r);

  private:
    /** The per-retire watchdog and slice bookkeeping. */
    void guard(const Watchdog &watchdog, uint64_t retired, bool tracing);
    /** Close the slice span ending at @p retired. */
    void recordSlice(uint64_t retired);

    pipeline::Pipeline pipe_;
    Emulator emu_;
    uint64_t maxInst_;
    /** Accumulated result across step() calls and restores. */
    EmulationResult acc_;
    bool done_ = false;
    /** Wall-clock budget base for this process's attempt. */
    std::chrono::steady_clock::time_point wallStart_;
    /** Open `sim.slice` span: start time and retire count. */
    uint64_t sliceStartUs_ = 0;
    uint64_t sliceBase_ = 0;
};

/** Snapshot cadence and placement for a checkpointed run. */
struct CkptPolicy
{
    /**
     * Snapshot file, removed once the run completes; empty disables
     * snapshotting (the run is still chunked and interruptible).
     */
    std::string path;
    /** Retires between snapshots (0 means the 5M default). */
    uint64_t everyRetires = 0;
    /**
     * Polled at chunk boundaries; returning true flushes a final
     * snapshot and stops the run with interrupted=true (used by
     * SIGTERM/SIGINT handlers to make interrupted runs resumable).
     */
    std::function<bool()> interrupted;
};

/** Default snapshot interval in retired instructions. */
constexpr uint64_t kDefaultCkptRetires = 5'000'000;

} // namespace sim
} // namespace elag

#endif // ELAG_SIM_CKPT_RUN_HH
