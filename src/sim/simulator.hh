/**
 * @file
 * High-level simulation façade: compile mini-C, classify loads, run
 * functional/profiled/timed simulations, compute speedups.
 *
 * This is the public API the examples and the benchmark harness use:
 *
 *     auto prog = sim::compile(source);
 *     auto timed = sim::runTimed(prog, pipeline::MachineConfig::proposed());
 *     auto base  = sim::runTimed(prog, pipeline::MachineConfig::baseline());
 *     double speedup = sim::speedup(base, timed);
 */

#ifndef ELAG_SIM_SIMULATOR_HH
#define ELAG_SIM_SIMULATOR_HH

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "classify/classify.hh"
#include "codegen/codegen.hh"
#include "ir/ir.hh"
#include "opt/pass.hh"
#include "pipeline/pipeline.hh"
#include "pipeline/telemetry.hh"
#include "predict/profiler.hh"
#include "sim/emulator.hh"

namespace elag {
namespace sim {

/** Compilation options. */
struct CompileOptions
{
    opt::OptConfig opt;
    classify::ClassifyConfig classify;
    /** Run the Section-4 classifier (false leaves every load ld_n). */
    bool runClassifier = true;
};

/**
 * Specifier of each static load, as a flat dense vector indexed by
 * load id. Load ids are small consecutive integers assigned by the
 * IR builder, so a vector lookup replaces the std::map walk that
 * used to sit on the per-load profiling and telemetry paths.
 */
class LoadSpecMap
{
  public:
    void
    set(int load_id, isa::LoadSpec spec)
    {
        if (load_id < 0)
            return;
        size_t idx = static_cast<size_t>(load_id);
        if (idx >= spec_.size())
            spec_.resize(idx + 1, Absent);
        spec_[idx] = static_cast<uint8_t>(spec);
    }

    /** @return true if @p load_id has a recorded specifier. */
    bool
    has(int load_id) const
    {
        return load_id >= 0 &&
               static_cast<size_t>(load_id) < spec_.size() &&
               spec_[static_cast<size_t>(load_id)] != Absent;
    }

    /** Specifier of @p load_id (Normal when absent). */
    isa::LoadSpec
    get(int load_id) const
    {
        return has(load_id) ? static_cast<isa::LoadSpec>(
                                  spec_[static_cast<size_t>(load_id)])
                            : isa::LoadSpec::Normal;
    }

    /** All (load id, spec) pairs in ascending load-id order. */
    std::vector<std::pair<int, isa::LoadSpec>>
    entries() const
    {
        std::vector<std::pair<int, isa::LoadSpec>> out;
        for (size_t i = 0; i < spec_.size(); ++i) {
            if (spec_[i] != Absent)
                out.emplace_back(static_cast<int>(i),
                                 static_cast<isa::LoadSpec>(spec_[i]));
        }
        return out;
    }

    void clear() { spec_.clear(); }

  private:
    static constexpr uint8_t Absent = 0xff;
    std::vector<uint8_t> spec_;
};

/** A compiled program, retaining the IR for reclassification. */
struct CompiledProgram
{
    std::unique_ptr<ir::Module> module;
    codegen::CodegenResult code;
    classify::ClassifyStats classStats;

    /** Specifier of each static load, keyed by load id. */
    LoadSpecMap specOf;

    /** Rebuild machine code + spec map from the (modified) IR. */
    void regenerate();
};

/** Compile mini-C source through the full pipeline. */
CompiledProgram compile(const std::string &source,
                        const CompileOptions &options = {});

/** Per-specifier dynamic load counts and profiled prediction rates. */
struct ClassDynamics
{
    uint64_t executions = 0;
    /** Individual-operation stride predictions that were correct. */
    uint64_t predicted = 0;

    double
    rate() const
    {
        return executions == 0
                   ? 0.0
                   : static_cast<double>(predicted) /
                         static_cast<double>(executions);
    }
};

/** Result of a profiling (functional) run. */
struct ProfileResult
{
    EmulationResult emulation;
    /** Raw per-load profile (drives Section 4.3 reclassification). */
    classify::AddressProfile profile;
    /** Aggregates by current static classification. */
    ClassDynamics normal;
    ClassDynamics predict;
    ClassDynamics earlyCalc;

    uint64_t
    totalLoads() const
    {
        return normal.executions + predict.executions +
               earlyCalc.executions;
    }
};

/**
 * Functional run with the unbounded per-load stride profiler — the
 * "individual operation prediction" methodology behind the
 * prediction-rate columns of Tables 2-4.
 */
ProfileResult runProfile(const CompiledProgram &prog,
                         uint64_t max_instructions = 500'000'000);

/** Result of a timed run. */
struct TimedResult
{
    pipeline::PipelineStats pipe;
    EmulationResult emulation;
};

/**
 * Thrown by a watchdog-guarded run whose program exceeded a limit —
 * a hung or runaway simulation, distinct from both user error
 * (FatalError) and model bugs (PanicError). Process exit code 75.
 */
class SimTimeoutError : public std::runtime_error
{
  public:
    enum class Kind { Retires, Cycles, WallClock };

    SimTimeoutError(Kind which, uint64_t limit_value,
                    const std::string &msg)
        : std::runtime_error(msg), kind_(which), limit_(limit_value)
    {}

    Kind kind() const { return kind_; }
    uint64_t limit() const { return limit_; }

  private:
    Kind kind_;
    uint64_t limit_;
};

/**
 * Hang detection for timed runs. Zero means unlimited. Unlike the
 * max_instructions cap (which ends the run benignly with
 * halted=false), tripping a watchdog throws SimTimeoutError.
 */
struct Watchdog
{
    /** Maximum instructions retired into the timing model. */
    uint64_t maxRetires = 0;
    /** Maximum pipeline completion cycle. */
    uint64_t maxCycles = 0;
    /**
     * Maximum host wall-clock milliseconds for the run. Unlike the
     * simulated-unit caps above, this bounds real time, so a crash-
     * isolated worker can exit with a clean timeout (75) before an
     * external supervisor has to SIGKILL it. Checked every few
     * thousand retires; granularity is coarse, not exact.
     */
    uint64_t maxWallMs = 0;
};

/**
 * Emulation-driven timed run on the given machine. @p observers
 * (telemetry, checkers, custom tooling) must outlive the call; they
 * receive every pipeline event of the run. A watchdog with any limit
 * set throws SimTimeoutError as soon as the limit is exceeded
 * mid-run.
 */
TimedResult runTimed(const CompiledProgram &prog,
                     const pipeline::MachineConfig &machine,
                     uint64_t max_instructions = 500'000'000,
                     const std::vector<pipeline::Observer *> &observers =
                         {},
                     const Watchdog &watchdog = {});

/** baseline cycles / machine cycles. */
double speedup(const TimedResult &baseline, const TimedResult &machine);

/** Assembly mnemonic of a load specifier: ld_n, ld_p or ld_e. */
const char *specName(isa::LoadSpec spec);

/**
 * The `program` member of the stats and serving documents: the
 * report label, static instruction count, and static load classes.
 */
void writeProgramBlock(JsonWriter &w, const std::string &file_label,
                       const CompiledProgram &prog);

/**
 * Render per-PC load telemetry as an aligned text table, cross-
 * referencing each site against the compiler's static classification
 * (a `*` note marks sites whose runtime path disagrees with the
 * compiler's specifier — e.g. disabled hardware or hardware-only
 * selection policies).
 */
std::string loadReportText(const CompiledProgram &prog,
                           const pipeline::LoadTelemetry &telemetry);

/**
 * Serialize the same per-PC report as a JSON array of site objects
 * (pc, load_id, compiler_spec, path, executed, speculated,
 * forwarded, forward_rate, dominant_failure, outcome breakdown).
 */
void loadReportJson(JsonWriter &w, const CompiledProgram &prog,
                    const pipeline::LoadTelemetry &telemetry);

/**
 * The full machine-readable stats document for one timed run against
 * its baseline: program block, machine/selection labels, baseline
 * cycles, speedup, pipeline stats, per-PC load report. This is the
 * document behind `elagc --json-stats` and the serving daemon's
 * `simulate` responses — both call it, so a served result is
 * byte-identical to a single-shot one for the same inputs.
 */
std::string statsReportJson(const std::string &file_label,
                            const std::string &machine_name,
                            const std::string &selection,
                            const CompiledProgram &prog,
                            const TimedResult &base,
                            const TimedResult &timed,
                            const pipeline::LoadTelemetry &telemetry);

} // namespace sim
} // namespace elag

#endif // ELAG_SIM_SIMULATOR_HH
