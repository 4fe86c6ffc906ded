#include "sim/ckpt_run.hh"

#include <algorithm>

#include "ckpt/serial.hh"
#include "obs/span.hh"
#include "support/logging.hh"

namespace elag {
namespace sim {

void
serialize(ckpt::Writer &w, const CkptRunKey &key)
{
    w.u64(key.programHash);
    w.u64(key.machineHash);
    w.u64(key.baselineHash);
    w.u64(key.maxInstructions);
    w.b(key.hasChecker);
    w.str(key.injectorPlan);
    w.u64(key.injectorSeed);
}

void
restore(ckpt::Reader &r, CkptRunKey &key)
{
    key.programHash = r.u64();
    key.machineHash = r.u64();
    key.baselineHash = r.u64();
    key.maxInstructions = r.u64();
    key.hasChecker = r.b();
    key.injectorPlan = r.str();
    key.injectorSeed = r.u64();
}

uint64_t
hashRunKey(const CkptRunKey &key)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(key.programHash);
    mix(key.machineHash);
    mix(key.baselineHash);
    mix(key.maxInstructions);
    mix(key.hasChecker ? 1 : 0);
    mix(key.injectorPlan.size());
    for (char c : key.injectorPlan)
        mix(static_cast<uint8_t>(c));
    mix(key.injectorSeed);
    return h;
}

namespace {

/** Retires per `sim.slice` span while the span tracer is armed. */
constexpr uint64_t kSliceRetires = 1u << 20;

/** Most retires between two watchdog checks of a guarded step. */
constexpr uint64_t kGuardRetires = 4096;

uint64_t
sliceClock()
{
    obs::SpanTracer &tracer = obs::SpanTracer::process();
    return tracer.enabled() ? tracer.nowMicros() : 0;
}

} // anonymous namespace

ResumableTimedRun::ResumableTimedRun(const CompiledProgram &prog,
                                     const pipeline::MachineConfig &machine,
                                     uint64_t max_instructions)
    : pipe_(machine), emu_(prog.code.program),
      maxInst_(max_instructions),
      wallStart_(std::chrono::steady_clock::now()),
      sliceStartUs_(sliceClock())
{
}

void
ResumableTimedRun::attach(pipeline::Observer *observer)
{
    pipe_.attach(observer);
}

void
ResumableTimedRun::recordSlice(uint64_t retired)
{
    // Cut long simulations into slice spans so the trace viewer shows
    // progress structure instead of one opaque block.
    obs::SpanTracer &tracer = obs::SpanTracer::process();
    uint64_t now = tracer.nowMicros();
    tracer.record("sim.slice", "sim", sliceStartUs_, now - sliceStartUs_,
                  {{"retired", std::to_string(retired)},
                   {"cycle", std::to_string(pipe_.currentCycle())}});
    sliceStartUs_ = now;
    sliceBase_ = retired;
}

void
ResumableTimedRun::checkWatchdog(const Watchdog &watchdog) const
{
    uint64_t retired = acc_.instructions;
    if (watchdog.maxWallMs) {
        auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - wallStart_)
                .count();
        if (static_cast<uint64_t>(elapsed) > watchdog.maxWallMs) {
            throw SimTimeoutError(
                SimTimeoutError::Kind::WallClock, watchdog.maxWallMs,
                formatString("watchdog: run exceeded %llu ms "
                             "of wall clock",
                             static_cast<unsigned long long>(
                                 watchdog.maxWallMs)));
        }
    }
    if (watchdog.maxRetires && retired > watchdog.maxRetires) {
        throw SimTimeoutError(
            SimTimeoutError::Kind::Retires, watchdog.maxRetires,
            formatString("watchdog: more than %llu "
                         "instructions retired",
                         static_cast<unsigned long long>(
                             watchdog.maxRetires)));
    }
    if (watchdog.maxCycles && pipe_.currentCycle() > watchdog.maxCycles) {
        throw SimTimeoutError(
            SimTimeoutError::Kind::Cycles, watchdog.maxCycles,
            formatString("watchdog: simulation passed cycle "
                         "%llu",
                         static_cast<unsigned long long>(
                             watchdog.maxCycles)));
    }
}

void
ResumableTimedRun::absorb(const EmulationResult &part)
{
    acc_.instructions += part.instructions;
    acc_.output.insert(acc_.output.end(), part.output.begin(),
                       part.output.end());
    acc_.halted = part.halted;
    acc_.exitValue = part.exitValue;
}

void
ResumableTimedRun::step(uint64_t budget, const Watchdog &watchdog)
{
    if (done_)
        return;
    uint64_t left = maxInst_ - acc_.instructions;
    const uint64_t end =
        acc_.instructions + (budget < left ? budget : left);
    auto retire = [&](const pipeline::RetiredInst &ri) {
        pipe_.retire(ri);
    };

    const bool tracing = obs::SpanTracer::process().enabled();
    if (!watchdog.maxWallMs && !watchdog.maxRetires &&
        !watchdog.maxCycles && !tracing) {
        absorb(emu_.run(end - acc_.instructions, retire));
    } else {
        // Guarded: the caps are checked between chunks of at most
        // kGuardRetires, so the per-retire callback stays the bare
        // pipeline hand-off. A chunk never runs past the retire that
        // trips maxRetires or closes a slice, so those two land on
        // exactly the retire a per-retire check would pick.
        auto room = [](uint64_t from, uint64_t to) -> uint64_t {
            return to > from ? to - from : 1;
        };
        while (!acc_.halted && acc_.instructions < end) {
            uint64_t n = std::min(end - acc_.instructions, kGuardRetires);
            if (watchdog.maxRetires) {
                n = std::min(n, room(acc_.instructions,
                                     watchdog.maxRetires + 1));
            }
            if (tracing) {
                n = std::min(n, room(acc_.instructions,
                                     sliceBase_ + kSliceRetires));
            }
            absorb(emu_.run(n, retire));
            if (tracing && acc_.instructions - sliceBase_ >= kSliceRetires)
                recordSlice(acc_.instructions);
            checkWatchdog(watchdog);
        }
    }
    done_ = acc_.halted || acc_.instructions >= maxInst_;
}

TimedResult
ResumableTimedRun::finish()
{
    if (obs::SpanTracer::process().enabled() &&
        acc_.instructions > sliceBase_) {
        recordSlice(acc_.instructions);
    }
    TimedResult result;
    result.pipe = pipe_.finish();
    result.emulation = acc_;
    return result;
}

void
ResumableTimedRun::serialize(ckpt::Writer &w) const
{
    w.u64(maxInst_);
    emu_.serialize(w);
    pipe_.serialize(w);
    sim::serialize(w, acc_);
    w.b(done_);
}

void
ResumableTimedRun::restore(ckpt::Reader &r)
{
    uint64_t max_inst = r.u64();
    if (max_inst != maxInst_) {
        throw ckpt::CkptError(ckpt::ErrorKind::Mismatch,
                              "instruction-cap mismatch");
    }
    emu_.restore(r);
    pipe_.restore(r);
    sim::restore(r, acc_);
    done_ = r.b();
    wallStart_ = std::chrono::steady_clock::now();
    sliceStartUs_ = sliceClock();
    sliceBase_ = acc_.instructions;
}

} // namespace sim
} // namespace elag
