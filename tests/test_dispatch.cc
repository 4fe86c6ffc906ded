/**
 * @file
 * Predecode + dispatch-engine tests.
 *
 * The contract under test: the predecoded switch engine and the
 * legacy decode-as-you-go reference interpreter (which shares none of
 * the predecode machinery) are observably identical — same committed
 * stream, same stats documents byte for byte, same guest traps —
 * pinning the predecoder against an independent oracle. Plus unit
 * coverage of the predecoder itself (flag words, handler
 * specialization, branch target pre-splitting, the past-the-end
 * sentinel, the process-wide stream cache) and the typed guest-fault
 * taxonomy.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "ckpt/serial.hh"
#include "isa/builder.hh"
#include "pipeline/telemetry.hh"
#include "sim/ckpt_run.hh"
#include "sim/decoded.hh"
#include "sim/emulator.hh"
#include "sim/simulator.hh"
#include "support/logging.hh"
#include "verify/ckpt_diff.hh"
#include "verify/invariant_checker.hh"
#include "verify/program_gen.hh"

using namespace elag;
using namespace elag::isa;
namespace build = elag::isa::build;

namespace {

/** Restore the previous dispatch mode however a test exits. */
struct DispatchModeGuard
{
    explicit DispatchModeGuard(sim::DispatchMode mode)
        : previous(sim::dispatchMode())
    {
        sim::setDispatchMode(mode);
    }
    ~DispatchModeGuard() { sim::setDispatchMode(previous); }

    sim::DispatchMode previous;
};

/** Assemble a raw program (no globals). */
isa::MachineProgram
assemble(std::vector<Instruction> code)
{
    isa::MachineProgram prog;
    prog.code = std::move(code);
    prog.globalSize = 8;
    prog.globalInit.assign(8, 0);
    prog.verify();
    return prog;
}

/**
 * The full machine-readable stats document of one verified timed run
 * under the given dispatch mode — the byte-identity anchor.
 */
std::string
statsDocUnder(const sim::CompiledProgram &prog, sim::DispatchMode mode)
{
    DispatchModeGuard guard(mode);
    pipeline::LoadTelemetry telemetry;
    verify::InvariantChecker checker;
    std::vector<pipeline::Observer *> observers{&telemetry, &checker};
    auto base = sim::runTimed(
        prog, pipeline::MachineConfig::baseline());
    auto timed = sim::runTimed(prog,
                               pipeline::MachineConfig::proposed(),
                               500'000'000, observers);
    checker.finish(timed.pipe);
    return sim::statsReportJson("<dispatch-diff>", "proposed", "",
                                prog, base, timed, telemetry);
}

} // namespace

// ---------------------------------------------------------------
// Predecode units.
// ---------------------------------------------------------------

TEST(Predecode, FlagWordAndSourcesMatchTheDecoder)
{
    std::vector<Instruction> cases = {
        build::rrr(Opcode::ADD, 5, 6, 7),
        build::rri(Opcode::ADDI, 5, 0, 42),
        build::load(LoadSpec::Normal, 5, 6, 16),
        build::loadx(LoadSpec::EarlyCalc, 5, 6, 7),
        build::store(7, 6, 16),
        build::branch(Opcode::BNE, 5, 6, 3),
        build::jal(1, 9),
        build::halt(),
    };
    for (const Instruction &inst : cases) {
        sim::DecodedInst d = sim::decodeInst(inst);
        EXPECT_EQ(d.flags, isa::decodeFlags(inst))
            << opcodeName(inst.op);
        EXPECT_TRUE(d.flags & isa::flag::Valid);
        int s1, s2;
        inst.intSources(s1, s2);
        EXPECT_EQ(d.src1, s1) << opcodeName(inst.op);
        EXPECT_EQ(d.src2, s2) << opcodeName(inst.op);
        EXPECT_EQ(isa::flagFuClass(d.flags), inst.fuClass());
        EXPECT_EQ(isa::flagLoadSpec(d.flags), inst.spec);
    }
}

TEST(Predecode, HandlersSpecializeByModeAndWidth)
{
    Instruction ld = build::load(LoadSpec::Normal, 5, 6, 16);
    EXPECT_EQ(sim::decodeInst(ld).handler, sim::Handler::LOAD_BO_W);
    ld.width = MemWidth::Byte;
    EXPECT_EQ(sim::decodeInst(ld).handler, sim::Handler::LOAD_BO_B);
    ld.mode = AddrMode::BaseIndex;
    EXPECT_EQ(sim::decodeInst(ld).handler, sim::Handler::LOAD_BI_B);

    Instruction st = build::store(7, 6, 16);
    EXPECT_EQ(sim::decodeInst(st).handler, sim::Handler::STORE_BO_W);
    st.mode = AddrMode::BaseIndex;
    EXPECT_EQ(sim::decodeInst(st).handler, sim::Handler::STORE_BI_W);

    Instruction fld;
    fld.op = Opcode::FLOAD;
    fld.rd = 3;
    fld.rs1 = 6;
    EXPECT_EQ(sim::decodeInst(fld).handler, sim::Handler::FLOAD_BO);
    fld.mode = AddrMode::BaseIndex;
    EXPECT_EQ(sim::decodeInst(fld).handler, sim::Handler::FLOAD_BI);
}

TEST(Predecode, BranchTargetsArePreSplit)
{
    Instruction beq = build::branch(Opcode::BEQ, 5, 6, 17);
    EXPECT_EQ(sim::decodeInst(beq).target, 17u);
    Instruction jmp = build::jmp(9);
    EXPECT_EQ(sim::decodeInst(jmp).target, 9u);
    // JR's target is a register value — nothing to pre-split.
    Instruction jr;
    jr.op = Opcode::JR;
    jr.rs1 = 1;
    EXPECT_EQ(sim::decodeInst(jr).target, 0u);
}

TEST(Predecode, StreamCarriesOneTrapSentinel)
{
    auto prog = assemble({build::nop(), build::halt()});
    sim::DecodedStream stream(prog);
    ASSERT_EQ(stream.size(), prog.code.size() + 1);
    EXPECT_EQ(stream.programSize(), prog.code.size());
    EXPECT_EQ(stream.at(stream.size() - 1).handler,
              sim::Handler::TRAP_PCRANGE);
}

TEST(Predecode, DegenerateEmptyProgramIsOneSentinel)
{
    isa::MachineProgram prog;
    prog.globalSize = 8;
    prog.globalInit.assign(8, 0);
    sim::DecodedStream stream(prog);
    ASSERT_EQ(stream.size(), 1u);
    EXPECT_EQ(stream.programSize(), 0u);
    EXPECT_EQ(stream.at(0).handler, sim::Handler::TRAP_PCRANGE);
}

TEST(Predecode, StreamCacheSharesByContentHash)
{
    sim::DecodedStream::clearCache();
    auto prog = assemble({build::nop(), build::halt()});
    auto a = sim::DecodedStream::get(prog);
    auto b = sim::DecodedStream::get(prog);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(sim::DecodedStream::cacheSize(), 1u);

    // Same code via an independently built (equal) program hits too.
    auto clone = assemble({build::nop(), build::halt()});
    EXPECT_EQ(sim::DecodedStream::get(clone).get(), a.get());
    EXPECT_EQ(sim::DecodedStream::cacheSize(), 1u);

    auto other = assemble({build::halt()});
    EXPECT_NE(sim::DecodedStream::get(other).get(), a.get());
    EXPECT_EQ(sim::DecodedStream::cacheSize(), 2u);
    sim::DecodedStream::clearCache();
    EXPECT_EQ(sim::DecodedStream::cacheSize(), 0u);
}

// ---------------------------------------------------------------
// Typed guest traps, under both engines.
// ---------------------------------------------------------------

class GuestTraps
    : public ::testing::TestWithParam<sim::DispatchMode>
{
  protected:
    void
    SetUp() override
    {
        sim::setDispatchMode(GetParam());
    }
    void
    TearDown() override
    {
        sim::setDispatchMode(sim::DispatchMode::Switch);
    }

    static sim::GuestTrapError
    trapOf(const isa::MachineProgram &prog)
    {
        sim::Emulator emu(prog);
        try {
            emu.run();
        } catch (const sim::GuestTrapError &e) {
            return e;
        }
        ADD_FAILURE() << "expected a guest trap";
        return sim::GuestTrapError(sim::GuestTrapKind::BadOpcode, 0,
                                   "unreached");
    }
};

TEST_P(GuestTraps, DivideAndRemainderByZero)
{
    auto div = trapOf(assemble({
        build::li(10, 7),
        build::rrr(Opcode::DIV, 11, 10, 0),
        build::halt(),
    }));
    EXPECT_EQ(div.kind(), sim::GuestTrapKind::DivideByZero);
    EXPECT_EQ(div.trapPc(), 1u);

    auto rem = trapOf(assemble({
        build::rrr(Opcode::REM, 11, 10, 0),
        build::halt(),
    }));
    EXPECT_EQ(rem.kind(), sim::GuestTrapKind::RemainderByZero);
    EXPECT_EQ(rem.trapPc(), 0u);
}

TEST_P(GuestTraps, FallingOffTheEndIsPcOutOfRange)
{
    auto trap = trapOf(assemble({build::nop(), build::nop()}));
    EXPECT_EQ(trap.kind(), sim::GuestTrapKind::PcOutOfRange);
    EXPECT_EQ(trap.trapPc(), 2u);
}

TEST_P(GuestTraps, WildIndirectJumpIsPcOutOfRange)
{
    auto trap = trapOf(assemble({
        build::li(10, 0x100000),
        build::jr(10),
        build::halt(),
    }));
    EXPECT_EQ(trap.kind(), sim::GuestTrapKind::PcOutOfRange);
    EXPECT_EQ(trap.trapPc(), 1u);
}

TEST_P(GuestTraps, OutOfRangeEffectiveAddressIsBadAddress)
{
    auto load = trapOf(assemble({
        build::li(10, -4),
        build::load(LoadSpec::Normal, 11, 10, 0),
        build::halt(),
    }));
    EXPECT_EQ(load.kind(), sim::GuestTrapKind::BadAddress);
    EXPECT_EQ(load.trapPc(), 1u);

    auto store = trapOf(assemble({
        build::li(10, -4),
        build::store(10, 10, 0),
        build::halt(),
    }));
    EXPECT_EQ(store.kind(), sim::GuestTrapKind::BadAddress);
}

TEST_P(GuestTraps, BadOpcodeTrapsLazily)
{
    // The junk opcode sits past HALT: predecode must stay lazy and
    // the program must run.
    Instruction junk;
    junk.op = static_cast<Opcode>(200);
    {
        sim::Emulator emu(assemble({build::halt(), junk}));
        auto result = emu.run();
        EXPECT_TRUE(result.halted);
    }
    // Reached, it traps with the typed kind.
    auto trap = trapOf(assemble({junk, build::halt()}));
    EXPECT_EQ(trap.kind(), sim::GuestTrapKind::BadOpcode);
    EXPECT_EQ(trap.trapPc(), 0u);
}

TEST_P(GuestTraps, TrapPreservesArchitecturalPc)
{
    // After a trap, a checkpoint of the emulator must hold the
    // faulting instruction's PC, under either engine.
    auto prog = assemble({
        build::li(10, 7),
        build::rrr(Opcode::DIV, 11, 10, 0),
        build::halt(),
    });
    sim::Emulator emu(prog);
    EXPECT_THROW(emu.run(), sim::GuestTrapError);
    ckpt::Writer w;
    emu.serialize(w);
    ckpt::Reader r(w.data().data(), w.size());
    EXPECT_EQ(r.u32(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, GuestTraps,
    ::testing::Values(sim::DispatchMode::Switch,
                      sim::DispatchMode::Legacy),
    [](const ::testing::TestParamInfo<sim::DispatchMode> &info) {
        return info.param == sim::DispatchMode::Switch ? "Switch"
                                                       : "Legacy";
    });

// ---------------------------------------------------------------
// Differential: switch vs. legacy, byte-identical stats.
// ---------------------------------------------------------------

TEST(DispatchDifferential, GeneratedProgramsMatchByteForByte)
{
    setQuiet(true);

    constexpr int kPrograms = 6;
    verify::ProgramGen gen(20260809);
    for (int i = 0; i < kPrograms; ++i) {
        std::string source = gen.generate();
        sim::CompiledProgram prog = sim::compile(source);
        std::string switched =
            statsDocUnder(prog, sim::DispatchMode::Switch);
        ASSERT_NE(switched.find("\"cycles\""), std::string::npos);
        // The legacy interpreter shares no predecode machinery with
        // the switch loop: agreement here pins the predecoder itself.
        std::string legacy =
            statsDocUnder(prog, sim::DispatchMode::Legacy);
        ASSERT_EQ(switched, legacy)
            << "legacy interpreter diverged on generated program "
            << i << " (seed 20260809)";
    }
}

TEST(DispatchDifferential, FunctionalResultsMatchIncludingCap)
{
    setQuiet(true);

    verify::ProgramGen gen(77);
    sim::CompiledProgram prog = sim::compile(gen.generate());

    const sim::DispatchMode modes[] = {sim::DispatchMode::Switch,
                                       sim::DispatchMode::Legacy};

    // Odd caps land mid-program: the capped PC, retire count, and
    // accumulated output must agree between modes.
    for (uint64_t cap : {1ull, 37ull, 10'001ull, 500'000'000ull}) {
        sim::EmulationResult ref;
        ckpt::Writer wref;
        for (size_t m = 0; m < 2; ++m) {
            DispatchModeGuard guard(modes[m]);
            sim::Emulator emu(prog.code.program);
            sim::EmulationResult got = emu.run(cap);
            ckpt::Writer w;
            emu.serialize(w);
            if (m == 0) {
                ref = got;
                wref = std::move(w);
                continue;
            }
            EXPECT_EQ(ref.instructions, got.instructions)
                << "cap " << cap << " mode " << m;
            EXPECT_EQ(ref.halted, got.halted)
                << "cap " << cap << " mode " << m;
            EXPECT_EQ(ref.exitValue, got.exitValue)
                << "cap " << cap << " mode " << m;
            EXPECT_EQ(ref.output, got.output)
                << "cap " << cap << " mode " << m;
            ASSERT_EQ(wref.size(), w.size())
                << "cap " << cap << " mode " << m;
            EXPECT_EQ(std::memcmp(wref.data().data(),
                                  w.data().data(), wref.size()),
                      0)
                << "architectural state diverged at cap " << cap
                << " mode " << m;
        }
    }
}

// ---------------------------------------------------------------
// Checkpointing across engines.
// ---------------------------------------------------------------

TEST(DispatchCkpt, KillResumeEquivalenceHoldsUnderLegacyDispatch)
{
    setQuiet(true);
    DispatchModeGuard guard(sim::DispatchMode::Legacy);
    std::string path =
        std::string(::testing::TempDir()) + "dispatch_equiv.ckpt";
    verify::ProgramGen gen(4242);
    verify::CkptDiffResult diff = verify::checkKillResumeEquivalence(
        gen.generate(), path, 500'000'000, 15'000,
        /*with_checker=*/true);
    EXPECT_GT(diff.legs, 0u);
    EXPECT_TRUE(diff.equivalent) << diff.detail;
}

TEST(DispatchCkpt, SnapshotCrossesDispatchModes)
{
    setQuiet(true);
    // Checkpoint mid-run under the legacy interpreter, restore and
    // finish under the switch engine: checkpoints carry architectural
    // state only, so the engine must not matter.
    verify::ProgramGen gen(99);
    sim::CompiledProgram prog = sim::compile(gen.generate());
    auto machine = pipeline::MachineConfig::proposed();

    // Snapshot mid-program: halve the program's own dynamic length
    // rather than guessing a boundary.
    uint64_t half;
    {
        sim::Emulator emu(prog.code.program);
        uint64_t total = emu.run().instructions;
        ASSERT_GT(total, 2u);
        half = total / 2;
    }

    sim::TimedResult whole = sim::runTimed(prog, machine);

    ckpt::Writer w;
    {
        DispatchModeGuard guard(sim::DispatchMode::Legacy);
        sim::ResumableTimedRun run(prog, machine, 500'000'000);
        run.step(half, {});
        ASSERT_FALSE(run.done());
        run.serialize(w);
    }
    sim::TimedResult stitched;
    {
        DispatchModeGuard guard(sim::DispatchMode::Switch);
        sim::ResumableTimedRun run(prog, machine, 500'000'000);
        ckpt::Reader r(w.data().data(), w.size());
        run.restore(r);
        while (!run.done())
            run.step(half, {});
        stitched = run.finish();
    }
    EXPECT_EQ(whole.pipe.cycles, stitched.pipe.cycles);
    EXPECT_EQ(whole.pipe.instructions, stitched.pipe.instructions);
    EXPECT_EQ(whole.emulation.exitValue,
              stitched.emulation.exitValue);
    EXPECT_EQ(whole.emulation.output, stitched.emulation.output);
}
