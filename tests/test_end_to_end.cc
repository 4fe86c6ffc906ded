/**
 * @file
 * End-to-end integration tests: mini-C source -> optimized IR ->
 * classified machine code -> functional emulation -> timing model.
 */

#include <gtest/gtest.h>

#include "pipeline/config.hh"
#include "sim/simulator.hh"
#include "support/logging.hh"
#include "support/subprocess.hh"
#include "verify/invariant_checker.hh"

using namespace elag;

namespace {

sim::CompiledProgram
compileQuiet(const std::string &src,
             const sim::CompileOptions &options = {})
{
    setQuiet(true);
    return sim::compile(src, options);
}

} // namespace

TEST(EndToEnd, ReturnsConstant)
{
    auto prog = compileQuiet("int main() { return 42; }");
    sim::Emulator emu(prog.code.program);
    auto result = emu.run();
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(result.exitValue, 42);
}

TEST(EndToEnd, ArithmeticAndPrint)
{
    auto prog = compileQuiet(R"(
        int main() {
            int a = 6;
            int b = 7;
            print(a * b);
            print(a + b * 2);
            print((a - b) / 1);
            return 0;
        }
    )");
    sim::Emulator emu(prog.code.program);
    auto result = emu.run();
    ASSERT_TRUE(result.halted);
    ASSERT_EQ(result.output.size(), 3u);
    EXPECT_EQ(result.output[0], 42);
    EXPECT_EQ(result.output[1], 20);
    EXPECT_EQ(result.output[2], -1);
}

TEST(EndToEnd, LoopSum)
{
    auto prog = compileQuiet(R"(
        int main() {
            int sum = 0;
            for (int i = 0; i < 100; i++)
                sum += i;
            print(sum);
            return sum;
        }
    )");
    sim::Emulator emu(prog.code.program);
    auto result = emu.run();
    ASSERT_TRUE(result.halted);
    ASSERT_EQ(result.output.size(), 1u);
    EXPECT_EQ(result.output[0], 4950);
}

TEST(EndToEnd, GlobalArrayStriding)
{
    auto prog = compileQuiet(R"(
        int arr[64];
        int main() {
            for (int i = 0; i < 64; i++)
                arr[i] = i * 3;
            int sum = 0;
            for (int i = 0; i < 64; i++)
                sum += arr[i];
            print(sum);
            return 0;
        }
    )");
    sim::Emulator emu(prog.code.program);
    auto result = emu.run();
    ASSERT_TRUE(result.halted);
    EXPECT_EQ(result.output[0], 3 * 63 * 64 / 2);
}

TEST(EndToEnd, PointerChasing)
{
    // Build a linked list with alloc() and walk it: the while loop's
    // loads should be classified ld_e (load-dependent).
    auto prog = compileQuiet(R"(
        int main() {
            int *head = (int*)0;
            for (int i = 0; i < 50; i++) {
                int *node = (int*)alloc(12);
                node[0] = i;
                node[1] = i * 2;
                node[2] = (int)head;
                head = node;
            }
            int sum = 0;
            int *p = head;
            while (p) {
                sum += p[0];
                sum += p[1];
                p = (int*)p[2];
            }
            print(sum);
            return 0;
        }
    )");
    sim::Emulator emu(prog.code.program);
    auto result = emu.run();
    ASSERT_TRUE(result.halted);
    EXPECT_EQ(result.output[0], 49 * 50 / 2 * 3);
    // Classification found some early-calc loads.
    EXPECT_GT(prog.classStats.numEarlyCalc, 0);
}

TEST(EndToEnd, RecursionAndCalls)
{
    auto prog = compileQuiet(R"(
        int fib(int n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        int main() {
            print(fib(15));
            return 0;
        }
    )");
    sim::Emulator emu(prog.code.program);
    auto result = emu.run();
    ASSERT_TRUE(result.halted);
    EXPECT_EQ(result.output[0], 610);
}

TEST(EndToEnd, TimedRunProducesCycles)
{
    auto prog = compileQuiet(R"(
        int arr[256];
        int main() {
            for (int i = 0; i < 256; i++)
                arr[i] = i;
            int sum = 0;
            for (int r = 0; r < 10; r++)
                for (int i = 0; i < 256; i++)
                    sum += arr[i];
            print(sum);
            return 0;
        }
    )");
    // Both runs audited by the Section-3.2 invariant checker: every
    // event stream the tier-1 suite produces is safety-checked.
    verify::InvariantChecker base_check, fast_check;
    auto base = sim::runTimed(prog, pipeline::MachineConfig::baseline(),
                              500'000'000, {&base_check});
    auto fast = sim::runTimed(prog, pipeline::MachineConfig::proposed(),
                              500'000'000, {&fast_check});
    base_check.finish(base.pipe);
    fast_check.finish(fast.pipe);
    EXPECT_GT(fast_check.eventsChecked(), 0u);
    EXPECT_TRUE(base.emulation.halted);
    EXPECT_GT(base.pipe.cycles, 0u);
    EXPECT_EQ(base.pipe.instructions, fast.pipe.instructions);
    // Early address generation must never slow the machine down on a
    // strided kernel, and should usually speed it up.
    EXPECT_LE(fast.pipe.cycles, base.pipe.cycles);
    // The strided loop should be classified predictable and forward.
    EXPECT_GT(fast.pipe.predict.forwarded, 0u);
}

TEST(EndToEnd, ProfileRunRates)
{
    auto prog = compileQuiet(R"(
        int arr[128];
        int main() {
            for (int i = 0; i < 128; i++)
                arr[i] = i;
            int sum = 0;
            for (int r = 0; r < 4; r++)
                for (int i = 0; i < 128; i++)
                    sum += arr[i];
            print(sum);
            return 0;
        }
    )");
    auto profile = sim::runProfile(prog);
    EXPECT_TRUE(profile.emulation.halted);
    EXPECT_GT(profile.totalLoads(), 0u);
    // Strided loads profile as highly predictable.
    EXPECT_GT(profile.predict.rate(), 0.8);
}

#ifdef ELAG_ELAGC_BIN

TEST(EndToEnd, ElagcRejectsUnknownNamesBeforeCompiling)
{
    // A valid workload, so any output at all would mean elagc went
    // on to compile (the "compiled:" banner) or simulate it.
    for (const char *bad : {"--machine=basline", "--machine=Proposed",
                            "--selection=bogus"}) {
        auto r = runSubprocess({ELAG_ELAGC_BIN, "--workload=adpcm_enc",
                                "--json-stats=-", bad});
        ASSERT_EQ(r.status, SubprocessStatus::Exited) << bad;
        EXPECT_EQ(r.exitCode, 2) << bad << ": " << r.err;
        EXPECT_EQ(r.out, "") << bad;
        EXPECT_NE(r.err.find("usage:"), std::string::npos) << r.err;
        EXPECT_EQ(r.err.find("compiled:"), std::string::npos) << r.err;
    }
}

#endif // ELAG_ELAGC_BIN
