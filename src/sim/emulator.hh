/**
 * @file
 * Functional emulator for ELAG machine programs.
 *
 * Executes architecturally and streams each committed instruction
 * (with its real effective address and branch outcome) to an
 * observer — the "emulation-driven" methodology of Section 5.1: the
 * same committed stream drives the timing model and the address
 * profiler.
 *
 * The emulator runs over a predecoded DecodedStream (sim/decoded.hh)
 * rather than raw isa::Instruction records: handler specialization,
 * operand pre-resolution, and the retire flag word all happen once
 * per static instruction instead of once per committed instruction.
 * Two engines execute it:
 *
 *  - runSwitch(): a switch over the predecoded handler indices
 *    (sim/exec_loop.inc), the default engine.
 *  - runLegacy(): the pre-predecode reference interpreter, selectable
 *    at runtime (sim::setDispatchMode or ELAG_DISPATCH=legacy) as a
 *    differential oracle and a same-runner perf baseline.
 *
 * tests/test_dispatch.cc pins the two engines' stats documents
 * byte-for-byte.
 *
 * run() is a template over the observer callable so the per-retire
 * callback (typically "feed the pipeline timing model") inlines into
 * the dispatch loop; this loop executes once per simulated
 * instruction and an opaque std::function indirection here costs
 * measurable whole-simulation throughput.
 */

#ifndef ELAG_SIM_EMULATOR_HH
#define ELAG_SIM_EMULATOR_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "isa/program.hh"
#include "isa/registers.hh"
#include "mem/memory.hh"
#include "pipeline/pipeline.hh"
#include "sim/decoded.hh"
#include "support/logging.hh"

namespace elag {
namespace sim {

/** Result of a functional run. */
struct EmulationResult
{
    /** Instructions committed. */
    uint64_t instructions = 0;
    /** Values emitted by the program's print() builtin. */
    std::vector<int32_t> output;
    /** True if the program reached HALT (vs. the instruction cap). */
    bool halted = false;
    /** Exit value (main's return value, register r4 at HALT). */
    int32_t exitValue = 0;
};

/**
 * True when two runs of one program agree architecturally: print
 * output, exit value, instruction count, and halted flag. Timing
 * (and anything a fault injector may move) is not compared.
 */
inline bool
sameArchitecture(const EmulationResult &a, const EmulationResult &b)
{
    return a.output == b.output && a.exitValue == b.exitValue &&
           a.instructions == b.instructions && a.halted == b.halted;
}

/**
 * Checkpoint codec for a (possibly partial) emulation result — used
 * to carry the retired-instruction count and accumulated print()
 * output across a checkpoint/restore boundary.
 */
void serialize(ckpt::Writer &w, const EmulationResult &result);
void restore(ckpt::Reader &r, EmulationResult &result);

/** The emulator. */
class Emulator
{
  public:
    /**
     * Type-erased committed-instruction sink; prefer passing a
     * lambda directly to run() so the call inlines.
     */
    using Observer = std::function<void(const pipeline::RetiredInst &)>;

    explicit Emulator(const isa::MachineProgram &program);

    /**
     * Run until HALT or @p max_instructions, streaming every
     * committed instruction to @p observer in program order.
     *
     * Guest faults (divide by zero, wild PC, out-of-range effective
     * address, undecodable opcode) raise GuestTrapError; the
     * architected PC visible to serialize() is the faulting
     * instruction's PC.
     */
    template <typename F>
    EmulationResult run(uint64_t max_instructions, F &&observer);

    /** Run until HALT or @p max_instructions, with no observer. */
    EmulationResult run(uint64_t max_instructions = 500'000'000);

    /** Architected integer register (for tests). */
    int32_t reg(int index) const;
    /** The memory image (for tests). */
    const mem::MainMemory &memory() const { return mem_; }
    mem::MainMemory &memory() { return mem_; }

    /**
     * Checkpoint the architectural state: PC, integer and FP
     * register files, and the full memory image. The program itself
     * is not captured; restore() requires an Emulator constructed
     * over the identical MachineProgram (checked by program hash at
     * the checkpoint layer). The predecoded stream is derived state
     * and never serialized, so checkpoints taken under one engine
     * restore under the other.
     */
    void serialize(ckpt::Writer &w) const;
    void restore(ckpt::Reader &r);

  private:
    template <typename F>
    EmulationResult runSwitch(uint64_t max_instructions, F &&observer);
    template <typename F>
    EmulationResult runLegacy(uint64_t max_instructions, F &&observer);

    void reset();

    // Owned copy, not a reference: the legacy loop decodes from the
    // raw program at run time (the switch engine only touches the
    // shared DecodedStream), and callers may construct an Emulator
    // from a temporary MachineProgram.
    const isa::MachineProgram prog;
    std::shared_ptr<const DecodedStream> stream_;
    mem::MainMemory mem_;
    int32_t regs[isa::NumIntRegs] = {};
    float fregs[isa::NumFpRegs] = {};
    uint32_t pc_ = 0;
};

template <typename F>
EmulationResult
Emulator::run(uint64_t max_instructions, F &&observer)
{
    if (dispatchMode() == DispatchMode::Legacy) [[unlikely]]
        return runLegacy(max_instructions,
                         std::forward<F>(observer));
    return runSwitch(max_instructions, std::forward<F>(observer));
}

template <typename F>
EmulationResult
Emulator::runSwitch(uint64_t max_instructions, F &&observer)
{
#include "sim/exec_loop.inc"
}

/**
 * The pre-predecode reference interpreter: a decode-as-you-go switch
 * over raw isa::Instruction records, kept alive (with the typed guest
 * traps) as a differential oracle — it shares no predecode
 * machinery with the switch engine — and as the same-runner baseline
 * the dispatch A/B benches and the CI perf smoke measure against.
 * RetiredInst records leave flag::Valid clear, so this mode also
 * exercises the pipeline's decode-at-retire fallback.
 */
template <typename F>
EmulationResult
Emulator::runLegacy(uint64_t max_instructions, F &&observer)
{
    using isa::Instruction;
    using isa::Opcode;

    EmulationResult result;
    const uint32_t size = static_cast<uint32_t>(prog.code.size());
    const uint64_t mem_size = mem_.size();
    uint32_t pc = pc_;

    if (pc > size) {
        throw GuestTrapError(
            GuestTrapKind::PcOutOfRange, pc,
            formatString("emulator: PC 0x%x out of range", pc));
    }
    if (max_instructions == 0)
        return result;

    auto read_reg = [&](int r) -> int32_t {
        return r == 0 ? 0 : regs[r];
    };
    auto write_reg = [&](int r, int32_t v) {
        if (r != 0)
            regs[r] = v;
    };
    auto check_ea = [&](uint32_t ea, uint32_t bytes) {
        if (static_cast<uint64_t>(ea) + bytes > mem_size) {
            throw GuestTrapError(
                GuestTrapKind::BadAddress, pc,
                formatString("emulator: memory access out of range "
                             "at pc %u: addr=0x%x",
                             pc, ea));
        }
    };

    try {
        while (result.instructions < max_instructions) {
            if (pc >= size) {
                throw GuestTrapError(
                    GuestTrapKind::PcOutOfRange, pc,
                    formatString("emulator: PC 0x%x out of range",
                                 pc));
            }
            const Instruction &inst = prog.code[pc];

            pipeline::RetiredInst ri;
            ri.pc = pc;
            ri.inst = inst;

            uint32_t next_pc = pc + 1;
            uint32_t a = static_cast<uint32_t>(read_reg(inst.rs1));
            uint32_t b = static_cast<uint32_t>(read_reg(inst.rs2));
            int32_t sa = static_cast<int32_t>(a);
            int32_t sb = static_cast<int32_t>(b);
            int32_t imm = inst.imm;

            switch (inst.op) {
              // Wrapping guest arithmetic, in uint32_t (signed
              // overflow is undefined on the host).
              case Opcode::ADD:
                write_reg(inst.rd, static_cast<int32_t>(a + b));
                break;
              case Opcode::SUB:
                write_reg(inst.rd, static_cast<int32_t>(a - b));
                break;
              case Opcode::MUL:
                write_reg(inst.rd, static_cast<int32_t>(a * b));
                break;
              case Opcode::DIV:
                if (sb == 0) {
                    throw GuestTrapError(
                        GuestTrapKind::DivideByZero, pc,
                        formatString(
                            "emulator: divide by zero at pc %u", pc));
                }
                write_reg(inst.rd, (sa == INT32_MIN && sb == -1)
                                       ? INT32_MIN
                                       : sa / sb);
                break;
              case Opcode::REM:
                if (sb == 0) {
                    throw GuestTrapError(
                        GuestTrapKind::RemainderByZero, pc,
                        formatString(
                            "emulator: remainder by zero at pc %u",
                            pc));
                }
                write_reg(inst.rd,
                          (sa == INT32_MIN && sb == -1) ? 0 : sa % sb);
                break;
              case Opcode::AND: write_reg(inst.rd, sa & sb); break;
              case Opcode::OR: write_reg(inst.rd, sa | sb); break;
              case Opcode::XOR: write_reg(inst.rd, sa ^ sb); break;
              case Opcode::SLL:
                write_reg(inst.rd,
                          static_cast<int32_t>(a << (b & 31)));
                break;
              case Opcode::SRL:
                write_reg(inst.rd,
                          static_cast<int32_t>(a >> (b & 31)));
                break;
              case Opcode::SRA:
                write_reg(inst.rd, sa >> (b & 31));
                break;
              case Opcode::SLT: write_reg(inst.rd, sa < sb); break;
              case Opcode::SLTU: write_reg(inst.rd, a < b); break;
              case Opcode::SEQ: write_reg(inst.rd, sa == sb); break;
              case Opcode::ADDI:
                write_reg(inst.rd, static_cast<int32_t>(
                                       a + static_cast<uint32_t>(imm)));
                break;
              case Opcode::ANDI: write_reg(inst.rd, sa & imm); break;
              case Opcode::ORI: write_reg(inst.rd, sa | imm); break;
              case Opcode::XORI: write_reg(inst.rd, sa ^ imm); break;
              case Opcode::SLLI:
                write_reg(inst.rd,
                          static_cast<int32_t>(a << (imm & 31)));
                break;
              case Opcode::SRLI:
                write_reg(inst.rd,
                          static_cast<int32_t>(a >> (imm & 31)));
                break;
              case Opcode::SRAI:
                write_reg(inst.rd, sa >> (imm & 31));
                break;
              case Opcode::SLTI: write_reg(inst.rd, sa < imm); break;
              case Opcode::LUI: write_reg(inst.rd, imm << 16); break;
              case Opcode::LOAD: {
                uint32_t ea = inst.mode == isa::AddrMode::BaseOffset
                                  ? a + static_cast<uint32_t>(imm)
                                  : a + b;
                ri.effAddr = ea;
                uint32_t bytes =
                    inst.width == isa::MemWidth::Byte ? 1u : 4u;
                check_ea(ea, bytes);
                int32_t value =
                    inst.width == isa::MemWidth::Byte
                        ? static_cast<int32_t>(mem_.readByte(ea))
                        : static_cast<int32_t>(mem_.readWord(ea));
                write_reg(inst.rd, value);
                break;
              }
              case Opcode::STORE: {
                uint32_t ea = inst.mode == isa::AddrMode::BaseOffset
                                  ? a + static_cast<uint32_t>(imm)
                                  : a + b;
                ri.effAddr = ea;
                uint32_t bytes =
                    inst.width == isa::MemWidth::Byte ? 1u : 4u;
                check_ea(ea, bytes);
                if (inst.width == isa::MemWidth::Byte)
                    mem_.writeByte(ea, static_cast<uint8_t>(b));
                else
                    mem_.writeWord(ea, b);
                break;
              }
              case Opcode::BEQ: ri.taken = sa == sb; break;
              case Opcode::BNE: ri.taken = sa != sb; break;
              case Opcode::BLT: ri.taken = sa < sb; break;
              case Opcode::BGE: ri.taken = sa >= sb; break;
              case Opcode::BLTU: ri.taken = a < b; break;
              case Opcode::BGEU: ri.taken = a >= b; break;
              case Opcode::JMP:
                ri.taken = true;
                next_pc = static_cast<uint32_t>(imm);
                break;
              case Opcode::JAL:
                ri.taken = true;
                write_reg(inst.rd, static_cast<int32_t>(pc + 1));
                next_pc = static_cast<uint32_t>(imm);
                break;
              case Opcode::JR:
                ri.taken = true;
                next_pc = a;
                break;
              case Opcode::FADD:
                fregs[inst.rd] = fregs[inst.rs1] + fregs[inst.rs2];
                break;
              case Opcode::FSUB:
                fregs[inst.rd] = fregs[inst.rs1] - fregs[inst.rs2];
                break;
              case Opcode::FMUL:
                fregs[inst.rd] = fregs[inst.rs1] * fregs[inst.rs2];
                break;
              case Opcode::FDIV:
                fregs[inst.rd] = fregs[inst.rs1] / fregs[inst.rs2];
                break;
              case Opcode::FLOAD: {
                uint32_t ea = inst.mode == isa::AddrMode::BaseOffset
                                  ? a + static_cast<uint32_t>(imm)
                                  : a + b;
                ri.effAddr = ea;
                check_ea(ea, 4);
                uint32_t bits = mem_.readWord(ea);
                float f;
                std::memcpy(&f, &bits, 4);
                fregs[inst.rd] = f;
                break;
              }
              case Opcode::FSTORE: {
                uint32_t ea = a + static_cast<uint32_t>(imm);
                ri.effAddr = ea;
                check_ea(ea, 4);
                uint32_t bits;
                std::memcpy(&bits, &fregs[inst.rs2], 4);
                mem_.writeWord(ea, bits);
                break;
              }
              case Opcode::CVTIF:
                fregs[inst.rd] = static_cast<float>(sa);
                break;
              case Opcode::CVTFI:
                write_reg(inst.rd,
                          static_cast<int32_t>(fregs[inst.rs1]));
                break;
              case Opcode::PRINT:
                result.output.push_back(sa);
                break;
              case Opcode::HALT:
                ++result.instructions;
                ri.nextPc = pc;
                observer(ri);
                result.halted = true;
                result.exitValue = read_reg(isa::reg::Arg0);
                pc_ = pc;
                return result;
              case Opcode::NOP:
                break;
              default:
                throw GuestTrapError(
                    GuestTrapKind::BadOpcode, pc,
                    formatString("emulator: bad opcode at pc %u",
                                 pc));
            }

            // Conditional branches pick their target here; explicit
            // transfers validate it like the predecoded loops do
            // (== size flows to the next iteration's range trap).
            if (inst.isCondBranch() && ri.taken)
                next_pc = static_cast<uint32_t>(imm);
            if (next_pc > size) {
                throw GuestTrapError(
                    GuestTrapKind::PcOutOfRange, pc,
                    formatString("emulator: control transfer to PC "
                                 "0x%x out of range at pc %u",
                                 next_pc, pc));
            }

            ri.nextPc = next_pc;
            ++result.instructions;
            observer(ri);
            pc = next_pc;
        }
        pc_ = pc;
        result.halted = false;
        return result;
    } catch (...) {
        pc_ = pc;
        throw;
    }
}

inline EmulationResult
Emulator::run(uint64_t max_instructions)
{
    return run(max_instructions,
               [](const pipeline::RetiredInst &) {});
}

} // namespace sim
} // namespace elag

#endif // ELAG_SIM_EMULATOR_HH
