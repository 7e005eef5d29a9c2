/**
 * @file
 * Unit tests for the instruction set: CoFI classification (the Table
 * 3 taxonomy), encoded sizes, and disassembly.
 */

#include <gtest/gtest.h>

#include "isa/insts.hh"

namespace {

using namespace flowguard::isa;

/**
 * One opcode's Table 3 row. Only `cofi` has a predicate to check
 * (Instruction::isCofi); the other columns stay because gtest names
 * each instance by the bytes of its parameter, so they keep every
 * test ID stable.
 */
struct OpcodeTraits
{
    Opcode op;
    bool cofi;
    bool indirect;      ///< indirect jmp/call and ret: TIP-producing
    bool conditional;   ///< Jcc: TNT-producing
    bool endsFlow;      ///< no fall-through (jmp/ret/halt)
};

class OpcodeClassification
    : public ::testing::TestWithParam<OpcodeTraits>
{};

TEST_P(OpcodeClassification, MatchesTaxonomy)
{
    const auto &traits = GetParam();
    Instruction inst;
    inst.op = traits.op;
    EXPECT_EQ(inst.isCofi(), traits.cofi) << opcodeName(traits.op);
}

TEST_P(OpcodeClassification, SizeIsPositiveAndSmall)
{
    const int size = instSize(GetParam().op);
    EXPECT_GE(size, 1);
    EXPECT_LE(size, 6);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, OpcodeClassification,
    ::testing::Values(
        OpcodeTraits{Opcode::Nop, false, false, false, false},
        OpcodeTraits{Opcode::Alu, false, false, false, false},
        OpcodeTraits{Opcode::AluImm, false, false, false, false},
        OpcodeTraits{Opcode::MovImm, false, false, false, false},
        OpcodeTraits{Opcode::MovReg, false, false, false, false},
        OpcodeTraits{Opcode::Load, false, false, false, false},
        OpcodeTraits{Opcode::Store, false, false, false, false},
        OpcodeTraits{Opcode::Cmp, false, false, false, false},
        OpcodeTraits{Opcode::CmpImm, false, false, false, false},
        OpcodeTraits{Opcode::Jcc, true, false, true, false},
        OpcodeTraits{Opcode::Jmp, true, false, false, true},
        OpcodeTraits{Opcode::JmpInd, true, true, false, true},
        OpcodeTraits{Opcode::Call, true, false, false, false},
        OpcodeTraits{Opcode::CallInd, true, true, false, false},
        OpcodeTraits{Opcode::Ret, true, true, false, true},
        OpcodeTraits{Opcode::Syscall, true, false, false, false},
        OpcodeTraits{Opcode::Halt, false, false, false, true}));

TEST(Insts, VariableSizesDiffer)
{
    // Variable-length encoding matters for gadget addresses and IP
    // compression; make sure we did not accidentally flatten it.
    EXPECT_NE(instSize(Opcode::Ret), instSize(Opcode::MovImm));
    EXPECT_NE(instSize(Opcode::Jcc), instSize(Opcode::Call));
}

TEST(Insts, DisassemblyMentionsOperands)
{
    Instruction inst;
    inst.op = Opcode::Load;
    inst.rd = 3;
    inst.rs = 7;
    inst.imm = 16;
    const std::string text = disassemble(inst, 0x400000);
    EXPECT_NE(text.find("load"), std::string::npos);
    EXPECT_NE(text.find("r3"), std::string::npos);
    EXPECT_NE(text.find("r7"), std::string::npos);
    EXPECT_NE(text.find("400000"), std::string::npos);
}

TEST(Insts, DisassemblyOfBranchShowsTarget)
{
    Instruction inst;
    inst.op = Opcode::Jcc;
    inst.cond = Cond::Lt;
    inst.target = 0xabcd;
    const std::string text = disassemble(inst, 0x1000);
    EXPECT_NE(text.find("jlt"), std::string::npos);
    EXPECT_NE(text.find("abcd"), std::string::npos);
}

TEST(Insts, NamesAreStable)
{
    EXPECT_STREQ(opcodeName(Opcode::CallInd), "call*");
    EXPECT_STREQ(aluOpName(AluOp::Xor), "xor");
    EXPECT_STREQ(condName(Cond::Ge), "ge");
}

} // namespace
