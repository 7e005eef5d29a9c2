/**
 * @file
 * Unit tests for the instruction set: CoFI classification (the Table
 * 3 taxonomy), encoded sizes, and disassembly.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "isa/insts.hh"

namespace {

using namespace flowguard::isa;

/** One opcode and its Table 3 CoFI column (Instruction::isCofi). */
struct OpcodeTraits
{
    Opcode op;
    bool cofi;
};

/** Names the test after its opcode ("call*" becomes "call_ind").
 *  Without it the test ID is a byte dump of the parameter, so any
 *  change to the struct renames every instance. */
void
PrintTo(const OpcodeTraits &traits, std::ostream *os)
{
    const std::string name = opcodeName(traits.op);
    *os << (name.back() == '*' ? name.substr(0, name.size() - 1) + "_ind"
                               : name);
}

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
        OpcodeTraits{Opcode::Nop, false},
        OpcodeTraits{Opcode::Alu, false},
        OpcodeTraits{Opcode::AluImm, false},
        OpcodeTraits{Opcode::MovImm, false},
        OpcodeTraits{Opcode::MovReg, false},
        OpcodeTraits{Opcode::Load, false},
        OpcodeTraits{Opcode::Store, false},
        OpcodeTraits{Opcode::Cmp, false},
        OpcodeTraits{Opcode::CmpImm, false},
        OpcodeTraits{Opcode::Jcc, true},
        OpcodeTraits{Opcode::Jmp, true},
        OpcodeTraits{Opcode::JmpInd, true},
        OpcodeTraits{Opcode::Call, true},
        OpcodeTraits{Opcode::CallInd, true},
        OpcodeTraits{Opcode::Ret, true},
        OpcodeTraits{Opcode::Syscall, true},
        OpcodeTraits{Opcode::Halt, false}));

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
