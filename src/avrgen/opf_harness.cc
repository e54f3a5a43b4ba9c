#include "avrgen/opf_harness.hh"

#include "avrgen/secp160_routines.hh"
#include "support/logging.hh"

namespace jaavr
{

namespace
{

/** The library's routines under OpfField's names; keeps the first
 *  trap any of them raises. */
struct IssField
{
    OpfAvrLibrary &lib;
    Trap &trap;

    OpfField::Words
    keep(OpfRun r)
    {
        if (r.trap && !trap)
            trap = r.trap;
        return std::move(r.result);
    }

    auto add(const auto &a, const auto &b) { return keep(lib.add(a, b)); }
    auto sub(const auto &a, const auto &b) { return keep(lib.sub(a, b)); }
    auto montMul(const auto &a, const auto &b) { return keep(lib.mul(a, b)); }
};

} // anonymous namespace

OpfAvrLibrary::OpfAvrLibrary(CpuMode mode, size_t words,
                             const std::string &prefix,
                             const std::vector<std::string> &src)
    : s(words), prefix(prefix), machine_(std::make_unique<Machine>(mode))
{
    for (size_t r = 0; r < src.size(); r++) {
        progs.push_back(assemble(src[r], prefix + kSuffix[r]));
        machine_->loadProgram(progs.back().words, kEntry[r]);
    }
}

OpfAvrLibrary::OpfAvrLibrary(const OpfPrime &prime, CpuMode mode)
    : OpfAvrLibrary(mode, prime.k / 32 + 1, "opf",
                    {genOpfAddSub(prime, false), genOpfAddSub(prime, true),
                     mode == CpuMode::ISE ? genOpfMulIse(prime)
                                          : genOpfMulNative(prime),
                     genOpfMontInverse(prime, invEntry)})
{}

OpfAvrLibrary
OpfAvrLibrary::secp160r1(CpuMode mode)
{
    std::vector<std::string> src = {genSecp160AddSub(false),
                                    genSecp160AddSub(true),
                                    genSecp160Mul(), genSecp160Inverse()};
    if (mode == CpuMode::ISE)
        src.push_back(genSecp160MulIse());
    return OpfAvrLibrary(mode, 5, "secp160", src);
}

OpfRun
OpfAvrLibrary::run(Routine r, const OpfField::Words &a,
                   const OpfField::Words &b)
{
    if (a.size() != s || b.size() != s)
        panic("OpfAvrLibrary: operand word count mismatch");
    // Operands and result are little-endian byte images of the words,
    // staged byte by byte with no temporary buffer.
    auto put = [&](uint16_t addr, const OpfField::Words &w) {
        for (size_t i = 0; i < 4 * s; i++)
            machine_->writeData(
                addr + i, static_cast<uint8_t>(w[i / 4] >> (8 * (i % 4))));
    };
    put(OpfMemoryMap::aAddr, a);
    put(OpfMemoryMap::bAddr, b);
    machine_->setY(OpfMemoryMap::aAddr);
    machine_->setZ(OpfMemoryMap::bAddr);
    machine_->setSp(0x10ff);
    uint64_t insts = machine_->stats().instructions;
    RunResult rr = machine_->call(kEntry[r]);
    OpfRun out;
    out.cycles = rr.cycles;
    out.trap = rr.trap;
    out.instructions = machine_->stats().instructions - insts;
    out.result.assign(s, 0);
    for (size_t i = 0; i < 4 * s; i++)
        out.result[i / 4] |=
            static_cast<uint32_t>(
                machine_->readData(OpfMemoryMap::resultAddr + i))
            << (8 * (i % 4));
    return out;
}

OpfRun
OpfAvrLibrary::add(const OpfField::Words &a, const OpfField::Words &b)
{
    return run(Add, a, b);
}

OpfRun
OpfAvrLibrary::sub(const OpfField::Words &a, const OpfField::Words &b)
{
    return run(Sub, a, b);
}

OpfRun
OpfAvrLibrary::mul(const OpfField::Words &a, const OpfField::Words &b)
{
    return run(Mul, a, b);
}

OpfRun
OpfAvrLibrary::inv(const OpfField::Words &a)
{
    return run(Inv, a, OpfField::Words(s, 0));
}

OpfRun
OpfAvrLibrary::mulIse(const OpfField::Words &a, const OpfField::Words &b)
{
    if (progs.size() <= MulIse)
        panic("OpfAvrLibrary::mulIse requires ISE mode and the "
              "secp160r1 routine set");
    return run(MulIse, a, b);
}

OpfLadderRun
OpfAvrLibrary::ladder(
    const OpfField::Words &a24m, const OpfField::Words &x1m,
    const BigUInt &k, unsigned kbits, LadderState<OpfField::Words> start,
    const std::function<bool(unsigned,
                             const LadderState<OpfField::Words> &)> &before)
{
    OpfLadderRun out;
    IssField iss{*this, out.trap};
    out.state = montLadder(
        OpfFieldOps{iss, a24m}, x1m, std::move(start), k, kbits,
        [&](unsigned i, const LadderState<OpfField::Words> &st) {
            return !out.trap && (!before || before(i, st));
        });
    return out;
}

SymbolTable
OpfAvrLibrary::symbols() const
{
    SymbolTable st;
    for (size_t r = 0; r < progs.size(); r++)
        st.addProgram(prefix + kSuffix[r], progs[r], kEntry[r]);
    return st;
}

size_t
OpfAvrLibrary::romBytes() const
{
    size_t n = 0;
    for (unsigned r = Add; r <= Inv; r++)
        n += progs[r].romBytes();
    return n;
}

} // namespace jaavr
