/**
 * @file
 * Branchless SREG flag evaluation for the superblock backend
 * (superblock.cc): one read-modify-write of SREG per instruction
 * instead of one per flag. The reference path (Machine::step) keeps
 * the original setFlag-based helpers; tests/test_superblock.cc pins
 * both loops to bit-identical SREG values.
 *
 * The helpers behind the superblock's reduced flag handlers (add,
 * sub, logic, mul) are masked: their template argument M names the
 * arithmetic flags (a subset of sregArith) the caller wants. Such a
 * helper computes the flags its instruction class writes and commits
 * only those in M, leaving the rest of SREG as it was. M is a
 * compile-time constant, so the compiler drops the arithmetic of
 * every flag outside it. The default, sregArith, is the architectural
 * result. The superblock's flag-liveness pass (DESIGN.md §11) picks
 * sregC or 0 for an element whose other flags nothing reads.
 */

#ifndef JAAVR_AVR_FLAGS_HH
#define JAAVR_AVR_FLAGS_HH

#include <cstdint>

namespace jaavr
{

// SREG bit masks (bit order as in Machine: C Z N V S H T I).
inline constexpr uint8_t sregC = 0x01, sregZ = 0x02, sregN = 0x04,
                         sregV = 0x08, sregS = 0x10, sregH = 0x20,
                         sregT = 0x40, sregI = 0x80;

/** The arithmetic flags, the ones the masks select from. */
inline constexpr uint8_t sregArith =
    sregC | sregZ | sregN | sregV | sregS | sregH;

/** Commit flag bits @p f of a helper writing @p W, restricted to M. */
template <uint8_t M, uint8_t W>
inline void
commitFlags(uint8_t &sreg, uint8_t f)
{
    static_assert((M & ~sregArith) == 0, "only arithmetic flags mask");
    constexpr uint8_t m = M & W;
    sreg = static_cast<uint8_t>((sreg & ~m) | (f & m));
}

/** ADD/ADC flags: H, S, V, N, Z, C. */
template <uint8_t M = sregArith>
inline void
addFlagsB(uint8_t &sreg, uint8_t d, uint8_t s, uint8_t r)
{
    uint8_t carries = (d & s) | (s & ~r) | (~r & d);
    uint8_t ovf = (d & s & ~r) | (~d & ~s & r);
    uint8_t n = (r >> 7) & 1;
    uint8_t v = (ovf >> 7) & 1;
    uint8_t f = static_cast<uint8_t>((carries >> 7) & 1);      // C
    f |= static_cast<uint8_t>(r == 0) << 1;                    // Z
    f |= n << 2;                                               // N
    f |= v << 3;                                               // V
    f |= (n ^ v) << 4;                                         // S
    f |= ((carries >> 3) & 1) << 5;                            // H
    commitFlags<M, sregArith>(sreg, f);
}

/** SUB/SBC/CP flags: H, S, V, N, Z, C; Z sticky when @p keep_z. */
template <uint8_t M = sregArith>
inline void
subFlagsB(uint8_t &sreg, uint8_t d, uint8_t s, uint8_t r, bool keep_z)
{
    uint8_t borrows = (~d & s) | (s & r) | (r & ~d);
    uint8_t ovf = (d & ~s & ~r) | (~d & s & r);
    uint8_t n = (r >> 7) & 1;
    uint8_t v = (ovf >> 7) & 1;
    uint8_t z = static_cast<uint8_t>(r == 0);
    if (keep_z)  // constant at every call site
        z &= (sreg >> 1) & 1;
    uint8_t f = static_cast<uint8_t>((borrows >> 7) & 1);
    f |= z << 1;
    f |= n << 2;
    f |= v << 3;
    f |= (n ^ v) << 4;
    f |= ((borrows >> 3) & 1) << 5;
    commitFlags<M, sregArith>(sreg, f);
}

/** AND/OR/EOR flags: V=0, S=N, plus N and Z; C and H untouched. */
template <uint8_t M = sregArith>
inline void
logicFlagsB(uint8_t &sreg, uint8_t r)
{
    uint8_t n = (r >> 7) & 1;
    uint8_t f = static_cast<uint8_t>(static_cast<uint8_t>(r == 0) << 1 |
                                     n << 2 | n << 4);
    commitFlags<M, sregZ | sregN | sregV | sregS>(sreg, f);
}

/** LSR/ROR flags: S, V=N^C, N, Z, C; H untouched. */
inline void
shiftFlagsB(uint8_t &sreg, uint8_t r, uint8_t carry_bit)
{
    uint8_t n = (r >> 7) & 1;
    uint8_t c = carry_bit & 1;
    uint8_t v = n ^ c;
    uint8_t f = static_cast<uint8_t>(c | static_cast<uint8_t>(r == 0) << 1 |
                                     n << 2 | v << 3 | (n ^ v) << 4);
    sreg = (sreg & ~(sregC | sregZ | sregN | sregV | sregS)) | f;
}

/** ADIW/SBIW flags on the 16-bit result: S, V, N, Z, C; H untouched. */
inline void
wideFlagsB(uint8_t &sreg, uint16_t r, bool v, bool c)
{
    uint8_t n = (r >> 15) & 1;
    uint8_t vb = v ? 1 : 0;
    uint8_t f = static_cast<uint8_t>((c ? 1 : 0) |
                                     static_cast<uint8_t>(r == 0) << 1 |
                                     n << 2 | vb << 3 | (n ^ vb) << 4);
    sreg = (sreg & ~(sregC | sregZ | sregN | sregV | sregS)) | f;
}

/** MUL/MULS/MULSU/FMUL* flags: Z and C only. */
template <uint8_t M = sregArith>
inline void
mulFlagsB(uint8_t &sreg, uint16_t product, bool carry)
{
    uint8_t f = static_cast<uint8_t>((carry ? 1 : 0) |
                                     static_cast<uint8_t>(product == 0)
                                         << 1);
    commitFlags<M, sregC | sregZ>(sreg, f);
}

} // namespace jaavr

#endif // JAAVR_AVR_FLAGS_HH
