/**
 * @file
 * The (32 x 4)-bit Multiply-Accumulate unit of the paper (Fig. 1).
 *
 * Structure, mirrored from the figure and Section IV-A:
 *  - first operand: the 32-bit word in registers R16..R19;
 *  - second operand: a 4-bit nibble (from the SWAP-ed register in
 *    Algorithm 1 mode, or from the byte loaded into R24 in
 *    Algorithm 2 mode);
 *  - a (32 x 4)-bit multiplier producing a 36-bit product;
 *  - a barrel shifter shifting the product left by 4 * counter bits
 *    (counter auto-increments and wraps after eight MACs);
 *  - a 72-bit adder accumulating into the fixed registers R0..R8.
 *
 * All of this retires in a single clock cycle and does not stall the
 * integer pipeline; the hazard rule is that the two instructions in
 * the shadow of an Algorithm-2 trigger must not touch the 13
 * registers {R0..R8, R16..R19} (enforced by the Machine).
 */

#ifndef JAAVR_AVR_MAC_UNIT_HH
#define JAAVR_AVR_MAC_UNIT_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

namespace jaavr
{

class MacUnit
{
  public:
    /** MACCR control-register bits (I/O-mapped, see Machine). */
    static constexpr uint8_t ctrlSwapMode = 0x01; ///< Algorithm 1
    static constexpr uint8_t ctrlLoadMode = 0x02; ///< Algorithm 2

    /** The accumulator R0..R8 and the first operand R16..R19, as
     *  register masks (bit i = Ri). */
    static constexpr uint32_t accRegs = 0x000001ff;
    static constexpr uint32_t operandRegs = 0x000f0000;

    /**
     * Reset counter and pending state (on MACCR writes). The MAC
     * statistics counter deliberately survives: it is observability
     * state, not architectural state.
     */
    void
    reset()
    {
        counter = 0;
        pending = 0;
    }

    /**
     * One (32 x 4)-bit MAC: regs[0..8] (the 72-bit accumulator)
     * += (regs[16..19] as a little-endian u32) * nibble << 4*counter;
     * the counter then advances (mod 8).
     *
     * @param regs the machine's general-purpose register file
     * @param nibble 4-bit multiplier digit
     */
    void
    mac(std::array<uint8_t, 32> &regs, uint8_t nibble)
    {
        // 36-bit product through the barrel shifter (<= 64 bits).
        accumulate(regs, static_cast<uint64_t>(word(regs)) * (nibble & 0xf)
                             << (4 * counter));
        counter = (counter + 1) & 7;
        macsPerformed++;
    }

    /**
     * Algorithm-1 MAC: one nibble exposed by the SWAP trigger. Same
     * datapath as mac(), but classified for the telemetry counters
     * (Fig. 1 distinguishes the two trigger algorithms).
     */
    void
    macSwap(std::array<uint8_t, 32> &regs, uint8_t nibble)
    {
        alg1Count++;
        mac(regs, nibble);
    }

    /**
     * Algorithm-2 trigger: the byte loaded into R24 feeds both of its
     * nibbles (low first) through the MAC datapath in one cycle.
     * Below counter 7 the two nibble MACs land at the adjacent shifts
     * 4c and 4c + 4, so together they add one (32 x 8)-bit product
     * shifted by 4c (at most 40 + 24 = 64 bits); at counter 7 the
     * high nibble wraps to shift 0 and the MACs stay separate.
     */
    void
    macLoad(std::array<uint8_t, 32> &regs, uint8_t value)
    {
        alg2Count += 2;
        if (counter == 7) [[unlikely]] {
            mac(regs, value & 0x0f);
            mac(regs, value >> 4);
            return;
        }
        accumulate(regs, static_cast<uint64_t>(word(regs)) * value
                             << (4 * counter));
        counter = (counter + 2) & 7;
        macsPerformed += 2;
    }

    /** Barrel-shifter counter (0..7). */
    uint8_t shiftCounter() const { return counter; }

    /** Outstanding Algorithm-2 shadow cycles (0..2). */
    uint8_t pendingShadow() const { return pending; }
    void setPendingShadow(uint8_t p) { pending = p; }

    /** Total MAC operations performed (statistics). */
    uint64_t totalMacs() const { return macsPerformed; }

    /** MACs triggered through the Algorithm-1 (SWAP) path. */
    uint64_t alg1Macs() const { return alg1Count; }

    /** MACs triggered through the Algorithm-2 (load) path. */
    uint64_t alg2Macs() const { return alg2Count; }

  private:
    /** The first operand: R16..R19 as a little-endian u32. */
    static uint32_t
    word(const std::array<uint8_t, 32> &regs)
    {
        return static_cast<uint32_t>(regs[16]) |
               static_cast<uint32_t>(regs[17]) << 8 |
               static_cast<uint32_t>(regs[18]) << 16 |
               static_cast<uint32_t>(regs[19]) << 24;
    }

    /**
     * The 72-bit adder: R0..R7 as one little-endian 64-bit add, its
     * carry into R8 (the accumulator wraps mod 2^72).
     */
    static void
    accumulate(std::array<uint8_t, 32> &regs, uint64_t addend)
    {
        uint64_t lo;
        std::memcpy(&lo, regs.data(), sizeof lo);
        if constexpr (std::endian::native == std::endian::big)
            lo = __builtin_bswap64(lo);
        uint64_t sum = lo + addend;
        regs[8] = static_cast<uint8_t>(regs[8] + (sum < lo));
        if constexpr (std::endian::native == std::endian::big)
            sum = __builtin_bswap64(sum);
        std::memcpy(regs.data(), &sum, sizeof sum);
    }

    uint8_t counter = 0;
    uint8_t pending = 0;
    uint64_t macsPerformed = 0;
    uint64_t alg1Count = 0;
    uint64_t alg2Count = 0;
};

} // namespace jaavr

#endif // JAAVR_AVR_MAC_UNIT_HH
