#include "avr/leakage.hh"

#include <bit>
#include <cstdio>

#include "support/logging.hh"

namespace jaavr
{

namespace
{

unsigned
hw(uint32_t v)
{
    return static_cast<unsigned>(std::popcount(v));
}

/** SplitMix64: the same deterministic mixer Rng seeds from. */
uint64_t
mix64(uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Post-retirement register pair @p lo:lo+1 as a 16-bit pointer. */
uint16_t
pair16(const Machine &m, unsigned lo)
{
    return static_cast<uint16_t>(m.reg(lo) |
                                 (static_cast<uint16_t>(m.reg(lo + 1)) << 8));
}

/**
 * Reconstruct the data-space address touched by a retired load/store
 * from the post-retirement machine state and the form's access facts
 * (its ISA row). Returns false for instructions without a data-space
 * access.
 */
bool
busAddress(const Machine &m, const Inst &inst, uint16_t &addr)
{
    const IsaMem &a = isaForm(inst.op).mem;
    if (a.kind == IsaMem::None)
        return false;
    uint16_t ptr = a.ptr == IsaMem::ptrAbs ? static_cast<uint16_t>(inst.k)
                 : a.ptr == IsaMem::ptrSP  ? m.sp()
                                           : pair16(m, a.ptr);
    // A post-update already moved the pointer past the access (PUSH
    // stored at SP+1); a pre-update left it on the accessed byte.
    addr = static_cast<uint16_t>(ptr + inst.disp - (a.pre ? 0 : a.step));
    return true;
}

} // anonymous namespace

std::string
LeakModel::describe() const
{
    return csprintf("hd*%.3g+bus*%.3g+mac*%.3g sigma=%.3g", wRegHd,
                    wBusHw, wMacHw, noiseSigma);
}

void
LeakTracer::begin(const Machine &m, uint64_t noise_seed)
{
    armed = true;
    now = 0;
    seed = noise_seed;
    noiseCounter = 0;
    lastMacs = m.mac().totalMacs();
    for (unsigned i = 0; i < 32; i++)
        prevRegs[i] = m.reg(i);
    trace.clear();
    cycleStamps.clear();
    marks.clear();
}

double
LeakTracer::noise()
{
    if (model_.noiseSigma == 0)
        return 0;
    // Irwin-Hall pseudo-Gaussian: the sum of four deterministic
    // uniforms from the seeded mixer, centered and rescaled to unit
    // sigma. Bit-exact across platforms (pure integer + IEEE double).
    uint64_t r0 = mix64(seed ^ (noiseCounter * 2 + 1));
    uint64_t r1 = mix64(seed ^ (noiseCounter * 2 + 2));
    noiseCounter++;
    double sum = double(uint32_t(r0)) + double(uint32_t(r0 >> 32)) +
                 double(uint32_t(r1)) + double(uint32_t(r1 >> 32));
    double centered = sum / 4294967296.0 - 2.0; // sigma = sqrt(1/3)
    return model_.noiseSigma * centered * 1.7320508075688772;
}

void
LeakTracer::onRetire(const Machine &m, uint32_t, const Inst &inst,
                     unsigned cycles)
{
    now += cycles;

    // Register-file switching: Hamming distance of all 32 registers
    // against the previous retirement (covers ALU results, loads and
    // the single-cycle R0..R8 MAC accumulator update of Fig. 1).
    unsigned reg_hd = 0;
    for (unsigned i = 0; i < 32; i++) {
        uint8_t cur = m.reg(i);
        reg_hd += hw(static_cast<uint8_t>(cur ^ prevRegs[i]));
        prevRegs[i] = cur;
    }

    // Data-space bus: value plus address Hamming weight. The value of
    // a store is the (unchanged) source register; a load's value now
    // sits in the destination register.
    unsigned bus_hw = 0;
    uint16_t addr = 0;
    if (busAddress(m, inst, addr))
        bus_hw = hw(m.reg(inst.rd)) + hw(addr);

    // MAC accumulator bus: priced when this retirement advanced the
    // MAC unit (SWAP trigger or R24-load trigger).
    unsigned mac_hw = 0;
    uint64_t macs = m.mac().totalMacs();
    if (macs != lastMacs) {
        for (unsigned i = 0; i <= 8; i++)
            mac_hw += hw(m.reg(i));
        lastMacs = macs;
    }

    double p = model_.wRegHd * reg_hd + model_.wBusHw * bus_hw +
               model_.wMacHw * mac_hw + noise();
    trace.push_back(static_cast<float>(p));
    cycleStamps.push_back(static_cast<uint32_t>(now));
}

void
LeakTracer::onTrap(const Machine &m, const Trap &trap)
{
    (void)m;
    mark(std::string("trap:") + trapKindName(trap.kind));
}

void
LeakTracer::mark(const std::string &label)
{
    marks.emplace_back(label, trace.size());
}

bool
LeakTracer::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("LeakTracer: cannot write %s", path.c_str());
        return false;
    }
    std::fprintf(f, "sample,cycle,power\n");
    for (size_t i = 0; i < trace.size(); i++)
        std::fprintf(f, "%zu,%u,%.6g\n", i, cycleStamps[i],
                     double(trace[i]));
    std::fclose(f);
    return true;
}

bool
LeakTracer::writeNpy(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        warn("LeakTracer: cannot write %s", path.c_str());
        return false;
    }
    std::string dict = csprintf(
        "{'descr': '<f4', 'fortran_order': False, 'shape': (%zu,), }",
        trace.size());
    // Magic (8) + header length (2) + dict padded to a 64-byte
    // multiple, terminated by newline (NPY format 1.0).
    size_t header = 10 + dict.size() + 1;
    size_t pad = (64 - header % 64) % 64;
    dict += std::string(pad, ' ');
    dict += '\n';
    uint16_t hlen = static_cast<uint16_t>(dict.size());
    std::fwrite("\x93NUMPY\x01\x00", 1, 8, f);
    uint8_t len_le[2] = {static_cast<uint8_t>(hlen),
                         static_cast<uint8_t>(hlen >> 8)};
    std::fwrite(len_le, 1, 2, f);
    std::fwrite(dict.data(), 1, dict.size(), f);
    for (float v : trace) {
        uint32_t bits = std::bit_cast<uint32_t>(v);
        uint8_t le[4] = {static_cast<uint8_t>(bits),
                         static_cast<uint8_t>(bits >> 8),
                         static_cast<uint8_t>(bits >> 16),
                         static_cast<uint8_t>(bits >> 24)};
        std::fwrite(le, 1, 4, f);
    }
    std::fclose(f);
    return true;
}

bool
LeakTracer::writeMeta(const std::string &path, const JsonLine &stamp) const
{
    JsonLine head = stamp;
    head.str("kind", "trace")
        .num("samples", static_cast<uint64_t>(trace.size()))
        .num("cycles", now)
        .num("noise_seed", seed)
        .str("model", model_.describe())
        .num("w_reg_hd", model_.wRegHd)
        .num("w_bus_hw", model_.wBusHw)
        .num("w_mac_hw", model_.wMacHw)
        .num("noise_sigma", model_.noiseSigma);
    if (!appendJsonLine(path, head))
        return false;
    for (const auto &[label, sample] : marks) {
        JsonLine m = stamp;
        m.str("kind", "marker")
            .str("label", label)
            .num("sample", static_cast<uint64_t>(sample));
        if (!appendJsonLine(path, m))
            return false;
    }
    return true;
}

} // namespace jaavr
