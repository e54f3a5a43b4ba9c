#include "model/field_costs.hh"

#include <functional>
#include <map>
#include <mutex>
#include <tuple>

#include "avrgen/opf_harness.hh"
#include "field/secp160.hh"
#include "support/random.hh"

namespace jaavr
{

namespace
{

/** (u, k, mode) of an OPF; secp160r1 is keyed (0, 0, mode). */
using Key = std::tuple<uint32_t, unsigned, CpuMode>;

/**
 * The costs for @p key, from @p measure on first use. The cache is
 * the only mutable static in the library (global-state audit,
 * DESIGN.md §14); the mutex makes it safe for the service layer's
 * concurrent worker contexts. std::map never invalidates element
 * references, so the returned reference stays valid after unlock.
 */
const FieldCycleCosts &
memo(const Key &key, const std::function<FieldCycleCosts()> &measure)
{
    static std::mutex cache_mutex;
    static std::map<Key, FieldCycleCosts> cache;
    {
        std::lock_guard<std::mutex> lock(cache_mutex);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }
    FieldCycleCosts c = measure();
    std::lock_guard<std::mutex> lock(cache_mutex);
    return cache.emplace(key, c).first->second;
}

/**
 * Run add/sub/mul of @p lib on (@p a, @p b) and its inverse on five
 * units drawn from @p rng modulo @p p. Inversion is data-dependent
 * (the Kaliski loop), so its cost is the mean of the five runs.
 */
FieldCycleCosts
probe(OpfAvrLibrary lib, Rng &rng, const BigUInt &p,
      const OpfField::Words &a, const OpfField::Words &b)
{
    FieldCycleCosts c;
    c.add = lib.add(a, b).cycles;
    c.sub = lib.sub(a, b).cycles;
    c.mul = lib.mul(a, b).cycles;
    c.sqr = c.mul;
    c.mulSmall = c.mul * 28 / 100;
    const int inv_samples = 5;
    uint64_t inv_total = 0;
    for (int i = 0; i < inv_samples; i++) {
        BigUInt x = BigUInt(1) + BigUInt::random(rng, p - BigUInt(1));
        inv_total += lib.inv(x.toWords(a.size())).cycles;
    }
    c.inv = inv_total / inv_samples;
    return c;
}

} // anonymous namespace

const FieldCycleCosts &
opfFieldCosts(const OpfPrime &prime, CpuMode mode)
{
    return memo({prime.u, prime.k, mode}, [&] {
        OpfField field(prime);
        Rng rng(0xc057);
        auto a = field.fromBig(BigUInt::randomBits(rng, field.bits()));
        auto b = field.fromBig(BigUInt::randomBits(rng, field.bits()));
        return probe(OpfAvrLibrary(prime, mode), rng, prime.p, a, b);
    });
}

const FieldCycleCosts &
secp160r1FieldCosts(CpuMode mode)
{
    return memo({0, 0, mode}, [&] {
        Rng rng(0x5ec0);
        const BigUInt p = Secp160r1Field::primeValue();
        auto a = BigUInt::random(rng, p).toWords(5);
        auto b = BigUInt::random(rng, p).toWords(5);
        return probe(OpfAvrLibrary::secp160r1(mode), rng, p, a, b);
    });
}

} // namespace jaavr
