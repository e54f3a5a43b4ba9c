#include "field/batch_inverse.hh"

namespace jaavr
{

size_t
invBatch(const PrimeField &f, std::vector<Fe> &elems)
{
    // Prefix products over the nonzero elements only: prefix[i] holds
    // the product of every nonzero element up to and including i, so
    // a zero at position i reuses prefix[i-1] and drops out of the
    // unwind entirely. The product starts at the first nonzero element
    // itself, so m nonzero elements cost m - 1 multiplications here.
    std::vector<Fe> prefix;
    prefix.reserve(elems.size());
    Fe acc;
    size_t nonzero = 0;
    for (const Fe &e : elems) {
        if (!e.isZero()) {
            acc = nonzero ? f.mul(acc, e) : e;
            nonzero++;
        }
        prefix.push_back(acc);
    }
    if (nonzero == 0)
        return 0;

    // One inversion of the full product, then unwind: before step i,
    // inv_acc = (product of nonzero elems[0..i])^-1, so multiplying
    // by the previous prefix isolates elems[i]^-1. At the first
    // nonzero element inv_acc is that element's inverse.
    Fe inv_acc = f.inv(acc);
    for (size_t i = elems.size(), left = nonzero; i-- > 0;) {
        if (elems[i].isZero())
            continue;
        if (--left == 0) {
            elems[i] = inv_acc;
            break;
        }
        Fe inv_i = f.mul(inv_acc, prefix[i - 1]);
        inv_acc = f.mul(inv_acc, elems[i]);
        elems[i] = inv_i;
    }
    return nonzero;
}

size_t
invBatch(const PrimeField &f, std::vector<BigUInt> &elems)
{
    std::vector<Fe> fe;
    fe.reserve(elems.size());
    for (const BigUInt &e : elems)
        fe.push_back(f.fromBig(e));
    size_t n = invBatch(f, fe);
    for (size_t i = 0; i < elems.size(); i++)
        elems[i] = fe[i].toBig();
    return n;
}

} // namespace jaavr
