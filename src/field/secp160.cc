#include "field/secp160.hh"

namespace jaavr
{

BigUInt
Secp160r1Field::primeValue()
{
    return BigUInt::powerOfTwo(160) - BigUInt::powerOfTwo(31) - BigUInt(1);
}

Secp160r1Field::Secp160r1Field() : PrimeField(primeValue())
{
}

BigUInt
Secp160k1Field::primeValue()
{
    return BigUInt::powerOfTwo(160) - BigUInt::powerOfTwo(32) -
           BigUInt(21389);
}

Secp160k1Field::Secp160k1Field() : PrimeField(primeValue())
{
}

} // namespace jaavr
