#include "avr/isa.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "support/logging.hh"

namespace jaavr
{

namespace
{

/**
 * No first word fits two rows: two rows overlap iff their matches
 * agree on every bit both masks fix. The erased-flash guard is the
 * one exception; the index gives it precedence.
 */
static_assert([] {
    for (size_t i = 0; i + 1 < kNumOps; i++)
        for (size_t j = i + 1; j + 1 < kNumOps; j++) {
            uint32_t both = kIsaForms[i].mask & kIsaForms[j].mask & 0xffff0000;
            if ((kIsaForms[i].match & both) == (kIsaForms[j].match & both))
                return false;
        }
    return true;
}(), "two ISA rows overlap");

/** First word -> Op: every row's words, then the guard over them. */
constexpr std::array<uint8_t, 0x10000>
buildIndex()
{
    std::array<uint8_t, 0x10000> index{};
    index.fill(static_cast<uint8_t>(Op::INVALID));
    for (size_t r = 0; r < kNumOps; r++) {
        const uint16_t match = kIsaForms[r].match >> 16;
        const uint16_t free = ~(kIsaForms[r].mask >> 16);
        uint16_t sub = 0;
        do {
            index[match | sub] = static_cast<uint8_t>(r);
            sub = static_cast<uint16_t>((sub - free) & free);
        } while (sub);
    }
    return index;
}

constexpr std::array<uint8_t, 0x10000> kFirstWord = buildIndex();

static_assert(kFirstWord[0xffff] == static_cast<uint8_t>(Op::INVALID));

constexpr std::array<Synonym, kNumOps> kSynonymOf = [] {
    std::array<Synonym, kNumOps> s{};
#define X(syn, mnem, op) s[static_cast<size_t>(Op::op)] = Synonym::syn;
    JAAVR_AVR_SYNONYMS(X)
#undef X
    return s;
}();

constexpr const char *kSynonymName[] = {
    nullptr,
#define X(syn, mnem, op) mnem,
    JAAVR_AVR_SYNONYMS(X)
#undef X
};

#define X(...) +1
constexpr size_t kNumSpellings =
    kNumOps - 1 JAAVR_AVR_SYNONYMS(X) JAAVR_AVR_ALIASES(X);
#undef X

/** Base forms (INVALID aside), synonyms and aliases, by mnemonic. */
constexpr auto kSpellings = [] {
    std::array<IsaSpelling, kNumSpellings> s{};
    size_t n = 0;
    for (size_t i = 0; i + 1 < kNumOps; i++)
        s[n++] = {kIsaForms[i].mnemonic, kIsaForms[i].syntax, Op(i)};
#define X(syn, mnem, op) s[n++] = {mnem, "d", Op::op, 'r', 0};
    JAAVR_AVR_SYNONYMS(X)
#undef X
#define X(mnem, op, syntax, letter, v) s[n++] = {mnem, syntax, Op::op, letter, v};
    JAAVR_AVR_ALIASES(X)
#undef X
    // Stable insertion sort: base forms stay ahead of their aliases.
    for (size_t i = 1; i < n; i++)
        for (size_t j = i; j > 0 && s[j].mnemonic < s[j - 1].mnemonic; j--)
            std::swap(s[j], s[j - 1]);
    return s;
}();

/**
 * The decoder of row @p R. Its masks and shifts are constants, so each
 * row compiles to a few instructions and absent fields to nothing.
 */
template <size_t R>
Inst
decodeForm(uint32_t v)
{
    constexpr const IsaForm &f = kIsaForms[R];
    Inst i;
    i.op = f.op;
    i.words = f.words;
    i.rd = static_cast<uint8_t>(f.regBase[0] +
                                (f.field[slotRd].get(v) << f.regShift[0]));
    i.rr = static_cast<uint8_t>(f.regBase[1] +
                                (f.field[slotRr].get(v) << f.regShift[1]));
    i.imm = static_cast<uint8_t>(f.field[slotImm].get(v));
    i.bit = static_cast<uint8_t>(f.field[slotBit].get(v));
    i.disp = static_cast<int16_t>((f.field[slotDisp].get(v) ^ f.dispSign) -
                                  f.dispSign);
    i.k = f.field[slotK].get(v);
    return i;
}

constexpr auto kDecoders = []<size_t... R>(std::index_sequence<R...>) {
    return std::array{&decodeForm<R>...};
}(std::make_index_sequence<kNumOps>());

} // anonymous namespace

Inst
decode(uint16_t w0, uint16_t w1)
{
    return kDecoders[kFirstWord[w0]](uint32_t(w0) << 16 | w1);
}

uint32_t
encode(const Inst &i)
{
    const IsaForm &f = isaForm(i.op);
    return f.match |
           f.field[slotRd].put(uint32_t(i.rd - f.regBase[0]) >> f.regShift[0]) |
           f.field[slotRr].put(uint32_t(i.rr - f.regBase[1]) >> f.regShift[1]) |
           f.field[slotImm].put(i.imm) | f.field[slotBit].put(i.bit) |
           f.field[slotDisp].put(static_cast<uint16_t>(i.disp)) |
           f.field[slotK].put(i.k);
}

bool
isTwoWord(uint16_t w0)
{
    return kIsaForms[kFirstWord[w0]].words == 2;
}

Synonym
synonymOf(const Inst &inst)
{
    return inst.rd == inst.rr ? kSynonymOf[static_cast<size_t>(inst.op)]
                              : Synonym::None;
}

const char *
opName(Op op)
{
    return isaForm(op).mnemonic;
}

std::string
disassemble(const Inst &i)
{
    const IsaForm &f = isaForm(i.op);
    const Synonym syn = synonymOf(i);
    std::string out = syn == Synonym::None
                          ? f.mnemonic
                          : kSynonymName[static_cast<size_t>(syn)];
    std::string_view syntax = syn == Synonym::None ? f.syntax : "d";
    if (!syntax.empty())
        out += ' ';
    for (char c : syntax) {
        switch (c) {
          case 'd': case 'D': out += csprintf("r%d", i.rd); break;
          case 'r': case 'R': out += csprintf("r%d", i.rr); break;
          case 'K':
            out += csprintf(f.field[slotImm].width == 8 ? "0x%02x" : "%d",
                            i.imm);
            break;
          case 'A': out += csprintf("0x%02x", i.imm); break;
          case 'b': out += csprintf("%d", i.bit); break;
          case 'q': out += csprintf("%d", i.disp); break;
          case 'o': out += csprintf(".%+d", i.disp * 2); break;
          case 'k':
            out += csprintf(f.field[slotK].width == 16 ? "0x%04x" : "0x%x",
                            i.k);
            break;
          case ',': out += ", "; break;
          default: out += c; break;
        }
    }
    return out;
}

std::span<const IsaSpelling>
isaSpellings(std::string_view mnemonic)
{
    auto [lo, hi] = std::equal_range(
        kSpellings.begin(), kSpellings.end(), IsaSpelling{mnemonic, {}, Op::INVALID},
        [](const IsaSpelling &a, const IsaSpelling &b) {
            return a.mnemonic < b.mnemonic;
        });
    return {lo, hi};
}

} // namespace jaavr
