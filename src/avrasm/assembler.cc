#include "avrasm/assembler.hh"

#include <algorithm>
#include <cctype>
#include <optional>
#include <span>
#include <sstream>

#include "avr/isa.hh"
#include "support/logging.hh"

namespace jaavr
{

uint32_t
Program::label(const std::string &name) const
{
    auto it = labels.find(name);
    if (it == labels.end())
        fatal("Program::label: undefined label '%s'", name.c_str());
    return it->second;
}

namespace
{

/** Parsing context for diagnostics. */
struct Ctx
{
    const std::string *unit;
    int line;
};

[[noreturn]] void
err(const Ctx &c, const std::string &msg)
{
    fatal("%s:%d: %s", c.unit->c_str(), c.line, msg.c_str());
}

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    return s;
}

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Minimal expression evaluator: + - * ( ) lo8() hi8() numbers syms. */
class ExprEval
{
  public:
    ExprEval(const std::string &text, const std::map<std::string, int64_t> &syms,
             const Ctx &ctx)
        : s(text), symbols(syms), c(ctx)
    {}

    int64_t
    eval()
    {
        int64_t v = sum();
        skipWs();
        if (pos != s.size())
            err(c, "trailing characters in expression '" + s + "'");
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos])))
            pos++;
    }

    int64_t
    sum()
    {
        int64_t v = product();
        for (;;) {
            skipWs();
            if (pos < s.size() && (s[pos] == '+' || s[pos] == '-')) {
                char op = s[pos++];
                int64_t r = product();
                v = op == '+' ? v + r : v - r;
            } else {
                return v;
            }
        }
    }

    int64_t
    product()
    {
        int64_t v = unary();
        for (;;) {
            skipWs();
            if (pos < s.size() && s[pos] == '*') {
                pos++;
                v *= unary();
            } else {
                return v;
            }
        }
    }

    int64_t
    unary()
    {
        skipWs();
        if (pos < s.size() && s[pos] == '-') {
            pos++;
            return -unary();
        }
        return atom();
    }

    int64_t
    atom()
    {
        skipWs();
        if (pos >= s.size())
            err(c, "unexpected end of expression '" + s + "'");
        if (s[pos] == '(') {
            pos++;
            int64_t v = sum();
            expect(')');
            return v;
        }
        if (std::isdigit(static_cast<unsigned char>(s[pos])))
            return number();
        // Identifier: symbol or lo8/hi8 function.
        size_t start = pos;
        while (pos < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '_'))
            pos++;
        std::string name = s.substr(start, pos - start);
        std::string lname = lower(name);
        skipWs();
        if ((lname == "lo8" || lname == "hi8") && pos < s.size() &&
            s[pos] == '(') {
            pos++;
            int64_t v = sum();
            expect(')');
            return lname == "lo8" ? (v & 0xff) : ((v >> 8) & 0xff);
        }
        auto it = symbols.find(name);
        if (it == symbols.end())
            err(c, "undefined symbol '" + name + "'");
        return it->second;
    }

    int64_t
    number()
    {
        int base = 10;
        if (s[pos] == '0' && pos + 1 < s.size() &&
            (s[pos + 1] == 'x' || s[pos + 1] == 'X')) {
            base = 16;
            pos += 2;
        } else if (s[pos] == '0' && pos + 1 < s.size() &&
                   (s[pos + 1] == 'b' || s[pos + 1] == 'B')) {
            base = 2;
            pos += 2;
        }
        size_t start = pos;
        while (pos < s.size() &&
               std::isalnum(static_cast<unsigned char>(s[pos])))
            pos++;
        std::string digits = s.substr(start, pos - start);
        if (digits.empty())
            err(c, "malformed number in '" + s + "'");
        int64_t v = 0;
        for (char ch : digits) {
            int d = std::isdigit(static_cast<unsigned char>(ch))
                        ? ch - '0'
                        : std::tolower(static_cast<unsigned char>(ch)) - 'a' +
                              10;
            if (d < 0 || d >= base)
                err(c, "bad digit in number '" + digits + "'");
            v = v * base + d;
        }
        return v;
    }

    void
    expect(char ch)
    {
        skipWs();
        if (pos >= s.size() || s[pos] != ch)
            err(c, std::string("expected '") + ch + "' in '" + s + "'");
        pos++;
    }

    const std::string &s;
    const std::map<std::string, int64_t> &symbols;
    const Ctx &c;
    size_t pos = 0;
};

/** One parsed source statement. */
struct Stmt
{
    int line;
    std::string mnemonic;               // lower-case
    std::vector<std::string> operands;  // raw text, trimmed
    std::span<const IsaSpelling> spellings; // empty: directive or unknown
    uint32_t addr = 0;                  // word address (pass 1)
    unsigned words = 1;
};

/** Split on the first comma not inside parentheses. */
std::vector<std::string>
splitOperands(const std::string &text)
{
    std::vector<std::string> out;
    int depth = 0;
    std::string cur;
    for (char ch : text) {
        if (ch == '(')
            depth++;
        else if (ch == ')')
            depth--;
        if (ch == ',' && depth == 0) {
            out.push_back(trim(cur));
            cur.clear();
        } else {
            cur.push_back(ch);
        }
    }
    std::string last = trim(cur);
    if (!last.empty() || !out.empty())
        out.push_back(last);
    return out;
}

/** Parse "rN" into a register number. */
std::optional<unsigned>
parseReg(const std::string &t)
{
    std::string s = lower(trim(t));
    if (s.size() < 2 || s[0] != 'r')
        return std::nullopt;
    unsigned v = 0;
    for (size_t i = 1; i < s.size(); i++) {
        if (!std::isdigit(static_cast<unsigned char>(s[i])))
            return std::nullopt;
        v = v * 10 + (s[i] - '0');
    }
    if (v > 31)
        return std::nullopt;
    return v;
}

/** The operand tokens of a row's syntax ("d,Y+q" -> "d", "Y+q"; at
 *  most two, which IsaForm checks). */
struct SyntaxTokens
{
    std::string_view tok[2];
    size_t n = 0;

    explicit SyntaxTokens(std::string_view syntax)
    {
        size_t comma = syntax.find(',');
        if (!syntax.empty())
            tok[n++] = syntax.substr(0, comma);
        if (comma != std::string_view::npos)
            tok[n++] = syntax.substr(comma + 1);
    }

    size_t size() const { return n; }
    std::string_view operator[](size_t i) const { return tok[i]; }
};

/** Position of @p tok's field letter; npos for literal pointer text. */
size_t
fieldPos(std::string_view tok)
{
    return tok.find_first_not_of("XYZ+-");
}

bool
ieq(std::string_view a, std::string_view b)
{
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
               return std::tolower(static_cast<unsigned char>(x)) ==
                      std::tolower(static_cast<unsigned char>(y));
           });
}

/** Does operand text @p t fit token @p tok's literal pointer text? */
bool
fits(std::string_view tok, std::string_view t)
{
    size_t f = fieldPos(tok);
    if (f == std::string_view::npos)
        return ieq(tok, t);
    return t.size() >= f && ieq(tok.substr(0, f), t.substr(0, f));
}

/** Register class of a register field, for diagnostics. */
std::string
regClass(unsigned base, unsigned shift, unsigned width)
{
    unsigned last = base + (((1u << width) - 1) << shift);
    if (!shift)
        return csprintf("r%u..r%u", base, last);
    if (base == 0)
        return "even registers";
    std::string s;
    for (unsigned r = base; r <= last; r += 2)
        s += csprintf("%sr%u", s.empty() ? "" : "/", r);
    return s;
}

/** The spelling of @p st its operands fit. */
const IsaSpelling &
pickSpelling(const Stmt &st, const Ctx &ctx)
{
    const auto &ops = st.operands;
    const IsaSpelling *counted = nullptr;
    if (ops.empty() || !ops.back().empty()) {
        for (const IsaSpelling &s : st.spellings) {
            SyntaxTokens toks(s.syntax);
            if (toks.size() != ops.size())
                continue;
            counted = counted ? counted : &s;
            size_t i = 0;
            while (i < toks.size() && fits(toks[i], ops[i]))
                i++;
            if (i == toks.size())
                return s;
        }
    }
    if (!counted)
        err(ctx, "wrong operand count for '" + st.mnemonic + "'");
    // Right count, but a pointer operand fits none of the spellings.
    SyntaxTokens toks(counted->syntax);
    size_t p = 0;
    while (p + 1 < toks.size() && fieldPos(toks[p]) == 0)
        p++;
    std::string alts;
    for (const IsaSpelling &s : st.spellings) {
        SyntaxTokens t(s.syntax);
        if (t.size() == ops.size())
            alts += (alts.empty() ? "" : " or ") + std::string(t[p]);
    }
    err(ctx, "bad pointer operand '" + ops[p] + "': " + st.mnemonic +
                 " needs " + alts);
}

/** Parse @p st's operands into the instruction its spelling names. */
Inst
parseOperands(const Stmt &st, const IsaSpelling &sp,
              const std::map<std::string, int64_t> &symbols, const Ctx &ctx)
{
    const IsaForm &f = isaForm(sp.op);
    Inst inst;
    inst.op = sp.op;
    SyntaxTokens toks(sp.syntax);
    for (size_t i = 0; i < toks.size(); i++) {
        size_t fp = fieldPos(toks[i]);
        if (fp == std::string_view::npos)
            continue;
        const char letter = toks[i][fp];
        const IsaSlot slot = isaSlot(letter);
        const unsigned width = f.field[slot].width;
        const std::string text = st.operands[i].substr(fp);
        auto expr = [&] { return ExprEval(text, symbols, ctx).eval(); };
        auto ranged = [&](const char *what, int64_t lo, int64_t hi) {
            int64_t v = expr();
            if (v < lo || v > hi)
                err(ctx, csprintf("%s out of range (%lld..%lld)", what,
                                  static_cast<long long>(lo),
                                  static_cast<long long>(hi)));
            return v;
        };
        const int64_t top = (int64_t(1) << width) - 1;
        switch (letter) {
          case 'd': case 'D': case 'r': case 'R': {
            auto r = parseReg(text);
            if (!r)
                err(ctx, "expected register, got '" + text + "'");
            const unsigned base = f.regBase[slot], shift = f.regShift[slot];
            if (*r < base || (*r - base) % (1u << shift) ||
                ((*r - base) >> shift) > unsigned(top))
                err(ctx, st.mnemonic + " requires " +
                             regClass(base, shift, width) + ", got '" +
                             text + "'");
            (slot == slotRd ? inst.rd : inst.rr) = static_cast<uint8_t>(*r);
            break;
          }
          // A byte immediate may also be written as a negative number.
          case 'K':
            inst.imm = static_cast<uint8_t>(
                ranged("immediate", width == 8 ? -128 : 0, top));
            break;
          case 'A':
            inst.imm = static_cast<uint8_t>(ranged("I/O address", 0, top));
            break;
          case 'b':
            inst.bit = static_cast<uint8_t>(ranged("bit", 0, top));
            break;
          case 'q':
            inst.disp = static_cast<int16_t>(ranged("displacement", 0, top));
            break;
          case 'k':
            inst.k = static_cast<uint32_t>(ranged("address", 0, top));
            break;
          case 'o': {
            // A label, or avr-objdump's ".+N"/".-N": N bytes from the
            // next instruction.
            int64_t off;
            if (!text.empty() && text[0] == '.') {
                std::string n = trim(text.substr(1));
                int64_t bytes = ExprEval(n[0] == '+' ? n.substr(1) : n,
                                         symbols, ctx).eval();
                if (bytes % 2)
                    err(ctx, "branch offset must be even");
                off = bytes / 2;
            } else {
                off = expr() - (static_cast<int64_t>(st.addr) + 1);
            }
            int64_t lim = int64_t(1) << (width - 1);
            if (off < -lim || off >= lim)
                err(ctx, "branch target out of range");
            inst.disp = static_cast<int16_t>(off);
            break;
          }
        }
    }
    switch (sp.fixed) {
      case 'r': inst.rr = inst.rd; break;
      case 'K': inst.imm = sp.value; break;
      case 'b': inst.bit = sp.value; break;
      case 'q': inst.disp = sp.value; break;
    }
    return inst;
}

} // anonymous namespace

Program
assemble(const std::string &source, const std::string &unit)
{
    // --- Tokenize into statements, collecting labels and .equ. -----
    std::vector<Stmt> stmts;
    std::map<std::string, int64_t> symbols;
    std::map<std::string, uint32_t> labels;

    Ctx ctx{&unit, 0};

    std::istringstream is(source);
    std::string raw;
    int lineno = 0;
    uint32_t addr = 0;

    // Pass 1: sizes and label addresses.
    std::vector<std::string> lines;
    while (std::getline(is, raw))
        lines.push_back(raw);

    auto strip = [](std::string l) {
        size_t sc = l.find(';');
        if (sc != std::string::npos)
            l = l.substr(0, sc);
        size_t ds = l.find("//");
        if (ds != std::string::npos)
            l = l.substr(0, ds);
        return trim(l);
    };

    for (const std::string &raw_line : lines) {
        lineno++;
        ctx.line = lineno;
        std::string l = strip(raw_line);
        // Labels (possibly several per line).
        for (;;) {
            size_t colon = l.find(':');
            if (colon == std::string::npos)
                break;
            std::string name = trim(l.substr(0, colon));
            if (name.empty() ||
                !std::all_of(name.begin(), name.end(), [](unsigned char ch) {
                    return std::isalnum(ch) || ch == '_';
                }))
                break;  // not a label (e.g. inside an operand)
            if (labels.count(name))
                err(ctx, "duplicate label '" + name + "'");
            labels[name] = addr;
            l = trim(l.substr(colon + 1));
        }
        if (l.empty())
            continue;

        // Split mnemonic/operands.
        size_t sp = l.find_first_of(" \t");
        std::string mnem = lower(sp == std::string::npos ? l : l.substr(0, sp));
        std::string rest = sp == std::string::npos ? "" : trim(l.substr(sp));

        if (mnem == ".equ") {
            size_t eq = rest.find('=');
            if (eq == std::string::npos)
                err(ctx, ".equ requires NAME = expr");
            std::string name = trim(rest.substr(0, eq));
            std::string expr = trim(rest.substr(eq + 1));
            symbols[name] = ExprEval(expr, symbols, ctx).eval();
            continue;
        }
        if (mnem == ".org") {
            int64_t v = ExprEval(rest, symbols, ctx).eval();
            if (v < 0 || v > 0xffff)
                err(ctx, ".org out of range");
            addr = static_cast<uint32_t>(v);
            continue;
        }

        Stmt st;
        st.line = lineno;
        st.mnemonic = mnem;
        st.operands = splitOperands(rest);
        st.spellings = isaSpellings(mnem);
        st.addr = addr;
        if (mnem == ".dw")
            st.words = st.operands.size();
        else if (!st.spellings.empty())
            st.words = isaForm(st.spellings.front().op).words;
        addr += st.words;
        stmts.push_back(std::move(st));
    }

    // Labels become symbols (word addresses).
    for (auto &[name, a] : labels)
        symbols[name] = a;

    // --- Pass 2: encode. --------------------------------------------
    uint32_t max_addr = 0;
    for (const Stmt &st : stmts)
        max_addr = std::max(max_addr, st.addr + st.words);
    std::vector<uint16_t> image(max_addr, 0x0000);

    for (const Stmt &st : stmts) {
        ctx.line = st.line;
        if (st.mnemonic == ".dw") {
            for (size_t i = 0; i < st.operands.size(); i++) {
                int64_t v = ExprEval(st.operands[i], symbols, ctx).eval();
                if (v < 0 || v > 0xffff)
                    err(ctx, ".dw value out of range");
                image[st.addr + i] = static_cast<uint16_t>(v);
            }
            continue;
        }
        if (st.spellings.empty())
            err(ctx, "unknown mnemonic '" + st.mnemonic + "'");
        const uint32_t v =
            encode(parseOperands(st, pickSpelling(st, ctx), symbols, ctx));
        image[st.addr] = static_cast<uint16_t>(v >> 16);
        if (st.words == 2)
            image[st.addr + 1] = static_cast<uint16_t>(v);
    }

    Program prog;
    prog.words = std::move(image);
    prog.labels = std::move(labels);
    return prog;
}

} // namespace jaavr
