#include "avr/profiler.hh"

#include <algorithm>

#include "support/json.hh"
#include "support/logging.hh"

namespace jaavr
{

TraceSink::TraceSink(std::FILE *out, std::string line_prefix)
    : out(out), prefix(std::move(line_prefix))
{
}

void
TraceSink::onRetire(const Machine &m, uint32_t pc, const Inst &inst,
                    unsigned cycles)
{
    std::fprintf(out, "%s%6llu  %04x: %s\n", prefix.c_str(),
                 static_cast<unsigned long long>(m.stats().cycles - cycles),
                 pc, disassemble(inst).c_str());
}

CallGraphProfiler::CallGraphProfiler(Machine &m, SymbolTable symbols,
                                     bool histograms, bool record_trace)
    : machine(&m),
      symbols(std::move(symbols)),
      histograms(histograms),
      recordTrace(record_trace),
      topNode(&nodeMap[kTopAddr])
{
    machine->attach(this);
}

CallGraphProfiler::~CallGraphProfiler()
{
    machine->detach(this);
}

void
CallGraphProfiler::reset()
{
    nodeMap.clear();
    frames.clear();
    events.clear();
    topNode = &nodeMap[kTopAddr];
    spurious = 0;
    spSeen = false;
    spMin = spMax = 0;
}

void
CallGraphProfiler::sampleSp()
{
    uint16_t sp = machine->sp();
    if (!spSeen) {
        spMin = spMax = sp;
        spSeen = true;
        return;
    }
    spMin = std::min(spMin, sp);
    spMax = std::max(spMax, sp);
}

void
CallGraphProfiler::onCall(uint32_t, uint32_t target,
                          uint64_t cycles_after)
{
    sampleSp();
    frames.push_back({target, cycles_after, 0, &nodeMap[target]});
    if (recordTrace)
        events.push_back({true, target, cycles_after});
}

void
CallGraphProfiler::onRet(uint32_t, uint32_t, uint64_t cycles_after)
{
    sampleSp();
    if (frames.empty()) {
        spurious++;
        return;
    }
    Frame f = frames.back();
    frames.pop_back();
    uint64_t dur = cycles_after - f.entryCycles;
    f.node->calls++;
    f.node->inclusiveCycles += dur;
    f.node->exclusiveCycles += dur - f.childCycles;
    if (!frames.empty())
        frames.back().childCycles += dur;
    if (recordTrace)
        events.push_back({false, f.addr, cycles_after});
}

void
CallGraphProfiler::onRetire(const Machine &, uint32_t, const Inst &inst,
                            unsigned inst_cycles)
{
    Node *n = frames.empty() ? topNode : frames.back().node;
    n->instructions++;
    n->opCount[static_cast<size_t>(inst.op)]++;
    n->opCycles[static_cast<size_t>(inst.op)] += inst_cycles;
    if (isLoadOp(inst.op))
        n->loads++;
    else if (isStoreOp(inst.op))
        n->stores++;
    sampleSp();
}

const CallGraphProfiler::Node *
CallGraphProfiler::node(uint32_t addr) const
{
    auto it = nodeMap.find(addr);
    return it == nodeMap.end() ? nullptr : &it->second;
}

const CallGraphProfiler::Node *
CallGraphProfiler::nodeByName(const std::string &name) const
{
    for (const auto &[addr, sym] : symbols.entries())
        if (sym == name)
            return node(addr);
    return nullptr;
}

std::string
CallGraphProfiler::name(uint32_t addr) const
{
    if (addr == kTopAddr)
        return "<top>";
    return symbols.resolve(addr);
}

std::string
CallGraphProfiler::textReport(size_t max_rows) const
{
    std::vector<std::pair<uint32_t, const Node *>> rows;
    for (const auto &[addr, n] : nodeMap)
        if (n.calls || n.instructions)
            rows.push_back({addr, &n});
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second->inclusiveCycles > b.second->inclusiveCycles;
    });

    std::string out = csprintf(
        "  %-28s %8s %14s %14s %12s %8s %8s %6s\n", "routine", "calls",
        "incl cyc", "excl cyc", "instr", "loads", "stores", "nops");
    size_t shown = 0;
    uint64_t rest_incl = 0, rest_rows = 0;
    for (const auto &[addr, n] : rows) {
        if (shown < max_rows) {
            out += csprintf(
                "  %-28s %8llu %14llu %14llu %12llu %8llu %8llu %6llu\n",
                name(addr).c_str(),
                static_cast<unsigned long long>(n->calls),
                static_cast<unsigned long long>(n->inclusiveCycles),
                static_cast<unsigned long long>(n->exclusiveCycles),
                static_cast<unsigned long long>(n->instructions),
                static_cast<unsigned long long>(n->loads),
                static_cast<unsigned long long>(n->stores),
                static_cast<unsigned long long>(n->count(Op::NOP)));
            shown++;
        } else {
            rest_incl += n->inclusiveCycles;
            rest_rows++;
        }
    }
    if (rest_rows)
        out += csprintf("  ... %llu more routines, %llu inclusive "
                        "cycles\n",
                        static_cast<unsigned long long>(rest_rows),
                        static_cast<unsigned long long>(rest_incl));
    return out;
}

bool
CallGraphProfiler::writeJsonLines(const std::string &path,
                                  const std::string &bench,
                                  const std::string &workload) const
{
    bool ok = true;
    for (const auto &[addr, n] : nodeMap) {
        if (!n.calls && !n.instructions)
            continue;
        JsonLine line;
        line.str("bench", bench)
            .str("workload", workload)
            .str("symbol", name(addr))
            .num("calls", n.calls)
            .num("inclusive_cycles", n.inclusiveCycles)
            .num("exclusive_cycles", n.exclusiveCycles)
            .num("instructions", n.instructions)
            .num("loads", n.loads)
            .num("stores", n.stores)
            .num("movw", n.count(Op::MOVW))
            .num("swap", n.count(Op::SWAP))
            .num("nop", n.count(Op::NOP))
            .num("push", n.count(Op::PUSH))
            .num("pop", n.count(Op::POP));
        ok = appendJsonLine(path, line) && ok;
    }
    return ok;
}

bool
CallGraphProfiler::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write Chrome trace to %s", path.c_str());
        return false;
    }
    std::fprintf(f, "{\"traceEvents\":[");
    bool first = true;
    size_t open_depth = 0;
    uint64_t last_ts = 0;
    auto emit = [&](const TraceEvent &e) {
        std::fprintf(
            f, "%s\n{\"name\":\"%s\",\"cat\":\"call\",\"ph\":\"%c\","
               "\"ts\":%llu,\"pid\":0,\"tid\":0}",
            first ? "" : ",", jsonEscape(name(e.addr)).c_str(),
            e.begin ? 'B' : 'E',
            static_cast<unsigned long long>(e.ts));
        first = false;
        last_ts = e.ts;
    };
    for (const TraceEvent &e : events) {
        emit(e);
        open_depth += e.begin ? 1 : -1;
    }
    // Close frames the program never returned from, so B/E pairing
    // (and the viewer's nesting) stays valid.
    std::vector<TraceEvent> closers;
    for (size_t i = frames.size(); i-- > 0 && open_depth > 0;
         open_depth--)
        closers.push_back({false, frames[i].addr, last_ts});
    for (const TraceEvent &e : closers)
        emit(e);
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ns\"}\n");
    std::fclose(f);
    return true;
}

} // namespace jaavr
