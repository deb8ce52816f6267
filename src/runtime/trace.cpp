#include "src/runtime/trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "src/runtime/batch_engine.h"
#include "src/support/strings.h"

namespace ecl::rt {

TraceRecorder::TraceRecorder(const ModuleSema& sema,
                             std::vector<std::string> signals)
    : sema_(sema)
{
    auto wanted = [&](const std::string& name) {
        return signals.empty() ||
               std::find(signals.begin(), signals.end(), name) !=
                   signals.end();
    };
    for (const SignalInfo& s : sema.signals) {
        if (!wanted(s.name)) continue;
        Track t;
        t.name = s.name;
        t.signalIndex = s.index;
        t.valued = !s.pure && s.valueType->isScalar();
        tracks_.push_back(std::move(t));
    }
}

void TraceRecorder::sample(const ReactiveEngine& engine)
{
    for (Track& t : tracks_) {
        // outputPresent works for any signal (observability API).
        t.present.push_back(engine.outputPresent(t.signalIndex));
        if (t.valued)
            t.values.push_back(engine.outputValue(t.signalIndex).toInt());
    }
    ++instants_;
}

void TraceRecorder::sampleRaw(const std::vector<bool>& present,
                              const std::vector<std::int64_t>& values)
{
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
        Track& t = tracks_[i];
        t.present.push_back(i < present.size() && present[i]);
        if (t.valued)
            t.values.push_back(i < values.size() ? values[i] : 0);
    }
    ++instants_;
}

namespace {

/// VCD identifier characters start at '!' (33).
std::string vcdId(std::size_t n)
{
    std::string id;
    do {
        id += static_cast<char>('!' + n % 94);
        n /= 94;
    } while (n);
    return id;
}

} // namespace

std::string TraceRecorder::toVcd(const std::string& moduleName) const
{
    std::string out;
    out += "$date ecl trace $end\n";
    out += "$version ecl reactive runtime $end\n";
    out += "$timescale 1ns $end\n";
    out += "$scope module " + moduleName + " $end\n";
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
        const Track& t = tracks_[i];
        out += "$var wire 1 " + vcdId(2 * i) + " " + t.name + " $end\n";
        if (t.valued)
            out += "$var integer 64 " + vcdId(2 * i + 1) + " " + t.name +
                   "_val $end\n";
    }
    out += "$upscope $end\n$enddefinitions $end\n";

    std::vector<signed char> lastPresent(tracks_.size(), -1);
    std::vector<std::int64_t> lastValue(tracks_.size(),
                                        std::int64_t{0x7fffffffffffffff});
    for (std::size_t inst = 0; inst < instants_; ++inst) {
        std::string changes;
        for (std::size_t i = 0; i < tracks_.size(); ++i) {
            const Track& t = tracks_[i];
            signed char p = t.present[inst] ? 1 : 0;
            if (p != lastPresent[i]) {
                changes += std::string(p ? "1" : "0") + vcdId(2 * i) + "\n";
                lastPresent[i] = p;
            }
            if (t.valued && t.values[inst] != lastValue[i]) {
                // Binary value dump.
                std::uint64_t raw =
                    static_cast<std::uint64_t>(t.values[inst]);
                std::string bits;
                if (raw == 0) bits = "0";
                while (raw) {
                    bits += (raw & 1) ? '1' : '0';
                    raw >>= 1;
                }
                std::reverse(bits.begin(), bits.end());
                changes += "b" + bits + " " + vcdId(2 * i + 1) + "\n";
                lastValue[i] = t.values[inst];
            }
        }
        if (!changes.empty() || inst == 0)
            out += "#" + std::to_string(inst) + "\n" + changes;
    }
    out += "#" + std::to_string(instants_) + "\n";
    return out;
}

std::string TraceRecorder::toTimeline() const
{
    std::size_t nameWidth = 0;
    for (const Track& t : tracks_)
        nameWidth = std::max(nameWidth, t.name.size());
    std::string out;
    for (const Track& t : tracks_) {
        out += t.name;
        out.append(nameWidth - t.name.size() + 1, ' ');
        for (std::size_t i = 0; i < instants_; ++i)
            out += t.present[i] ? '#' : '.';
        out += '\n';
    }
    return out;
}

// ---------------------------------------------------------------------------
// Input-stream record/replay
// ---------------------------------------------------------------------------

namespace {

constexpr char kBinaryMagic[8] = {'E', 'C', 'L', 'T', 'R', 'C', '0', '1'};
constexpr const char* kTextMagic = "eclrtrace";

std::string hexBytes(const std::vector<std::uint8_t>& bytes)
{
    static const char* digits = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (std::uint8_t b : bytes) {
        out += digits[b >> 4];
        out += digits[b & 0xf];
    }
    return out;
}

std::vector<std::uint8_t> parseHexBytes(const std::string& hex)
{
    auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
    };
    if (hex.size() % 2 != 0)
        throw EclError("trace: odd-length hex value '" + hex + "'");
    std::vector<std::uint8_t> out(hex.size() / 2);
    for (std::size_t i = 0; i < out.size(); ++i) {
        int hi = nibble(hex[2 * i]), lo = nibble(hex[2 * i + 1]);
        if (hi < 0 || lo < 0)
            throw EclError("trace: bad hex value '" + hex + "'");
        out[i] = static_cast<std::uint8_t>(hi << 4 | lo);
    }
    return out;
}

void putU32(std::ostream& os, std::uint32_t v)
{
    std::uint8_t b[4] = {static_cast<std::uint8_t>(v),
                         static_cast<std::uint8_t>(v >> 8),
                         static_cast<std::uint8_t>(v >> 16),
                         static_cast<std::uint8_t>(v >> 24)};
    os.write(reinterpret_cast<const char*>(b), 4);
}

std::uint32_t getU32(std::istream& is)
{
    std::uint8_t b[4];
    if (!is.read(reinterpret_cast<char*>(b), 4))
        throw EclError("trace: truncated binary trace");
    return static_cast<std::uint32_t>(b[0]) |
           static_cast<std::uint32_t>(b[1]) << 8 |
           static_cast<std::uint32_t>(b[2]) << 16 |
           static_cast<std::uint32_t>(b[3]) << 24;
}

void putString(std::ostream& os, const std::string& s)
{
    putU32(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string getString(std::istream& is)
{
    std::uint32_t n = getU32(is);
    if (n > (1u << 20))
        throw EclError("trace: implausible string length in binary trace");
    std::string s(n, '\0');
    if (n && !is.read(s.data(), n))
        throw EclError("trace: truncated binary trace");
    return s;
}

void putEvent(std::ostream& os, const TraceEvent& ev)
{
    putU32(os, ev.signal);
    os.put(ev.value.empty() ? 0 : 1);
    if (!ev.value.empty()) {
        putU32(os, static_cast<std::uint32_t>(ev.value.size()));
        os.write(reinterpret_cast<const char*>(ev.value.data()),
                 static_cast<std::streamsize>(ev.value.size()));
    }
}

TraceEvent getEvent(std::istream& is, std::size_t signalCount)
{
    TraceEvent ev;
    ev.signal = getU32(is);
    if (ev.signal >= signalCount)
        throw EclError("trace: event signal index out of range");
    int kind = is.get();
    if (kind != 0 && kind != 1)
        throw EclError("trace: bad event kind in binary trace");
    if (kind == 1) {
        std::uint32_t n = getU32(is);
        if (n > (1u << 20))
            throw EclError("trace: implausible value size in binary trace");
        ev.value.resize(n);
        if (n && !is.read(reinterpret_cast<char*>(ev.value.data()), n))
            throw EclError("trace: truncated binary trace");
    }
    return ev;
}

} // namespace

std::string InputTrace::outputLog() const
{
    std::ostringstream out;
    for (std::size_t t = 0; t < instants.size(); ++t) {
        const TraceInstant& in = instants[t];
        out << 't' << t << ':';
        for (const TraceEvent& ev : in.outputs) {
            out << signals[ev.signal].name;
            if (!ev.value.empty()) out << '=' << hexBytes(ev.value);
            out << ';';
        }
        out << (in.terminated ? 'T' : '.') << (in.autoResume ? 'a' : '.')
            << '\n';
    }
    return out.str();
}

TraceWriter::TraceWriter(const ModuleSema& sema, std::string moduleName)
    : sema_(sema)
{
    trace_.module = std::move(moduleName);
    trace_.signals.reserve(sema.signals.size());
    for (const SignalInfo& s : sema.signals) {
        InputTrace::SignalDesc d;
        d.name = s.name;
        d.input = s.dir == SignalDir::Input;
        d.output = s.dir == SignalDir::Output;
        d.pure = s.pure;
        d.valueSize = s.pure ? 0
                             : static_cast<std::uint32_t>(s.valueType->size());
        trace_.signals.push_back(std::move(d));
    }
}

void TraceWriter::input(int sigIndex)
{
    TraceEvent ev;
    ev.signal = static_cast<std::uint32_t>(sigIndex);
    pending_.inputs.push_back(std::move(ev));
}

void TraceWriter::inputValue(int sigIndex, const Value& v)
{
    TraceEvent ev;
    ev.signal = static_cast<std::uint32_t>(sigIndex);
    ev.value.assign(v.data(), v.data() + v.size());
    pending_.inputs.push_back(std::move(ev));
}

void TraceWriter::endInstant(const ReactiveEngine& eng)
{
    std::vector<TraceEvent> outputs;
    for (const SignalInfo& s : sema_.signals) {
        if (s.dir != SignalDir::Output) continue;
        if (!eng.outputPresent(s.index)) continue;
        TraceEvent ev;
        ev.signal = static_cast<std::uint32_t>(s.index);
        if (!s.pure) {
            Value v = eng.outputValue(s.index);
            ev.value.assign(v.data(), v.data() + v.size());
        }
        outputs.push_back(std::move(ev));
    }
    endInstantRaw(std::move(outputs), eng.terminated(),
                  eng.needsAutoResume());
}

void TraceWriter::endInstantRaw(std::vector<TraceEvent> outputs,
                                bool terminated, bool autoResume)
{
    pending_.outputs = std::move(outputs);
    pending_.terminated = terminated;
    pending_.autoResume = autoResume;
    trace_.instants.push_back(std::move(pending_));
    pending_ = TraceInstant{};
}

void writeTrace(const InputTrace& trace, std::ostream& os, TraceFormat fmt)
{
    if (fmt == TraceFormat::Binary) {
        os.write(kBinaryMagic, sizeof kBinaryMagic);
        putU32(os, InputTrace::kVersion);
        putString(os, trace.module);
        putU32(os, static_cast<std::uint32_t>(trace.signals.size()));
        for (const InputTrace::SignalDesc& d : trace.signals) {
            putString(os, d.name);
            std::uint8_t flags = (d.input ? 1 : 0) | (d.output ? 2 : 0) |
                                 (d.pure ? 4 : 0);
            os.put(static_cast<char>(flags));
            putU32(os, d.valueSize);
        }
        putU32(os, static_cast<std::uint32_t>(trace.instants.size()));
        for (const TraceInstant& in : trace.instants) {
            putU32(os, static_cast<std::uint32_t>(in.inputs.size()));
            for (const TraceEvent& ev : in.inputs) putEvent(os, ev);
            putU32(os, static_cast<std::uint32_t>(in.outputs.size()));
            for (const TraceEvent& ev : in.outputs) putEvent(os, ev);
            os.put(static_cast<char>((in.terminated ? 1 : 0) |
                                     (in.autoResume ? 2 : 0)));
        }
    } else {
        os << kTextMagic << ' ' << InputTrace::kVersion << '\n';
        os << "module " << trace.module << '\n';
        for (const InputTrace::SignalDesc& d : trace.signals) {
            os << "signal " << d.name << ' '
               << (d.input ? "in" : d.output ? "out" : "local") << ' ';
            if (d.pure)
                os << "pure";
            else
                os << 'v' << d.valueSize;
            os << '\n';
        }
        os << "instants " << trace.instants.size() << '\n';
        for (std::size_t t = 0; t < trace.instants.size(); ++t) {
            const TraceInstant& in = trace.instants[t];
            os << '@' << t << '\n';
            for (const TraceEvent& ev : in.inputs) {
                os << "in " << trace.signals[ev.signal].name;
                if (!ev.value.empty()) os << ' ' << hexBytes(ev.value);
                os << '\n';
            }
            for (const TraceEvent& ev : in.outputs) {
                os << "out " << trace.signals[ev.signal].name;
                if (!ev.value.empty()) os << ' ' << hexBytes(ev.value);
                os << '\n';
            }
            os << "end " << (in.terminated ? 'T' : '-') << ' '
               << (in.autoResume ? 'a' : '-') << '\n';
        }
    }
    if (!os) throw EclError("trace: write failed");
}

void writeTraceFile(const InputTrace& trace, const std::string& path,
                    TraceFormat fmt)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) throw EclError("trace: cannot open '" + path + "' for write");
    writeTrace(trace, os, fmt);
}

namespace {

InputTrace readBinaryTrace(std::istream& is)
{
    // Magic already consumed by the sniffing caller.
    InputTrace trace;
    std::uint32_t version = getU32(is);
    if (version != InputTrace::kVersion)
        throw EclError("trace: unsupported binary trace version " +
                       std::to_string(version));
    trace.module = getString(is);
    std::uint32_t nsig = getU32(is);
    if (nsig > (1u << 20)) throw EclError("trace: implausible signal count");
    trace.signals.resize(nsig);
    for (InputTrace::SignalDesc& d : trace.signals) {
        d.name = getString(is);
        int flags = is.get();
        if (flags < 0) throw EclError("trace: truncated binary trace");
        d.input = (flags & 1) != 0;
        d.output = (flags & 2) != 0;
        d.pure = (flags & 4) != 0;
        d.valueSize = getU32(is);
    }
    std::uint32_t ninst = getU32(is);
    if (ninst > (1u << 26))
        throw EclError("trace: implausible instant count");
    trace.instants.resize(ninst);
    for (TraceInstant& in : trace.instants) {
        std::uint32_t nin = getU32(is);
        if (nin > nsig * 2 + 16)
            throw EclError("trace: implausible input-event count");
        in.inputs.reserve(nin);
        for (std::uint32_t i = 0; i < nin; ++i)
            in.inputs.push_back(getEvent(is, nsig));
        std::uint32_t nout = getU32(is);
        if (nout > nsig * 2 + 16)
            throw EclError("trace: implausible output-event count");
        in.outputs.reserve(nout);
        for (std::uint32_t i = 0; i < nout; ++i)
            in.outputs.push_back(getEvent(is, nsig));
        int flags = is.get();
        if (flags < 0) throw EclError("trace: truncated binary trace");
        in.terminated = (flags & 1) != 0;
        in.autoResume = (flags & 2) != 0;
    }
    return trace;
}

InputTrace readTextTrace(std::istream& is, const std::string& firstLine)
{
    InputTrace trace;
    {
        std::istringstream head(firstLine);
        std::string magic;
        std::uint32_t version = 0;
        head >> magic >> version;
        if (magic != kTextMagic || version != InputTrace::kVersion)
            throw EclError("trace: unsupported text trace header '" +
                           firstLine + "'");
    }
    std::unordered_map<std::string, std::uint32_t> byName;
    std::string line;
    TraceInstant* cur = nullptr;
    auto resolve = [&](const std::string& name) -> std::uint32_t {
        auto it = byName.find(name);
        if (it == byName.end())
            throw EclError("trace: event on undeclared signal '" + name +
                           "'");
        return it->second;
    };
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::string tok;
        ls >> tok;
        if (tok == "module") {
            ls >> trace.module;
        } else if (tok == "signal") {
            InputTrace::SignalDesc d;
            std::string dir, kind;
            ls >> d.name >> dir >> kind;
            if (d.name.empty() || kind.empty())
                throw EclError("trace: malformed signal line '" + line + "'");
            d.input = dir == "in";
            d.output = dir == "out";
            if (kind == "pure") {
                d.pure = true;
            } else if (kind[0] == 'v') {
                d.pure = false;
                d.valueSize = static_cast<std::uint32_t>(
                    std::stoul(kind.substr(1)));
            } else {
                throw EclError("trace: bad signal kind '" + kind + "'");
            }
            byName.emplace(d.name, trace.signals.size());
            trace.signals.push_back(std::move(d));
        } else if (tok == "instants") {
            std::size_t n = 0;
            ls >> n;
            trace.instants.reserve(n);
        } else if (!tok.empty() && tok[0] == '@') {
            trace.instants.emplace_back();
            cur = &trace.instants.back();
        } else if (tok == "in" || tok == "out") {
            if (!cur)
                throw EclError("trace: event before first '@' instant");
            std::string name, hex;
            ls >> name >> hex;
            TraceEvent ev;
            ev.signal = resolve(name);
            if (!hex.empty()) ev.value = parseHexBytes(hex);
            (tok == "in" ? cur->inputs : cur->outputs)
                .push_back(std::move(ev));
        } else if (tok == "end") {
            if (!cur) throw EclError("trace: 'end' before first instant");
            std::string t, a;
            ls >> t >> a;
            cur->terminated = t == "T";
            cur->autoResume = a == "a";
        } else {
            throw EclError("trace: unknown line '" + line + "'");
        }
    }
    return trace;
}

} // namespace

InputTrace readTrace(std::istream& is)
{
    char magic[8] = {};
    is.read(magic, sizeof magic);
    if (is.gcount() == 8 &&
        std::memcmp(magic, kBinaryMagic, sizeof kBinaryMagic) == 0)
        return readBinaryTrace(is);
    // Not binary: re-assemble the first line and parse as text.
    is.clear();
    std::string first(magic, magic + is.gcount());
    std::string rest;
    if (std::getline(is, rest)) first += rest;
    if (first.rfind(kTextMagic, 0) != 0)
        throw EclError("trace: unrecognized trace format");
    return readTextTrace(is, first);
}

InputTrace readTraceFile(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) throw EclError("trace: cannot open '" + path + "'");
    return readTrace(is);
}

RecordingEngine::RecordingEngine(ReactiveEngine& inner,
                                 std::string moduleName)
    : inner_(inner), writer_(inner.moduleSema(), std::move(moduleName))
{
}

void RecordingEngine::setInput(int sigIndex)
{
    inner_.setInput(sigIndex);
    writer_.input(sigIndex);
}

void RecordingEngine::setInputScalar(int sigIndex, std::int64_t v)
{
    inner_.setInputScalar(sigIndex, v);
    const SignalInfo& s =
        inner_.moduleSema().signals[static_cast<std::size_t>(sigIndex)];
    writer_.inputValue(sigIndex, Value::fromInt(s.valueType, v));
}

void RecordingEngine::setInputValue(int sigIndex, Value v)
{
    writer_.inputValue(sigIndex, v);
    inner_.setInputValue(sigIndex, std::move(v));
}

ReactionResult RecordingEngine::react()
{
    ReactionResult r = inner_.react();
    writer_.endInstant(inner_);
    return r;
}

bool RecordingEngine::outputPresent(int sigIndex) const
{
    return inner_.outputPresent(sigIndex);
}

Value RecordingEngine::outputValue(int sigIndex) const
{
    return inner_.outputValue(sigIndex);
}

bool RecordingEngine::terminated() const { return inner_.terminated(); }

bool RecordingEngine::needsAutoResume() const
{
    return inner_.needsAutoResume();
}

const ModuleSema& RecordingEngine::moduleSema() const
{
    return inner_.moduleSema();
}

const char* RecordingEngine::backendName() const
{
    return inner_.backendName();
}

std::vector<std::uint8_t> RecordingEngine::packState() const
{
    return inner_.packState();
}

namespace {

/// Maps trace signal indices onto the target module's signal table by
/// name, validating direction/shape so replay fails loudly on a module
/// mismatch instead of silently dropping events.
std::vector<int> mapTraceSignals(const InputTrace& trace,
                                 const ModuleSema& sema)
{
    std::vector<int> map(trace.signals.size(), -1);
    for (std::size_t i = 0; i < trace.signals.size(); ++i) {
        const InputTrace::SignalDesc& d = trace.signals[i];
        const SignalInfo* s = sema.findSignal(d.name);
        if (!s) {
            // Only signals that actually carry events must resolve.
            continue;
        }
        if (s->pure != d.pure ||
            (!s->pure && s->valueType->size() != d.valueSize))
            throw EclError("trace: signal '" + d.name +
                           "' shape differs from the recording");
        map[i] = s->index;
    }
    return map;
}

int mappedSignal(const std::vector<int>& map, const InputTrace& trace,
                 std::uint32_t idx)
{
    int s = map[idx];
    if (s < 0)
        throw EclError("trace: signal '" + trace.signals[idx].name +
                       "' missing from the replay module");
    return s;
}

/// Engine-shape adapter so any ReactiveEngine (sync VM, native) and a
/// BatchEngine instance replay through one loop.
struct SyncDriver {
    ReactiveEngine& eng;
    const ModuleSema& sema() const { return eng.moduleSema(); }
    void setPure(int idx) { eng.setInput(idx); }
    void setValue(int idx, Value v) { eng.setInputValue(idx, std::move(v)); }
    ReactionResult react() { return eng.react(); }
    bool outputPresent(int idx) const { return eng.outputPresent(idx); }
    Value outputValue(int idx) const { return eng.outputValue(idx); }
    bool terminated() const { return eng.terminated(); }
    bool autoResume() const { return eng.needsAutoResume(); }
    std::vector<std::uint8_t> packState() const { return eng.packState(); }
};

struct BatchDriver {
    BatchEngine& batch;
    std::size_t inst;
    const ModuleSema& sema() const { return batch.moduleSema(); }
    void setPure(int idx) { batch.setInput(inst, idx); }
    void setValue(int idx, Value v) { batch.setInputValue(inst, idx, v); }
    ReactionResult react()
    {
        batch.stepAll();
        return batch.lastResult(inst);
    }
    bool outputPresent(int idx) const
    {
        return batch.outputPresent(inst, idx);
    }
    Value outputValue(int idx) const { return batch.outputValue(inst, idx); }
    bool terminated() const { return batch.terminated(inst); }
    bool autoResume() const { return batch.needsAutoResume(inst); }
    std::vector<std::uint8_t> packState() const
    {
        return batch.packInstanceState(inst);
    }
};

template <typename Driver>
TraceReplayResult replayCore(Driver drv, const InputTrace& trace,
                             const TraceReplayOptions& opts)
{
    const ModuleSema& sema = drv.sema();
    const std::vector<int> map = mapTraceSignals(trace, sema);
    TraceReplayResult res;
    std::ostringstream log;

    for (std::size_t t = 0; t < trace.instants.size(); ++t) {
        const TraceInstant& in = trace.instants[t];
        for (const TraceEvent& ev : in.inputs) {
            int idx = mappedSignal(map, trace, ev.signal);
            if (ev.value.empty()) {
                drv.setPure(idx);
            } else {
                const SignalInfo& s =
                    sema.signals[static_cast<std::size_t>(idx)];
                drv.setValue(idx,
                             Value::fromBytes(s.valueType, ev.value.data()));
            }
        }
        ReactionResult r;
        try {
            r = drv.react();
        } catch (const EclError& e) {
            res.outputsMatch = false;
            res.mismatch = "runtime trap at instant " + std::to_string(t) +
                           ": " + e.what();
            res.outputDigest = hex64(fnv1a64(log.str()));
            return res;
        }
        res.treeTests += r.treeTests;
        res.actionsRun += r.actionsRun;
        res.emitsRun += r.emitsRun;
        res.dataCounters += r.dataCounters;
        ++res.instants;

        // Canonical output sampling: ascending output-signal index — the
        // same order TraceWriter::endInstant records.
        std::vector<TraceEvent> outputs;
        for (const SignalInfo& s : sema.signals) {
            if (s.dir != SignalDir::Output) continue;
            if (!drv.outputPresent(s.index)) continue;
            TraceEvent ev;
            ev.signal = static_cast<std::uint32_t>(s.index);
            if (!s.pure) {
                Value v = drv.outputValue(s.index);
                ev.value.assign(v.data(), v.data() + v.size());
            }
            outputs.push_back(std::move(ev));
        }
        const bool term = drv.terminated();
        const bool resume = drv.autoResume();

        log << 't' << t << ':';
        for (const TraceEvent& ev : outputs) {
            log << sema.signals[static_cast<std::size_t>(ev.signal)].name;
            if (!ev.value.empty()) log << '=' << hexBytes(ev.value);
            log << ';';
        }
        log << (term ? 'T' : '.') << (resume ? 'a' : '.') << '\n';

        if (opts.checkOutputs && res.outputsMatch) {
            auto mismatchAt = [&](const std::string& what) {
                res.outputsMatch = false;
                res.mismatch =
                    "instant " + std::to_string(t) + ": " + what;
            };
            if (outputs.size() != in.outputs.size()) {
                mismatchAt("output count " +
                           std::to_string(outputs.size()) + " vs recorded " +
                           std::to_string(in.outputs.size()));
            } else {
                for (std::size_t i = 0; i < outputs.size(); ++i) {
                    const std::string& recName =
                        trace.signals[in.outputs[i].signal].name;
                    const std::string& curName =
                        sema.signals[static_cast<std::size_t>(
                                         outputs[i].signal)]
                            .name;
                    if (recName != curName) {
                        mismatchAt("output '" + curName +
                                   "' vs recorded '" + recName + "'");
                        break;
                    }
                    if (outputs[i].value != in.outputs[i].value) {
                        mismatchAt("value of '" + curName + "' differs");
                        break;
                    }
                }
                if (res.outputsMatch && (term != in.terminated ||
                                         resume != in.autoResume))
                    mismatchAt("termination/auto-resume flags differ");
            }
        }
    }
    res.outputDigest = hex64(fnv1a64(log.str()));
    res.finalState = drv.packState();
    return res;
}

} // namespace

TraceReplayResult replayTrace(ReactiveEngine& engine, const InputTrace& trace,
                              const TraceReplayOptions& opts)
{
    return replayCore(SyncDriver{engine}, trace, opts);
}

TraceReplayResult replayTrace(BatchEngine& batch, std::size_t inst,
                              const InputTrace& trace,
                              const TraceReplayOptions& opts)
{
    return replayCore(BatchDriver{batch, inst}, trace, opts);
}

} // namespace ecl::rt
