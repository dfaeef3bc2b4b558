#include "api/sweep_checkpoint.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "api/sprt.h"
#include "sim/parallel_sampler.h"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace prophunt::api {

namespace {

// FNV-1a over 8-byte values / strings, as the engine's cache keys use.
void
fnv(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

void
fnvStr(uint64_t &h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    fnv(h, s.size());
}

uint64_t
doubleBits(double d)
{
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    return bits;
}

[[noreturn]] void
fail(const std::string &msg)
{
    throw std::runtime_error("sweep checkpoint: " + msg);
}

// --- minimal strict JSON ----------------------------------------------------
//
// Exactly the subset the writer emits: objects, arrays, strings (no
// escapes beyond \" \\ \/ \b \f \n \r \t), numbers, true/false/null.
// Kept dependency-free on purpose; errors carry the byte offset so a
// truncated or corrupt checkpoint is diagnosable.

struct JsonValue
{
    enum Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };
    Kind kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *
    find(const char *key) const
    {
        for (const auto &[k, v] : object) {
            if (k == key) {
                return &v;
            }
        }
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size()) {
            error("trailing data after document");
        }
        return v;
    }

  private:
    [[noreturn]] void
    error(const std::string &what) const
    {
        fail("parse error at byte " + std::to_string(pos_) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            error("unexpected end of input");
        }
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c) {
            error(std::string("expected '") + c + "', got '" +
                  text_[pos_] + "'");
        }
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    JsonValue
    value()
    {
        char c = peek();
        switch (c) {
        case '{':
            return object();
        case '[':
            return array();
        case '"':
            return string();
        case 't':
        case 'f':
            return boolean();
        case 'n':
            literal("null");
            return JsonValue{};
        default:
            return number();
        }
    }

    void
    literal(const char *word)
    {
        std::size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0) {
            error(std::string("expected '") + word + "'");
        }
        pos_ += len;
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Bool;
        if (text_[pos_] == 't') {
            literal("true");
            v.boolean = true;
        } else {
            literal("false");
            v.boolean = false;
        }
        return v;
    }

    JsonValue
    string()
    {
        expect('"');
        JsonValue v;
        v.kind = JsonValue::String;
        while (true) {
            if (pos_ >= text_.size()) {
                error("unterminated string");
            }
            char c = text_[pos_++];
            if (c == '"') {
                return v;
            }
            if (c == '\\') {
                if (pos_ >= text_.size()) {
                    error("unterminated escape");
                }
                char e = text_[pos_++];
                switch (e) {
                case '"':
                case '\\':
                case '/':
                    v.string.push_back(e);
                    break;
                case 'b':
                    v.string.push_back('\b');
                    break;
                case 'f':
                    v.string.push_back('\f');
                    break;
                case 'n':
                    v.string.push_back('\n');
                    break;
                case 'r':
                    v.string.push_back('\r');
                    break;
                case 't':
                    v.string.push_back('\t');
                    break;
                default:
                    error("unsupported string escape");
                }
            } else {
                v.string.push_back(c);
            }
        }
    }

    JsonValue
    number()
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            ++pos_;
        }
        while (pos_ < text_.size() &&
               (std::isdigit((unsigned char)text_[pos_]) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) {
            error("expected a value");
        }
        std::string tok = text_.substr(start, pos_ - start);
        char *end = nullptr;
        errno = 0;
        double d = std::strtod(tok.c_str(), &end);
        if (errno != 0 || end == tok.c_str() || *end != '\0') {
            pos_ = start;
            error("malformed number '" + tok + "'");
        }
        JsonValue v;
        v.kind = JsonValue::Number;
        v.number = d;
        return v;
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Array;
        if (consume(']')) {
            return v;
        }
        while (true) {
            v.array.push_back(value());
            if (consume(']')) {
                return v;
            }
            expect(',');
        }
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Object;
        if (consume('}')) {
            return v;
        }
        while (true) {
            JsonValue key = string();
            expect(':');
            v.object.emplace_back(std::move(key.string), value());
            if (consume('}')) {
                return v;
            }
            expect(',');
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

// --- typed field access -----------------------------------------------------

const JsonValue &
field(const JsonValue &obj, const char *key)
{
    if (obj.kind != JsonValue::Object) {
        fail(std::string("expected an object around '") + key + "'");
    }
    const JsonValue *v = obj.find(key);
    if (v == nullptr) {
        fail(std::string("missing field '") + key + "'");
    }
    return *v;
}

double
numField(const JsonValue &obj, const char *key)
{
    const JsonValue &v = field(obj, key);
    if (v.kind != JsonValue::Number) {
        fail(std::string("field '") + key + "' must be a number");
    }
    return v.number;
}

/** True iff @p d is an integer in [0, 2^64): checked before any cast,
 * since converting an out-of-range double to an integer is undefined. */
bool
isUint64(double d)
{
    return d >= 0 && d < 0x1p64 && d == std::floor(d);
}

std::size_t
sizeField(const JsonValue &obj, const char *key)
{
    double d = numField(obj, key);
    if (!isUint64(d)) {
        fail(std::string("field '") + key +
             "' must be a non-negative integer");
    }
    return (std::size_t)d;
}

bool
boolField(const JsonValue &obj, const char *key)
{
    const JsonValue &v = field(obj, key);
    if (v.kind != JsonValue::Bool) {
        fail(std::string("field '") + key + "' must be a boolean");
    }
    return v.boolean;
}

std::string
strField(const JsonValue &obj, const char *key)
{
    const JsonValue &v = field(obj, key);
    if (v.kind != JsonValue::String) {
        fail(std::string("field '") + key + "' must be a string");
    }
    return v.string;
}

/** uint64 fields travel as hex strings: JSON numbers are doubles and
 * would corrupt seeds/fingerprints above 2^53. */
uint64_t
hexField(const JsonValue &obj, const char *key)
{
    std::string s = strField(obj, key);
    char *end = nullptr;
    errno = 0;
    uint64_t v = std::strtoull(s.c_str(), &end, 16);
    if (errno != 0 || end == s.c_str() || *end != '\0') {
        fail(std::string("field '") + key + "' must be a hex string");
    }
    return v;
}

uint64_t
tallyElem(const JsonValue &arr, std::size_t i)
{
    const JsonValue &v = arr.array[i];
    if (v.kind != JsonValue::Number || !isUint64(v.number)) {
        fail("chunk tally entries must be non-negative integers");
    }
    return (uint64_t)v.number;
}

SweepPointResult
pointResult(double p, const SweepPrefix &pre)
{
    SweepPointResult out;
    out.p = p;
    out.memory = pre.memory;
    out.decision = pre.decision;
    out.telemetry.shots = pre.memory.z.shots + pre.memory.x.shots;
    return out;
}

} // namespace

// --- seeds / fingerprint / construction ------------------------------------

uint64_t
sweepChunkSeed(const SweepRequest &req, std::size_t chunk)
{
    if (!req.sprt.enabled) {
        return req.seed;
    }
    // The serial pre-checkpoint loop drew chunk seeds sequentially from
    // SplitMix64(seed ^ salt); shardSeed gives O(1) access to the same
    // stream, so a resumed chunk agrees with it without replaying it.
    return sim::shardSeed(req.seed ^ 0xc4ceb9fe1a85ec53ULL, chunk);
}

uint64_t
sweepFingerprint(const SweepRequest &req)
{
    return makeSweepCheckpoint(req).fingerprint;
}

SweepCheckpoint
makeSweepCheckpoint(const SweepRequest &req)
{
    SweepCheckpoint cp;
    cp.shotsPerPoint = req.shotsPerPoint;
    if (req.shotsPerPoint == 0) {
        cp.chunkShots = 0;
    } else if (req.sprt.enabled) {
        // chunkShots = 0 would never advance the budget; clamp to 1.
        cp.chunkShots = std::max<std::size_t>(1, req.sprt.chunkShots);
    } else {
        cp.chunkShots = req.shotsPerPoint;
    }
    cp.seed = req.seed;
    cp.sprt = req.sprt;
    cp.sprt.chunkShots = cp.chunkShots; // Persist the clamped value.

    uint64_t h = 0x6a09e667f3bcc908ULL; // Distinct basis from cache keys.
    fnv(h, circuit::hashSchedule(req.schedule));
    fnv(h, req.rounds);
    fnv(h, req.ps.size());
    for (double p : req.ps) {
        fnv(h, doubleBits(p));
    }
    fnv(h, doubleBits(req.pIdle));
    fnvStr(h, req.decoder.describe());
    fnv(h, req.shotsPerPoint);
    fnv(h, req.seed);
    fnv(h, cp.chunkShots);
    fnv(h, req.sprt.enabled ? 1 : 0);
    fnv(h, doubleBits(req.sprt.decisionLer));
    fnv(h, doubleBits(req.sprt.margin));
    fnv(h, doubleBits(req.sprt.alpha));
    fnv(h, doubleBits(req.sprt.beta));
    fnv(h, req.sprt.minShots);
    fnv(h, req.flagWeight);
    fnv(h, req.ler.maxFailures);
    fnv(h, req.ler.shardShots);
    cp.fingerprint = h;

    cp.points.resize(req.ps.size());
    for (std::size_t i = 0; i < req.ps.size(); ++i) {
        cp.points[i].p = req.ps[i];
        cp.points[i].chunks.resize(cp.chunksPerPoint());
    }
    return cp;
}

// --- serialization ----------------------------------------------------------

std::string
SweepCheckpoint::toJson() const
{
    std::string out;
    out.reserve(256 + points.size() * 64);
    char buf[384];
    auto append = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof buf, fmt, args...);
        out += buf;
    };
    out += "{\n";
    append("  \"format\": \"%s\",\n", kFormat);
    append("  \"version\": %d,\n", version);
    append("  \"fingerprint\": \"%016" PRIx64 "\",\n", fingerprint);
    append("  \"seed\": \"%016" PRIx64 "\",\n", seed);
    append("  \"shots_per_point\": %zu,\n", shotsPerPoint);
    append("  \"chunk_shots\": %zu,\n", chunkShots);
    append("  \"sprt\": {\"enabled\": %s, \"decision_ler\": %.17g, "
           "\"margin\": %.17g, \"alpha\": %.17g, \"beta\": %.17g, "
           "\"chunk_shots\": %zu, \"min_shots\": %zu},\n",
           sprt.enabled ? "true" : "false", sprt.decisionLer, sprt.margin,
           sprt.alpha, sprt.beta, sprt.chunkShots, sprt.minShots);
    out += "  \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPointCheckpoint &pt = points[i];
        out += i == 0 ? "\n" : ",\n";
        append("    {\"p\": %.17g, \"chunks\": [", pt.p);
        for (std::size_t c = 0; c < pt.chunks.size(); ++c) {
            const SweepChunkTally &t = pt.chunks[c];
            if (c != 0) {
                out += ",";
            }
            if (!t.done) {
                out += "null";
            } else {
                append("[%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                       ",%d,%d]",
                       t.zShots, t.zFailures, t.xShots, t.xFailures,
                       t.zEarlyStopped ? 1 : 0, t.xEarlyStopped ? 1 : 0);
            }
        }
        out += "]}";
    }
    out += points.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

SweepCheckpoint
SweepCheckpoint::fromJson(const std::string &json)
{
    JsonValue root = JsonParser(json).parse();
    if (root.kind != JsonValue::Object) {
        fail("document must be an object");
    }
    if (strField(root, "format") != kFormat) {
        fail("not a " + std::string(kFormat) + " file");
    }
    SweepCheckpoint cp;
    // Compared at full width: narrowing first would read 2^32 + 1 as 1.
    std::size_t version = sizeField(root, "version");
    if (version != (std::size_t)kVersion) {
        fail("unsupported version " + std::to_string(version) +
             " (this build reads version " + std::to_string(kVersion) +
             ")");
    }
    cp.fingerprint = hexField(root, "fingerprint");
    cp.seed = hexField(root, "seed");
    cp.shotsPerPoint = sizeField(root, "shots_per_point");
    cp.chunkShots = sizeField(root, "chunk_shots");
    const JsonValue &sprt = field(root, "sprt");
    cp.sprt.enabled = boolField(sprt, "enabled");
    cp.sprt.decisionLer = numField(sprt, "decision_ler");
    cp.sprt.margin = numField(sprt, "margin");
    cp.sprt.alpha = numField(sprt, "alpha");
    cp.sprt.beta = numField(sprt, "beta");
    cp.sprt.chunkShots = sizeField(sprt, "chunk_shots");
    cp.sprt.minShots = sizeField(sprt, "min_shots");

    if (cp.shotsPerPoint > 0 && cp.chunkShots == 0) {
        fail("chunk_shots must be positive when shots_per_point is");
    }
    // The grid every point must be laid out on.
    const std::size_t chunks_per_point = cp.chunksPerPoint();

    const JsonValue &pts = field(root, "points");
    if (pts.kind != JsonValue::Array) {
        fail("'points' must be an array");
    }
    cp.points.reserve(pts.array.size());
    for (const JsonValue &pv : pts.array) {
        SweepPointCheckpoint pt;
        pt.p = numField(pv, "p");
        const JsonValue &chunks = field(pv, "chunks");
        if (chunks.kind != JsonValue::Array) {
            fail("'chunks' must be an array");
        }
        if (chunks.array.size() != chunks_per_point) {
            fail("point has " + std::to_string(chunks.array.size()) +
                 " chunks; the grid requires " +
                 std::to_string(chunks_per_point));
        }
        pt.chunks.reserve(chunks.array.size());
        for (const JsonValue &cv : chunks.array) {
            SweepChunkTally t;
            if (cv.kind == JsonValue::Null) {
                pt.chunks.push_back(t);
                continue;
            }
            if (cv.kind != JsonValue::Array || cv.array.size() != 6) {
                fail("each chunk must be null or a 6-element array");
            }
            t.done = true;
            t.zShots = tallyElem(cv, 0);
            t.zFailures = tallyElem(cv, 1);
            t.xShots = tallyElem(cv, 2);
            t.xFailures = tallyElem(cv, 3);
            t.zEarlyStopped = tallyElem(cv, 4) != 0;
            t.xEarlyStopped = tallyElem(cv, 5) != 0;
            if (t.zFailures > t.zShots || t.xFailures > t.xShots) {
                fail("chunk failures exceed its shots");
            }
            pt.chunks.push_back(t);
        }
        cp.points.push_back(std::move(pt));
    }
    return cp;
}

void
SweepCheckpoint::saveAtomic(const std::string &path) const
{
    std::string tmp = path + ".tmp";
    FILE *f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
        fail("cannot open '" + tmp + "' for writing: " +
             std::strerror(errno));
    }
    std::string json = toJson();
    bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    ok = std::fflush(f) == 0 && ok;
#ifndef _WIN32
    // Durability: the rename must not land before the contents do.
    ok = fsync(fileno(f)) == 0 && ok;
#endif
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        std::remove(tmp.c_str());
        fail("write to '" + tmp + "' failed: " + std::strerror(errno));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        int err = errno;
        std::remove(tmp.c_str());
        fail("rename '" + tmp + "' -> '" + path +
             "' failed: " + std::strerror(err));
    }
}

SweepCheckpoint
SweepCheckpoint::load(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        fail("cannot open '" + path + "': " + std::strerror(errno));
    }
    std::string text;
    char buf[1 << 14];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
        text.append(buf, n);
    }
    bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err) {
        fail("read of '" + path + "' failed");
    }
    try {
        return fromJson(text);
    } catch (const std::runtime_error &e) {
        fail("'" + path + "' is corrupt or not a checkpoint (" + e.what() +
             "); delete it to restart from scratch");
    }
}

std::optional<SweepCheckpoint>
SweepCheckpoint::loadIfExists(const std::string &path)
{
    if (FILE *f = std::fopen(path.c_str(), "rb")) {
        std::fclose(f);
        return load(path);
    }
    return std::nullopt;
}

// --- canonical evaluation ---------------------------------------------------

SweepPrefix
evalSweepPrefix(const SweepCheckpoint &cp, std::size_t point)
{
    const std::vector<SweepChunkTally> &chunks = cp.points[point].chunks;
    SweepPrefix pre;
    while (pre.chunksDone < chunks.size() && chunks[pre.chunksDone].done) {
        ++pre.chunksDone;
    }
    if (chunks.empty()) {
        // Zero-shot point: well-formed empty, decision None.
        pre.complete = true;
        return pre;
    }

    std::optional<SprtTest> test;
    if (cp.sprt.enabled) {
        test.emplace(cp.sprt);
        pre.decision = SprtDecision::Undecided;
    }
    decoder::MemoryLer &m = pre.memory;
    for (std::size_t c = 0; c < pre.chunksDone; ++c) {
        const SweepChunkTally &t = chunks[c];
        m.z.shots += t.zShots;
        m.z.failures += t.zFailures;
        m.x.shots += t.xShots;
        m.x.failures += t.xFailures;
        pre.chunksConsumed = c + 1;
        if (!test) {
            // Fixed budget: the one chunk carries the whole point.
            m.z.earlyStopped = t.zEarlyStopped;
            m.x.earlyStopped = t.xEarlyStopped;
            continue;
        }
        SprtDecision dec = test->evaluate((m.z.shots + m.x.shots) / 2,
                                          m.z.failures + m.x.failures);
        if (dec != SprtDecision::Undecided) {
            pre.decision = dec;
            pre.decidedEarly = cp.chunkEnd(c) < cp.shotsPerPoint;
            m.z.earlyStopped = m.x.earlyStopped = pre.decidedEarly;
            pre.complete = true;
            return pre;
        }
    }
    if (pre.chunksDone == chunks.size()) {
        // The whole budget without an SPRT decision: the fixed-budget
        // rule, exactly as the serial loop.
        pre.decision = SprtTest::fixedDecision(m.combined(), cp.sprt);
        pre.complete = true;
    }
    return pre;
}

SweepPointResult
finalizePoint(const SweepCheckpoint &cp, std::size_t point)
{
    return pointResult(cp.points[point].p, evalSweepPrefix(cp, point));
}

SweepFinalize
finalizeSweep(const SweepCheckpoint &cp)
{
    SweepFinalize fin;
    fin.result.points.reserve(cp.points.size());
    for (std::size_t i = 0; i < cp.points.size(); ++i) {
        SweepPrefix pre = evalSweepPrefix(cp, i);
        fin.pointsComplete += pre.complete ? 1 : 0;
        fin.result.points.push_back(pointResult(cp.points[i].p, pre));
        fin.result.telemetry += fin.result.points.back().telemetry;
    }
    fin.complete = fin.pointsComplete == cp.points.size();
    return fin;
}

// --- admission validation ---------------------------------------------------

void
validateSweepRequest(const SweepRequest &req)
{
    // buildDem's rule, checked before the first point is sampled rather
    // than when the sweep reaches the bad point.
    auto check = [](double p, const std::string &name) {
        if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
            throw std::invalid_argument(
                "SweepRequest: " + name +
                " must be a finite probability in [0, 1], got " +
                std::to_string(p));
        }
    };
    for (std::size_t i = 0; i < req.ps.size(); ++i) {
        check(req.ps[i], "ps[" + std::to_string(i) + "]");
    }
    check(req.pIdle, "pIdle");
    if (req.sprt.enabled) {
        try {
            SprtTest probe(req.sprt);
            (void)probe;
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument(
                std::string("SweepRequest: sprt.enabled with unusable "
                            "SPRT options (") +
                e.what() +
                "). Set sprt.decisionLer to the LER threshold the sweep "
                "should decide against (e.g. 0.02) and keep margin > 1, "
                "alpha/beta in (0, 1).");
        }
    }
}

} // namespace prophunt::api
