#include "api/sweep_checkpoint.h"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

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
// Exactly the subset the writer emits: objects, arrays, strings without
// escapes, numbers, and null; plus true/false, which version-1 files
// hold, so that they reach the version check and its message.
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
        literal(text_[pos_] == 't' ? "true" : "false");
        JsonValue v;
        v.kind = JsonValue::Bool;
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
                error("unsupported string escape");
            }
            v.string.push_back(c);
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

std::string
strField(const JsonValue &obj, const char *key)
{
    const JsonValue &v = field(obj, key);
    if (v.kind != JsonValue::String) {
        fail(std::string("field '") + key + "' must be a string");
    }
    return v.string;
}

/** The uint64 fingerprint travels as a hex string: JSON numbers are
 * doubles and would corrupt it above 2^53. */
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
        fail("tally entries must be non-negative integers");
    }
    return (uint64_t)v.number;
}

} // namespace

// --- atomic file ------------------------------------------------------------

AtomicFile::AtomicFile(std::string path)
    : path_(std::move(path)), tmp_(path_ + ".tmp"),
      file_(std::fopen(tmp_.c_str(), "w"))
{
    if (file_ == nullptr) {
        throw std::runtime_error("cannot open '" + tmp_ +
                                 "' for writing: " + std::strerror(errno));
    }
}

AtomicFile::~AtomicFile()
{
    if (file_ != nullptr) {
        std::fclose(file_);
        std::remove(tmp_.c_str());
    }
}

void
AtomicFile::commit()
{
    FILE *f = std::exchange(file_, nullptr);
    bool ok = std::ferror(f) == 0;
    ok = std::fflush(f) == 0 && ok;
#ifndef _WIN32
    // Durability: the rename must not land before the contents do.
    ok = fsync(fileno(f)) == 0 && ok;
#endif
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        int err = errno;
        std::remove(tmp_.c_str());
        throw std::runtime_error("write to '" + tmp_ +
                                 "' failed: " + std::strerror(err));
    }
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
        int err = errno;
        std::remove(tmp_.c_str());
        throw std::runtime_error("rename '" + tmp_ + "' -> '" + path_ +
                                 "' failed: " + std::strerror(err));
    }
}

// --- fingerprint / construction ---------------------------------------------

decoder::MemoryLer
SweepPointCheckpoint::memory() const
{
    decoder::MemoryLer m;
    m.z.shots = zShots;
    m.z.failures = zFailures;
    m.z.earlyStopped = zEarlyStopped;
    m.x.shots = xShots;
    m.x.failures = xFailures;
    m.x.earlyStopped = xEarlyStopped;
    return m;
}

uint64_t
sweepFingerprint(const SweepRequest &req)
{
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
    fnv(h, req.flagWeight);
    fnv(h, req.ler.maxFailures);
    fnv(h, req.ler.shardShots);
    return h;
}

SweepCheckpoint
makeSweepCheckpoint(const SweepRequest &req)
{
    SweepCheckpoint cp;
    cp.fingerprint = sweepFingerprint(req);
    cp.points.resize(req.ps.size());
    for (std::size_t i = 0; i < req.ps.size(); ++i) {
        cp.points[i].p = req.ps[i];
    }
    return cp;
}

// --- serialization ----------------------------------------------------------

std::string
SweepCheckpoint::toJson() const
{
    std::string out;
    out.reserve(128 + points.size() * 64);
    char buf[160];
    auto append = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof buf, fmt, args...);
        out += buf;
    };
    out += "{\n";
    append("  \"format\": \"%s\",\n", kFormat);
    append("  \"version\": %d,\n", version);
    append("  \"fingerprint\": \"%016" PRIx64 "\",\n", fingerprint);
    out += "  \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPointCheckpoint &t = points[i];
        out += i == 0 ? "\n" : ",\n";
        append("    {\"p\": %.17g, \"tally\": ", t.p);
        if (!t.done) {
            out += "null";
        } else {
            append("[%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%d,%d]",
                   t.zShots, t.zFailures, t.xShots, t.xFailures,
                   t.zEarlyStopped ? 1 : 0, t.xEarlyStopped ? 1 : 0);
        }
        out += "}";
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
    // Compared at full width: narrowing first would read 2^32 + 2 as 2.
    std::size_t version = sizeField(root, "version");
    if (version != (std::size_t)kVersion) {
        fail("unsupported version " + std::to_string(version) +
             " (this build reads version " + std::to_string(kVersion) +
             ")");
    }
    cp.fingerprint = hexField(root, "fingerprint");

    const JsonValue &pts = field(root, "points");
    if (pts.kind != JsonValue::Array) {
        fail("'points' must be an array");
    }
    cp.points.reserve(pts.array.size());
    for (const JsonValue &pv : pts.array) {
        SweepPointCheckpoint t;
        t.p = numField(pv, "p");
        const JsonValue &tv = field(pv, "tally");
        if (tv.kind != JsonValue::Null) {
            if (tv.kind != JsonValue::Array || tv.array.size() != 6) {
                fail("each tally must be null or a 6-element array");
            }
            t.done = true;
            t.zShots = tallyElem(tv, 0);
            t.zFailures = tallyElem(tv, 1);
            t.xShots = tallyElem(tv, 2);
            t.xFailures = tallyElem(tv, 3);
            t.zEarlyStopped = tallyElem(tv, 4) != 0;
            t.xEarlyStopped = tallyElem(tv, 5) != 0;
            if (t.zFailures > t.zShots || t.xFailures > t.xShots) {
                fail("tally failures exceed its shots");
            }
        }
        cp.points.push_back(t);
    }
    return cp;
}

void
SweepCheckpoint::saveAtomic(const std::string &path) const
{
    AtomicFile out(path);
    const std::string json = toJson();
    std::fwrite(json.data(), 1, json.size(), out.stream());
    out.commit();
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
    const bool read_err = std::ferror(f) != 0;
    const int err = read_err ? errno : 0; // before fclose can change it
    std::fclose(f);
    if (read_err) {
        fail("read of '" + path + "' failed: " + std::strerror(err));
    }
    try {
        return fromJson(text);
    } catch (const std::runtime_error &e) {
        fail("'" + path + "' is not a usable checkpoint (" + e.what() +
             "); delete it to restart from scratch");
    }
}

std::optional<SweepCheckpoint>
SweepCheckpoint::loadIfExists(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr && errno == ENOENT) {
        return std::nullopt;
    }
    if (f != nullptr) {
        std::fclose(f);
    }
    // load() reports any other open error (ENOTDIR, EACCES, ...).
    return load(path);
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
}

} // namespace prophunt::api
