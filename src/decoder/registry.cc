#include "decoder/registry.h"

#include <sstream>
#include <stdexcept>

#include "decoder/matching_graph.h"
#include "decoder/mle.h"
#include "decoder/union_find.h"

namespace prophunt::decoder {

namespace {

/**
 * Extract a backend's options from the variant.
 *
 * monostate yields backend defaults; any other mismatched alternative is
 * a caller bug worth a loud error rather than a silent default.
 */
template <class T>
T
optionsAs(const DecoderOptions &opts, const char *name)
{
    if (std::holds_alternative<std::monostate>(opts)) {
        return T{};
    }
    if (const T *o = std::get_if<T>(&opts)) {
        return *o;
    }
    throw std::invalid_argument(std::string("decoder '") + name +
                                "': options variant holds a different "
                                "backend's options");
}

} // namespace

std::string
DecoderSpec::describe() const
{
    std::ostringstream os;
    os << name;
    if (const auto *uf = std::get_if<UnionFindOptions>(&options)) {
        (void)uf;
        os << "{}";
    } else if (const auto *bp = std::get_if<BpOsdOptions>(&options)) {
        os << "{maxIterations=" << bp->maxIterations
           << ",scale=" << bp->scale
           << ",stagnationWindow=" << bp->stagnationWindow
           << ",packedOsd=" << bp->packedOsd << "}";
    } else if (const auto *mle = std::get_if<MleOptions>(&options)) {
        os << "{maxWeight=" << mle->maxWeight << "}";
    }
    return os.str();
}

Registry::Registry()
{
    auto unionFind = [](const sim::Dem &dem,
                        const circuit::SmCircuit &circuit,
                        const DecoderOptions &opts) {
        (void)optionsAs<UnionFindOptions>(opts, "union_find");
        return std::make_unique<UnionFindDecoder>(
            buildMatchingGraph(dem, circuit));
    };
    factories_["union_find"] = unionFind;
    factories_["matching"] = unionFind;
    factories_["bp_osd"] = [](const sim::Dem &dem,
                              const circuit::SmCircuit &,
                              const DecoderOptions &opts) {
        return std::make_unique<BpOsdDecoder>(
            dem, optionsAs<BpOsdOptions>(opts, "bp_osd"));
    };
    factories_["mle"] = [](const sim::Dem &dem, const circuit::SmCircuit &,
                           const DecoderOptions &opts) {
        return std::make_unique<MleDecoder>(
            dem, optionsAs<MleOptions>(opts, "mle").maxWeight);
    };
}

Registry &
Registry::instance()
{
    static Registry registry;
    return registry;
}

void
Registry::add(const std::string &name, Factory factory)
{
    std::lock_guard<std::mutex> lock(mutex_);
    factories_[name] = std::move(factory);
}

bool
Registry::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return factories_.count(name) != 0;
}

std::vector<std::string>
Registry::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto &[name, factory] : factories_) {
        out.push_back(name);
    }
    return out;
}

std::unique_ptr<Decoder>
Registry::create(const DecoderSpec &spec, const sim::Dem &dem,
                 const circuit::SmCircuit &circuit) const
{
    // Predictions are 64-bit observable masks (decoder.h); a wider DEM
    // would silently drop observables instead of decoding them.
    if (dem.numObservables > 64) {
        throw std::invalid_argument(
            "decoder '" + spec.name + "': the DEM has " +
            std::to_string(dem.numObservables) +
            " observables, but decoders support at most 64");
    }
    // Copy the factory under the lock, build outside it: decoder
    // construction is slow (matching-graph / Tanner-CSR builds) and must
    // not serialize concurrent engine workers.
    Factory factory;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = factories_.find(spec.name);
        if (it == factories_.end()) {
            std::string known;
            for (const auto &[name, entry] : factories_) {
                known += known.empty() ? name : ", " + name;
            }
            throw std::invalid_argument("unknown decoder '" + spec.name +
                                        "' (registered: " + known + ")");
        }
        factory = it->second;
    }
    return factory(dem, circuit, spec.options);
}

std::unique_ptr<Decoder>
Registry::make(const DecoderSpec &spec, const sim::Dem &dem,
               const circuit::SmCircuit &circuit)
{
    return instance().create(spec, dem, circuit);
}

} // namespace prophunt::decoder
