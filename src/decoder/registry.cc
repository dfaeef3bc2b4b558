#include "decoder/registry.h"

#include <cstdio>
#include <stdexcept>

#include "decoder/matching_graph.h"
#include "decoder/union_find.h"

namespace prophunt::decoder {

std::string
DecoderSpec::describe() const
{
    std::string out = name;
    if (const auto *bp = std::get_if<BpOsdOptions>(&options)) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "{maxIterations=%zu,scale=%.17g,stagnationWindow=%zu}",
                      bp->maxIterations, bp->scale, bp->stagnationWindow);
        out += buf;
    }
    return out;
}

std::unique_ptr<Decoder>
Registry::make(const DecoderSpec &spec, const sim::Dem &dem,
               const circuit::SmCircuit &circuit)
{
    // Predictions are 64-bit observable masks (decoder.h); a wider DEM
    // would silently drop observables instead of decoding them.
    if (dem.numObservables > 64) {
        throw std::invalid_argument(
            "decoder '" + spec.name + "': the DEM has " +
            std::to_string(dem.numObservables) +
            " observables, but decoders support at most 64");
    }
    if (spec.name == "bp_osd") {
        const auto *opts = std::get_if<BpOsdOptions>(&spec.options);
        return std::make_unique<BpOsdDecoder>(dem,
                                              opts ? *opts : BpOsdOptions{});
    }
    if (spec.name == "union_find" || spec.name == "matching") {
        if (!std::holds_alternative<std::monostate>(spec.options)) {
            throw std::invalid_argument(
                "decoder '" + spec.name +
                "': options variant holds a different backend's options");
        }
        return std::make_unique<UnionFindDecoder>(
            buildMatchingGraph(dem, circuit));
    }
    throw std::invalid_argument("unknown decoder '" + spec.name +
                                "' (registered: bp_osd, matching, "
                                "union_find)");
}

} // namespace prophunt::decoder
