/**
 * @file
 * Decoder construction by name.
 *
 * `Registry::make(spec, dem, circuit)` builds one of the built-in
 * backends from a name plus that backend's options:
 *
 *   "union_find"  matching decoder for surface-like DEMs (alias "matching")
 *   "bp_osd"      BP+OSD decoder for LDPC DEMs
 *
 * The set of names is fixed; there is no runtime registration. The
 * reference decoders the tests compare against (exhaustive MLE, the
 * unoptimized BP+OSD) live in tests/support/, not here.
 */
#ifndef PROPHUNT_DECODER_REGISTRY_H
#define PROPHUNT_DECODER_REGISTRY_H

#include <memory>
#include <string>
#include <variant>

#include "circuit/sm_circuit.h"
#include "decoder/bp_osd.h"
#include "decoder/decoder.h"
#include "sim/dem.h"

namespace prophunt::decoder {

/**
 * Per-decoder options: backend defaults (`std::monostate`) or BP+OSD
 * options. Passing BpOsdOptions to a matching backend is an error
 * (std::invalid_argument), not a silent fallback.
 */
using DecoderOptions = std::variant<std::monostate, BpOsdOptions>;

/** A decoder selection: backend name plus backend options. */
struct DecoderSpec
{
    std::string name = "union_find";
    DecoderOptions options{};

    DecoderSpec() = default;
    DecoderSpec(std::string n) : name(std::move(n)) {}
    DecoderSpec(const char *n) : name(n) {}
    DecoderSpec(std::string n, DecoderOptions o)
        : name(std::move(n)), options(std::move(o))
    {
    }

    /**
     * Stable human-readable key: name plus every option field, doubles
     * printed round-trip exact (%.17g). Two specs with equal describe()
     * strings construct identical decoders, which is what the engine's
     * artifact cache and the sweep checkpoint fingerprint key on.
     */
    std::string describe() const;
};

/** Decoder construction by name (see the file comment). */
class Registry
{
  public:
    /**
     * Build one decoder for @p dem.
     *
     * @param circuit Source circuit; provides the detector -> check-sector
     * labels the matching-graph construction needs.
     * @throws std::invalid_argument for an unknown name (the message
     * lists the known ones), options of another backend, or a DEM with
     * more than 64 observables.
     */
    static std::unique_ptr<Decoder> make(const DecoderSpec &spec,
                                         const sim::Dem &dem,
                                         const circuit::SmCircuit &circuit);
};

} // namespace prophunt::decoder

#endif // PROPHUNT_DECODER_REGISTRY_H
