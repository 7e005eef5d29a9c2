#include "core/profile_io.hh"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "core/profile_wire.hh"
#include "support/fsio.hh"
#include "support/logging.hh"
#include "support/random.hh"

namespace flowguard {

namespace {

using wire::Reader;
using wire::write64;
using wire::writeString;

constexpr uint32_t profile_magic = 0x46475046;   // "FGPF"
constexpr uint32_t profile_version_v2 = 2;
constexpr uint32_t profile_version_v3 = 3;

/** v3 edge-endpoint sentinel: the address is absolute, not
 *  module-relative (an endpoint outside every module's code range). */
constexpr uint64_t module_absolute = ~0ULL;

/** Renders via the stream writer, then lands atomically: the final
 *  path never holds a torn profile, whatever kills the writer. */
template <typename SaveFn>
void
saveAtomically(const SaveFn &save, const FlowGuard &guard,
               const std::string &path)
{
    std::ostringstream out(std::ios::binary);
    save(guard, out);
    if (!writeFileAtomic(path, out.str()))
        fg_fatal("cannot write profile to ", path);
}

/** Mixes a value into a running hash. */
void
mix(uint64_t &state, uint64_t value)
{
    state ^= value;
    state = splitmix64(state);
}

/** One edge's training annotations, as serialized in v3. */
struct EdgeRecord
{
    uint64_t fromModule = module_absolute;
    uint64_t fromOff = 0;
    uint64_t toModule = module_absolute;
    uint64_t toOff = 0;
    bool credit = false;
    bool varied = false;
    std::vector<analysis::TntSequence> seqs;
};

void
writeEdgeRecord(std::ostream &out, const EdgeRecord &record)
{
    write64(out, record.fromModule);
    write64(out, record.fromOff);
    write64(out, record.toModule);
    write64(out, record.toOff);
    write64(out, record.credit ? 1 : 0);
    write64(out, record.varied ? 1 : 0);
    write64(out, record.seqs.size());
    for (const auto &seq : record.seqs) {
        write64(out, seq.size());
        for (uint8_t bit : seq)
            out.put(static_cast<char>(bit));
    }
}

bool
readEdgeRecord(Reader &r, EdgeRecord &record)
{
    record.fromModule = r.u64();
    record.fromOff = r.u64();
    record.toModule = r.u64();
    record.toOff = r.u64();
    record.credit = r.u64() != 0;
    record.varied = r.u64() != 0;
    const uint64_t num_seqs = r.u64();
    if (r.truncated || num_seqs > (1ULL << 20))
        return false;
    record.seqs.clear();
    for (uint64_t s = 0; s < num_seqs; ++s) {
        const uint64_t len = r.u64();
        if (r.truncated || len > (1ULL << 20))
            return false;
        analysis::TntSequence seq;
        seq.reserve(len);
        for (uint64_t k = 0; k < len; ++k)
            seq.push_back(r.u8());
        record.seqs.push_back(std::move(seq));
    }
    return !r.truncated;
}

/** Index of the module whose code range holds `addr`, or
 *  module_absolute. */
uint64_t
moduleContaining(const std::vector<isa::LoadedModule> &mods,
                 uint64_t addr)
{
    for (size_t m = 0; m < mods.size(); ++m) {
        if (addr >= mods[m].codeBase && addr < mods[m].codeEnd)
            return m;
    }
    return module_absolute;
}

void
writePathSection(const FlowGuard &guard, std::ostream &out)
{
    const analysis::PathIndex *paths = guard.paths();
    write64(out, paths ? paths->length() : 0);
    write64(out, paths ? paths->hashes().size() : 0);
    if (paths)
        for (uint64_t hash : paths->hashes())
            write64(out, hash);
}

void
readPathSection(FlowGuard &guard, Reader &r)
{
    const uint64_t path_length = r.u64();
    const uint64_t path_count = r.u64();
    if (r.truncated)
        return;
    analysis::PathIndex *paths = guard.mutablePaths();
    for (uint64_t i = 0; i < path_count; ++i) {
        const uint64_t hash = r.u64();
        if (r.truncated)
            return;
        if (paths && paths->length() == path_length)
            paths->insertHash(hash);
    }
}

ProfileLoadResult
failWith(ProfileLoadResult result, ProfileLoadResult::Status status,
         std::string message)
{
    result.status = status;
    result.message = std::move(message);
    return result;
}

ProfileLoadResult loadProfileV2(FlowGuard &guard, Reader &r,
                                ProfileLoadResult result);
ProfileLoadResult loadProfileV3(FlowGuard &guard, Reader &r,
                                ProfileLoadResult result);

} // namespace

const char *
profileStatusName(ProfileLoadResult::Status status)
{
    using Status = ProfileLoadResult::Status;
    switch (status) {
      case Status::Ok: return "ok";
      case Status::IoError: return "io-error";
      case Status::BadMagic: return "bad-magic";
      case Status::BadVersion: return "bad-version";
      case Status::FingerprintMismatch: return "fingerprint-mismatch";
      case Status::ShapeMismatch: return "shape-mismatch";
      case Status::Truncated: return "truncated";
      case Status::ModuleMismatch: return "module-mismatch";
      case Status::BadChecksum: return "bad-checksum";
    }
    return "?";
}

uint64_t
programFingerprint(const isa::Program &program)
{
    uint64_t state = 0xF10460A4DF10460AULL;
    mix(state, program.numInsts());
    for (size_t i = 0; i < program.numInsts(); ++i) {
        const isa::Instruction &inst = program.inst(i);
        mix(state, program.instAddr(i));
        mix(state, static_cast<uint64_t>(inst.op));
        mix(state,
            (static_cast<uint64_t>(inst.rd) << 32) | inst.rs);
        mix(state, static_cast<uint64_t>(inst.imm));
        mix(state, inst.target);
    }
    return state;
}

void
saveProfile(const FlowGuard &guard, std::ostream &out)
{
    fg_assert(guard.analyzed(), "analyze() before saving a profile");
    const analysis::ItcCfg &itc = guard.itc();
    const isa::Program &program = guard.program();
    const auto &mods = program.modules();

    // Group edge ids by the module owning the edge's source node.
    // CSR order: edge ids increase monotonically across nodes.
    std::vector<std::vector<EdgeRecord>> sections(mods.size());
    std::vector<EdgeRecord> orphans;
    size_t edge_id = 0;
    for (size_t node = 0; node < itc.numNodes(); ++node) {
        const uint64_t from = itc.nodeAddr(node);
        const uint64_t from_mod = moduleContaining(mods, from);
        for (const uint64_t *t = itc.targetsBegin(node);
             t != itc.targetsEnd(node); ++t, ++edge_id) {
            const int64_t edge = static_cast<int64_t>(edge_id);
            EdgeRecord record;
            record.fromModule = from_mod;
            record.fromOff = from_mod == module_absolute
                ? from
                : from - mods[from_mod].codeBase;
            const uint64_t to_mod = moduleContaining(mods, *t);
            record.toModule = to_mod;
            record.toOff = to_mod == module_absolute
                ? *t
                : *t - mods[to_mod].codeBase;
            record.credit = itc.highCredit(edge);
            record.varied = itc.tntVaried(edge);
            record.seqs = itc.tntSequences(edge);
            // Untrained edges carry no information; the loader
            // re-derives the graph from the binary anyway.
            if (!record.credit && !record.varied &&
                record.seqs.empty())
                continue;
            if (from_mod == module_absolute)
                orphans.push_back(std::move(record));
            else
                sections[from_mod].push_back(std::move(record));
        }
    }

    write64(out, profile_magic);
    write64(out, profile_version_v3);
    write64(out, mods.size());
    // Module table first, so cross-module edge references resolve
    // no matter which section they appear in.
    for (const auto &mod : mods) {
        writeString(out, mod.name);
        write64(out, mod.fingerprint);
    }
    for (const auto &section : sections) {
        write64(out, section.size());
        for (const auto &record : section)
            writeEdgeRecord(out, record);
    }
    write64(out, orphans.size());
    for (const auto &record : orphans)
        writeEdgeRecord(out, record);

    writePathSection(guard, out);
}

void
saveProfile(const FlowGuard &guard, const std::string &path)
{
    saveAtomically(
        [](const FlowGuard &g, std::ostream &o) {
            saveProfile(g, o);
        },
        guard, path);
}

namespace {

ProfileLoadResult
loadProfileV2(FlowGuard &guard, Reader &r, ProfileLoadResult result)
{
    analysis::ItcCfg &itc = guard.itc();

    if (r.u64() != programFingerprint(guard.program()))
        return failWith(std::move(result),
                        ProfileLoadResult::Status::FingerprintMismatch,
                        "profile belongs to a different program");
    const uint64_t nodes = r.u64();
    const uint64_t edges = r.u64();
    if (r.truncated)
        return failWith(std::move(result),
                        ProfileLoadResult::Status::Truncated,
                        "truncated profile header");
    if (nodes != itc.numNodes() || edges != itc.numEdges())
        return failWith(std::move(result),
                        ProfileLoadResult::Status::ShapeMismatch,
                        "profile ITC-CFG shape mismatch");

    for (size_t e = 0; e < itc.numEdges(); e += 64) {
        const uint64_t word = r.u64();
        if (r.truncated)
            return failWith(std::move(result),
                            ProfileLoadResult::Status::Truncated,
                            "truncated credit bitset");
        for (size_t b = 0; b < 64 && e + b < itc.numEdges(); ++b) {
            if ((word >> b) & 1) {
                itc.setHighCredit(static_cast<int64_t>(e + b));
                ++result.edgesApplied;
            }
        }
    }

    for (size_t e = 0; e < itc.numEdges(); ++e) {
        const int64_t edge = static_cast<int64_t>(e);
        const bool varied = r.u64() != 0;
        const uint64_t num_seqs = r.u64();
        if (r.truncated || num_seqs > (1ULL << 20))
            return failWith(std::move(result),
                            ProfileLoadResult::Status::Truncated,
                            "truncated TNT annotations");
        for (uint64_t s = 0; s < num_seqs; ++s) {
            const uint64_t len = r.u64();
            if (r.truncated || len > (1ULL << 20))
                return failWith(std::move(result),
                                ProfileLoadResult::Status::Truncated,
                                "truncated TNT sequence");
            analysis::TntSequence seq;
            seq.reserve(len);
            for (uint64_t k = 0; k < len; ++k)
                seq.push_back(r.u8());
            itc.addTntSequence(edge, seq);
        }
        if (varied)
            itc.markTntVaried(edge);
    }

    readPathSection(guard, r);
    if (r.truncated)
        return failWith(std::move(result),
                        ProfileLoadResult::Status::Truncated,
                        "truncated path section");
    result.modulesLoaded = guard.program().modules().size();
    return result;
}

ProfileLoadResult
loadProfileV3(FlowGuard &guard, Reader &r, ProfileLoadResult result)
{
    analysis::ItcCfg &itc = guard.itc();
    const auto &mods = guard.program().modules();

    const uint64_t num_profile_mods = r.u64();
    if (r.truncated || num_profile_mods > (1ULL << 16))
        return failWith(std::move(result),
                        ProfileLoadResult::Status::Truncated,
                        "truncated module table");

    // Map profile module index -> current module (matched by name,
    // accepted only when the relocation-invariant fingerprints
    // agree — a changed library silently invalidates only its own
    // section).
    std::vector<uint64_t> current_index(num_profile_mods,
                                        module_absolute);
    for (uint64_t m = 0; m < num_profile_mods; ++m) {
        const std::string name = r.str();
        const uint64_t fingerprint = r.u64();
        if (r.truncated)
            return failWith(std::move(result),
                            ProfileLoadResult::Status::Truncated,
                            "truncated module table");
        for (size_t c = 0; c < mods.size(); ++c) {
            if (mods[c].name == name &&
                mods[c].fingerprint == fingerprint) {
                current_index[m] = c;
                break;
            }
        }
    }

    // The executable's own section is non-negotiable: libraries may
    // individually mismatch (their sections are skipped), but a
    // profile whose executable fingerprint differs belongs to a
    // different program.
    for (size_t c = 0; c < mods.size(); ++c) {
        if (mods[c].kind != isa::ModuleKind::Executable)
            continue;
        bool exec_matched = false;
        for (uint64_t m = 0; m < num_profile_mods; ++m)
            exec_matched |= current_index[m] == c;
        if (!exec_matched)
            return failWith(std::move(result),
                            ProfileLoadResult::Status::ModuleMismatch,
                            "executable module '" + mods[c].name +
                                "' does not match the profile");
    }

    // Resolves a (module, offset) endpoint in the current layout.
    const auto resolve = [&](uint64_t module, uint64_t off,
                             uint64_t &addr) {
        if (module == module_absolute) {
            addr = off;
            return true;
        }
        if (module >= current_index.size() ||
            current_index[module] == module_absolute)
            return false;
        addr = mods[current_index[module]].codeBase + off;
        return true;
    };

    const auto applyRecord = [&](const EdgeRecord &record) {
        uint64_t from = 0;
        uint64_t to = 0;
        if (!resolve(record.fromModule, record.fromOff, from) ||
            !resolve(record.toModule, record.toOff, to)) {
            ++result.edgesMissed;
            return;
        }
        const int64_t edge = itc.findEdge(from, to);
        if (edge < 0) {
            ++result.edgesMissed;
            return;
        }
        if (record.credit)
            itc.setHighCredit(edge);
        for (const auto &seq : record.seqs)
            itc.addTntSequence(edge, seq);
        if (record.varied)
            itc.markTntVaried(edge);
        ++result.edgesApplied;
    };

    // Per-module sections (same order as the table), then orphans.
    for (uint64_t m = 0; m <= num_profile_mods; ++m) {
        const bool orphan_section = m == num_profile_mods;
        const uint64_t count = r.u64();
        if (r.truncated || count > (1ULL << 24))
            return failWith(std::move(result),
                            ProfileLoadResult::Status::Truncated,
                            "truncated edge section");
        const bool matched = orphan_section ||
            current_index[m] != module_absolute;
        if (!orphan_section) {
            if (matched)
                ++result.modulesLoaded;
            else
                ++result.modulesSkipped;
        }
        for (uint64_t i = 0; i < count; ++i) {
            EdgeRecord record;
            if (!readEdgeRecord(r, record))
                return failWith(std::move(result),
                                ProfileLoadResult::Status::Truncated,
                                "truncated edge record");
            // A skipped module's records must still be parsed to
            // keep the stream in sync; they are just not applied.
            if (matched)
                applyRecord(record);
        }
    }

    readPathSection(guard, r);
    if (r.truncated)
        return failWith(std::move(result),
                        ProfileLoadResult::Status::Truncated,
                        "truncated path section");

    if (num_profile_mods > 0 && result.modulesLoaded == 0)
        return failWith(std::move(result),
                        ProfileLoadResult::Status::ModuleMismatch,
                        "no profile module matched this program");
    return result;
}

} // namespace

ProfileLoadResult
tryLoadProfile(FlowGuard &guard, std::istream &in)
{
    ProfileLoadResult result;
    if (!in)
        return failWith(std::move(result),
                        ProfileLoadResult::Status::IoError,
                        "unreadable profile stream");
    guard.analyze();

    Reader r{in};
    if (r.u64() != profile_magic || r.truncated)
        return failWith(std::move(result),
                        ProfileLoadResult::Status::BadMagic,
                        "not a FlowGuard profile");
    const uint64_t version = r.u64();
    result.version = static_cast<uint32_t>(version);
    if (version == profile_version_v2)
        return loadProfileV2(guard, r, std::move(result));
    if (version == profile_version_v3)
        return loadProfileV3(guard, r, std::move(result));
    return failWith(std::move(result),
                    ProfileLoadResult::Status::BadVersion,
                    "unsupported FlowGuard profile version " +
                        std::to_string(version));
}

ProfileLoadResult
tryLoadProfile(FlowGuard &guard, const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ProfileLoadResult result;
        return failWith(std::move(result),
                        ProfileLoadResult::Status::IoError,
                        "cannot read profile from " + path);
    }
    return tryLoadProfile(guard, in);
}

void
loadProfile(FlowGuard &guard, std::istream &in)
{
    const ProfileLoadResult result = tryLoadProfile(guard, in);
    if (!result.ok())
        fg_fatal("profile load failed (",
                 profileStatusName(result.status), "): ",
                 result.message);
}

} // namespace flowguard
