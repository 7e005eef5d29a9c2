#include "isa/loader.hh"

#include <algorithm>
#include <set>

#include "support/logging.hh"
#include "support/random.hh"

namespace flowguard::isa {

namespace {

uint64_t
roundUp(uint64_t value, uint64_t align)
{
    return (value + align - 1) & ~(align - 1);
}

/**
 * Relocation-invariant module content hash. Runs over the pre-fixup
 * instruction stream (module-local offsets only), symbol names, and
 * data images, so the same module produces the same fingerprint under
 * any base assignment — the anchor that lets per-module profiles
 * survive ASLR and rebasing.
 */
uint64_t
moduleFingerprint(const Module &mod)
{
    uint64_t state = 0xf1061c0de5eedULL;
    uint64_t fp = 0;
    auto mix = [&](uint64_t value) {
        state ^= value;
        fp = splitmix64(state);
    };
    auto mixStr = [&](const std::string &s) {
        uint64_t h = 0xcbf29ce484222325ULL;     // FNV-1a
        for (char c : s)
            h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
        mix(h);
    };

    mixStr(mod.name);
    mix(static_cast<uint64_t>(mod.kind));
    mix(mod.codeSize);
    mix(mod.dataSize);
    for (size_t k = 0; k < mod.code.size(); ++k) {
        const Instruction &inst = mod.code[k];
        mix(static_cast<uint64_t>(inst.op));
        mix(static_cast<uint64_t>(inst.rd));
        mix(static_cast<uint64_t>(inst.rs));
        mix(static_cast<uint64_t>(inst.imm));
        mix(inst.target);
        mix(mod.instOffsets[k]);
    }
    for (const auto &fn : mod.functions) {
        mixStr(fn.name);
        mix(fn.offset);
        mix(fn.numInsts);
        mix(fn.exported ? 1 : 0);
    }
    for (const auto &fx : mod.fixups) {
        mix(static_cast<uint64_t>(fx.kind));
        mix(static_cast<uint64_t>(fx.field));
        mix(fx.instIndex);
        mixStr(fx.symbol);
    }
    for (const auto &obj : mod.data) {
        mixStr(obj.name);
        mix(obj.offset);
        for (uint8_t b : obj.bytes)
            mix(b);
        for (const auto &reloc : obj.relocs) {
            mix(reloc.offset);
            mixStr(reloc.symbol);
            mix(reloc.global ? 1 : 0);
        }
    }
    return fp;
}

void
writeLe64(std::vector<uint8_t> &bytes, uint64_t offset, uint64_t value)
{
    fg_assert(offset + 8 <= bytes.size(), "relocation out of range");
    for (int i = 0; i < 8; ++i)
        bytes[offset + i] = static_cast<uint8_t>(value >> (8 * i));
}

} // namespace

Loader &
Loader::addExecutable(Module mod)
{
    fg_assert(!_haveExecutable, "only one executable per program");
    fg_assert(mod.kind == ModuleKind::Executable,
              "addExecutable requires an Executable module");
    _mods.insert(_mods.begin(), std::move(mod));
    if (_vdsoIndex >= 0)
        ++_vdsoIndex;
    _haveExecutable = true;
    return *this;
}

Loader &
Loader::addLibrary(Module mod)
{
    fg_assert(mod.kind == ModuleKind::SharedLib,
              "addLibrary requires a SharedLib module");
    _mods.push_back(std::move(mod));
    return *this;
}

Loader &
Loader::addVdso(Module mod)
{
    fg_assert(_vdsoIndex < 0, "only one VDSO per program");
    fg_assert(mod.kind == ModuleKind::Vdso,
              "addVdso requires a Vdso module");
    _mods.push_back(std::move(mod));
    _vdsoIndex = static_cast<int>(_mods.size() - 1);
    return *this;
}

Loader &
Loader::cr3(uint64_t value)
{
    _cr3 = value;
    return *this;
}

Loader &
Loader::layout(LayoutPolicy policy)
{
    _layout = policy;
    return *this;
}

void
Loader::synthesizePlt(Module &mod)
{
    // Collect the distinct imported symbols, keeping fixup order.
    std::vector<std::string> symbols;
    std::set<std::string> seen;
    for (const auto &fx : mod.fixups) {
        if (fx.kind == FixupKind::PltCall && seen.insert(fx.symbol).second)
            symbols.push_back(fx.symbol);
    }
    if (symbols.empty())
        return;

    std::unordered_map<std::string, uint64_t> stubOffsets;
    for (const auto &sym : symbols) {
        // GOT slot holding the globally resolved address of `sym`.
        DataObject got;
        got.name = "got." + sym;
        got.exported = false;
        got.offset = mod.dataSize;
        got.bytes.assign(8, 0);
        got.relocs.push_back({0, sym, /*global=*/true});
        mod.dataSize += 8;
        const uint64_t got_offset = got.offset;
        mod.data.push_back(std::move(got));

        // Stub: movi r15, &got; load r15, [r15]; jmp *r15
        Function stub;
        stub.name = sym + "@plt";
        stub.exported = false;
        stub.isPltStub = true;
        stub.firstInst = static_cast<uint32_t>(mod.code.size());
        stub.offset = mod.codeSize;
        stubOffsets[sym] = stub.offset;

        Instruction movi;
        movi.op = Opcode::MovImm;
        movi.rd = plt_scratch_reg;
        movi.imm = static_cast<int64_t>(got_offset);
        mod.instOffsets.push_back(mod.codeSize);
        mod.fixups.push_back(
            {static_cast<uint32_t>(mod.code.size()),
             FixupKind::AddDataBase, FixupField::Imm, {}});
        mod.code.push_back(movi);
        mod.codeSize += instSize(Opcode::MovImm);

        Instruction load;
        load.op = Opcode::Load;
        load.rd = plt_scratch_reg;
        load.rs = plt_scratch_reg;
        load.imm = 0;
        mod.instOffsets.push_back(mod.codeSize);
        mod.code.push_back(load);
        mod.codeSize += instSize(Opcode::Load);

        Instruction jmp;
        jmp.op = Opcode::JmpInd;
        jmp.rs = plt_scratch_reg;
        mod.instOffsets.push_back(mod.codeSize);
        mod.code.push_back(jmp);
        mod.codeSize += instSize(Opcode::JmpInd);

        stub.numInsts = 3;
        mod.functions.push_back(std::move(stub));
    }

    // Retarget the original calls at their module-local stubs.
    for (auto &fx : mod.fixups) {
        if (fx.kind != FixupKind::PltCall)
            continue;
        mod.code[fx.instIndex].target = stubOffsets.at(fx.symbol);
        fx.kind = FixupKind::AddCodeBase;
        fx.symbol.clear();
    }
}

Loader::Resolved
Loader::resolveFunc(const std::string &symbol) const
{
    // VDSO-provided functions take precedence (paper §4.1); then the
    // executable, then libraries in load order (interposition).
    if (_vdsoIndex >= 0) {
        const auto &vdso = _mods[_vdsoIndex];
        if (const Function *fn = vdso.findFunction(symbol);
            fn && fn->exported) {
            return {true, _codeBases[_vdsoIndex] + fn->offset};
        }
    }
    for (size_t i = 0; i < _mods.size(); ++i) {
        if (static_cast<int>(i) == _vdsoIndex)
            continue;
        if (const Function *fn = _mods[i].findFunction(symbol);
            fn && fn->exported) {
            return {true, _codeBases[i] + fn->offset};
        }
    }
    return {};
}

Loader::Resolved
Loader::resolveData(const std::string &symbol) const
{
    for (size_t i = 0; i < _mods.size(); ++i) {
        if (const DataObject *obj = _mods[i].findData(symbol);
            obj && obj->exported) {
            return {true, _dataBases[i] + obj->offset};
        }
    }
    return {};
}

Loader::Resolved
Loader::resolveForModule(size_t moduleIndex,
                         const std::string &symbol) const
{
    const Module &mod = _mods[moduleIndex];
    if (const Function *fn = mod.findFunction(symbol))
        return {true, _codeBases[moduleIndex] + fn->offset};
    if (const DataObject *obj = mod.findData(symbol))
        return {true, _dataBases[moduleIndex] + obj->offset};
    if (Resolved r = resolveFunc(symbol); r.found)
        return r;
    return resolveData(symbol);
}

Program
Loader::link()
{
    fg_assert(_haveExecutable, "program has no executable");

    for (auto &mod : _mods)
        synthesizePlt(mod);

    // --- base assignment ------------------------------------------------
    // Fixed and randomized layouts share one path: the policy supplies
    // the arena anchors, and `randomize` adds one seeded page-aligned
    // slide per module (one Rng draw per module, in load order, so a
    // given seed always reproduces the same layout).
    _codeBases.assign(_mods.size(), 0);
    _dataBases.assign(_mods.size(), 0);
    Rng aslr(_layout.seed);
    auto slide = [&]() -> uint64_t {
        if (!_layout.randomize)
            return 0;
        return aslr.below(_layout.maxSlidePages + 1) * layout::page;
    };
    size_t lib_index = 0;
    for (size_t i = 0; i < _mods.size(); ++i) {
        uint64_t base;
        switch (_mods[i].kind) {
          case ModuleKind::Executable:
            base = _layout.execBase + slide();
            break;
          case ModuleKind::SharedLib:
            base = _layout.libBase + lib_index++ * _layout.libStride +
                   slide();
            break;
          case ModuleKind::Vdso:
            base = _layout.vdsoBase + slide();
            break;
          default:
            fg_panic("bad module kind");
        }
        _codeBases[i] = base;
        _dataBases[i] = base +
            roundUp(std::max<uint64_t>(_mods[i].codeSize, 1),
                    layout::page) + layout::page;
    }

    Program prog;
    prog._cr3 = _cr3;
    prog._stackTop = _layout.stackTop;
    prog._stackSize = _layout.stackSize;

    // --- module tables ----------------------------------------------------
    for (size_t i = 0; i < _mods.size(); ++i) {
        const Module &mod = _mods[i];
        LoadedModule lm;
        lm.name = mod.name;
        lm.kind = mod.kind;
        lm.codeBase = _codeBases[i];
        lm.codeEnd = _codeBases[i] + std::max<uint64_t>(mod.codeSize, 1);
        lm.dataBase = _dataBases[i];
        lm.dataEnd = _dataBases[i] + std::max<uint64_t>(mod.dataSize, 1);
        lm.fingerprint = moduleFingerprint(mod);
        for (const auto &fn : mod.functions)
            lm.funcAddrs[fn.name] = lm.codeBase + fn.offset;
        for (const auto &obj : mod.data)
            lm.dataAddrs[obj.name] = lm.dataBase + obj.offset;
        prog._modules.push_back(std::move(lm));
    }

    // --- overlap check ----------------------------------------------------
    // Module images (code + data) and the stack must occupy disjoint
    // ranges under every layout, randomized or not.
    {
        std::vector<std::pair<uint64_t, uint64_t>> ranges;
        for (const auto &lm : prog._modules)
            ranges.emplace_back(lm.codeBase, lm.dataEnd);
        ranges.emplace_back(prog._stackTop - prog._stackSize,
                            prog._stackTop);
        std::sort(ranges.begin(), ranges.end());
        for (size_t i = 1; i < ranges.size(); ++i) {
            fg_assert(ranges[i - 1].second <= ranges[i].first,
                      "module/stack ranges overlap at link time");
        }
    }

    // --- instruction fixups -------------------------------------------
    std::vector<Module> &mods = _mods;
    for (size_t i = 0; i < mods.size(); ++i) {
        Module &mod = mods[i];
        for (const auto &fx : mod.fixups) {
            Instruction &inst = mod.code[fx.instIndex];
            auto apply = [&](uint64_t value, bool add) {
                if (fx.field == FixupField::Target) {
                    inst.target = add ? inst.target + value : value;
                } else {
                    inst.imm = add
                        ? inst.imm + static_cast<int64_t>(value)
                        : static_cast<int64_t>(value);
                }
            };
            switch (fx.kind) {
              case FixupKind::AddCodeBase:
                apply(_codeBases[i], true);
                break;
              case FixupKind::AddDataBase:
                apply(_dataBases[i], true);
                break;
              case FixupKind::ExtFuncAddr: {
                Resolved r = resolveFunc(fx.symbol);
                if (!r.found)
                    fg_fatal("unresolved function symbol '", fx.symbol,
                             "' referenced by ", mod.name);
                apply(r.addr, false);
                break;
              }
              case FixupKind::ExtDataAddr: {
                Resolved r = resolveData(fx.symbol);
                if (!r.found)
                    fg_fatal("unresolved data symbol '", fx.symbol,
                             "' referenced by ", mod.name);
                apply(r.addr, false);
                break;
              }
              case FixupKind::PltCall:
                fg_panic("PltCall fixup survived synthesizePlt");
            }
        }
    }

    // --- data images with relocations -----------------------------------
    for (size_t i = 0; i < mods.size(); ++i) {
        const Module &mod = mods[i];
        if (mod.dataSize == 0)
            continue;
        DataImage image;
        image.addr = _dataBases[i];
        image.bytes.assign(mod.dataSize, 0);
        for (const auto &obj : mod.data) {
            std::copy(obj.bytes.begin(), obj.bytes.end(),
                      image.bytes.begin() +
                          static_cast<int64_t>(obj.offset));
            for (const auto &reloc : obj.relocs) {
                Resolved r = reloc.global
                    ? resolveFunc(reloc.symbol)
                    : resolveForModule(i, reloc.symbol);
                if (!r.found && reloc.global)
                    r = resolveData(reloc.symbol);
                if (!r.found)
                    fg_fatal("unresolved reloc symbol '", reloc.symbol,
                             "' in data object ", mod.name, ":",
                             obj.name);
                writeLe64(image.bytes, obj.offset + reloc.offset,
                          r.addr);
            }
        }
        prog._initialData.push_back(std::move(image));
    }

    // --- flatten instructions and functions ------------------------------
    for (size_t i = 0; i < mods.size(); ++i) {
        const Module &mod = mods[i];
        for (size_t k = 0; k < mod.code.size(); ++k) {
            uint64_t addr = _codeBases[i] + mod.instOffsets[k];
            prog._insts.push_back(mod.code[k]);
            prog._instAddrs.push_back(addr);
            prog._instModule.push_back(static_cast<uint32_t>(i));
        }
        for (const auto &fn : mod.functions) {
            LoadedFunction lf;
            lf.name = fn.name;
            lf.moduleIndex = static_cast<uint32_t>(i);
            lf.exported = fn.exported;
            lf.isPltStub = fn.isPltStub;
            lf.entry = _codeBases[i] + fn.offset;
            uint32_t end_inst = fn.firstInst + fn.numInsts;
            uint64_t end_off = end_inst < mod.instOffsets.size()
                ? mod.instOffsets[end_inst]
                : mod.codeSize;
            lf.end = _codeBases[i] + end_off;
            // Flat instruction indices: module instructions are appended
            // in order, so offset the module-local indices.
            lf.firstInst = static_cast<uint32_t>(
                prog._insts.size() - mod.code.size() + fn.firstInst);
            lf.numInsts = fn.numInsts;
            prog._functions.push_back(std::move(lf));
        }
        for (const auto &hint : mod.jumpTables) {
            Resolved r = resolveForModule(i, hint.table);
            if (!r.found)
                fg_fatal("unresolved jump table '", hint.table, "' in ",
                         mod.name);
            prog._jumpTables.push_back(
                {_codeBases[i] + hint.instOffset, r.addr, hint.count});
        }
    }
    std::sort(prog._functions.begin(), prog._functions.end(),
              [](const LoadedFunction &a, const LoadedFunction &b) {
                  return a.entry < b.entry;
              });

    // --- dense code index, link-time successors and runs ----------------
    for (LoadedModule &lm : prog._modules)
        lm.codeIndex.assign(lm.codeEnd - lm.codeBase, no_inst);
    for (size_t k = 0; k < prog._insts.size(); ++k) {
        LoadedModule &lm = prog._modules[prog._instModule[k]];
        lm.codeIndex[prog._instAddrs[k] - lm.codeBase] =
            static_cast<uint32_t>(k);
    }
    prog._links.resize(prog._insts.size());
    for (size_t k = 0; k < prog._insts.size(); ++k) {
        const Instruction &inst = prog._insts[k];
        InstLinks &links = prog._links[k];
        links.next = prog.instIndexAt(prog._instAddrs[k] + instSize(inst.op));
        if (inst.op == Opcode::Jcc || inst.op == Opcode::Jmp ||
            inst.op == Opcode::Call)
            links.target = prog.instIndexAt(inst.target);
    }
    prog._runEnds.resize(prog._insts.size());
    for (size_t k = prog._insts.size(); k-- > 0;) {
        const Instruction &inst = prog._insts[k];
        const bool ends = inst.isCofi() || inst.op == Opcode::Halt ||
                          prog._links[k].next != k + 1;
        prog._runEnds[k] =
            ends ? static_cast<uint32_t>(k) : prog._runEnds[k + 1];
    }

    // --- entry point ------------------------------------------------------
    const Module &exec = mods[0];
    const Function *entry_fn = exec.findFunction("main");
    if (!entry_fn)
        fg_fatal("entry function 'main' not found in ", exec.name);
    prog._entry = _codeBases[0] + entry_fn->offset;

    return prog;
}

} // namespace flowguard::isa
