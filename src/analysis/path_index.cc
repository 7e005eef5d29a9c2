#include "analysis/path_index.hh"

#include <algorithm>

#include "support/random.hh"

namespace flowguard::analysis {

uint64_t
PathIndex::hashPath(const uint64_t *targets)
{
    uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (size_t i = 0; i < kLength; ++i) {
        state ^= targets[i];
        state = splitmix64(state);
    }
    return state;
}

void
PathIndex::observe(const std::vector<uint64_t> &targets)
{
    if (targets.size() < kLength)
        return;
    for (size_t i = 0; i + kLength <= targets.size(); ++i)
        insertHash(hashPath(targets.data() + i));
}

void
PathIndex::insertHash(uint64_t hash)
{
    // A hash learned at runtime and now trained is trained.
    if (!_paths.insert(hash).second && !_runtime.empty())
        std::erase(_runtime, hash);
}

std::vector<uint64_t>
PathIndex::trainedHashes() const
{
    std::vector<uint64_t> runtime = _runtime;
    std::ranges::sort(runtime);
    std::vector<uint64_t> trained;
    trained.reserve(_paths.size() - runtime.size());
    for (const uint64_t hash : _paths)
        if (!std::ranges::binary_search(runtime, hash))
            trained.push_back(hash);
    return trained;
}

void
PathIndex::learn(std::span<const uint64_t> targets,
                 std::vector<uint64_t> &fresh)
{
    for (size_t i = 0; i + kLength <= targets.size(); ++i) {
        const uint64_t hash = hashPath(targets.data() + i);
        if (_paths.insert(hash).second) {
            _runtime.push_back(hash);
            fresh.push_back(hash);
        }
    }
}

void
PathIndex::learnHash(uint64_t hash)
{
    if (_paths.insert(hash).second)
        _runtime.push_back(hash);
}

void
PathIndex::clearRuntime()
{
    for (const uint64_t hash : _runtime)
        _paths.erase(hash);
    _runtime.clear();
}

bool
PathIndex::containsPath(const uint64_t *targets) const
{
    return _paths.count(hashPath(targets)) != 0;
}

bool
PathIndex::covers(const std::vector<uint64_t> &targets) const
{
    if (targets.size() < kLength)
        return true;
    for (size_t i = 0; i + kLength <= targets.size(); ++i)
        if (!containsPath(targets.data() + i))
            return false;
    return true;
}

size_t
PathIndex::memoryBytes() const
{
    return _paths.size() * (sizeof(uint64_t) + sizeof(void *)) +
           _runtime.capacity() * sizeof(uint64_t) + sizeof(*this);
}

} // namespace flowguard::analysis
