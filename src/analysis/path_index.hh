/**
 * @file
 * PathIndex — context-sensitive fast-path matching (the future-work
 * extension sketched in §7.1.2: "make the fast path more
 * context-sensitive by matching the high-credit paths, each of which
 * consisting of multiple consecutive high-credit edges").
 *
 * During training, every run of kLength consecutive TIP targets is
 * hashed into the index. At check time a window passes the path test
 * only if each of its n-grams was observed — individually-trained
 * edges chained in a novel order (mimicry) no longer slip through the
 * fast path; they defer to the slow path instead. This strictly
 * strengthens the fast path at the cost of a higher slow-path rate,
 * exactly the trade-off the paper anticipates.
 */

#ifndef FLOWGUARD_ANALYSIS_PATH_INDEX_HH
#define FLOWGUARD_ANALYSIS_PATH_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

namespace flowguard::analysis {

class PathIndex
{
  public:
    /** TIP targets per matched path (n-gram size). */
    static constexpr size_t kLength = 3;

    size_t size() const { return _paths.size(); }

    /** Records every n-gram of a training TIP-target sequence. */
    void observe(const std::vector<uint64_t> &targets);

    /** True if every n-gram of `targets` was observed in training.
     *  Sequences shorter than the path length pass vacuously. */
    bool covers(const std::vector<uint64_t> &targets) const;

    /** True if this single n-gram (exactly kLength targets, oldest
     *  first) was observed. */
    bool containsPath(const uint64_t *targets) const;

    /** Approximate resident bytes. */
    size_t memoryBytes() const;

    /** Raw path hashes, trained and runtime. */
    const std::unordered_set<uint64_t> &hashes() const
    {
        return _paths;
    }

    /** The trained hashes alone, in hashes() order (profile
     *  serialization). */
    std::vector<uint64_t> trainedHashes() const;

    /** Inserts a previously serialized (trained) hash. */
    void insertHash(uint64_t hash);

    // --- runtime overlay ------------------------------------------------
    /**
     * Learns the n-grams of a committed TIP-target sequence (§7.1.1's
     * verdict cache, path-sensitive), appending to `fresh` the hashes
     * not held before, in first-seen order: what a commit journals.
     */
    void learn(std::span<const uint64_t> targets,
               std::vector<uint64_t> &fresh);

    /** Learns one journaled hash (warm restart). */
    void learnHash(uint64_t hash);

    /** Drops every hash learned at runtime, leaving the trained
     *  ones: what a checker crash does. */
    void clearRuntime();

  private:
    static uint64_t hashPath(const uint64_t *targets);

    /** Trained and runtime hashes in one set: one lookup per n-gram. */
    std::unordered_set<uint64_t> _paths;
    /** The members of _paths learned at runtime. */
    std::vector<uint64_t> _runtime;
};

} // namespace flowguard::analysis

#endif // FLOWGUARD_ANALYSIS_PATH_INDEX_HH
