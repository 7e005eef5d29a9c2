/**
 * @file
 * Small statistics helpers used by the evaluation harness: scalar
 * accumulators, geometric means (the paper reports geomeans throughout),
 * and a fixed-width table printer for regenerating the paper's tables.
 */

#ifndef FLOWGUARD_SUPPORT_STATS_HH
#define FLOWGUARD_SUPPORT_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace flowguard {

/** Accumulates samples; exposes count/sum/mean/max and geomean. */
class Accumulator
{
  public:
    void add(double sample);

    uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const;
    double max() const;

    /**
     * Geometric mean of the samples. All samples must be positive;
     * computed in log space for stability.
     */
    double geomean() const;

  private:
    uint64_t _count = 0;
    double _sum = 0.0;
    double _logSum = 0.0;
    double _max = 0.0;
};

/**
 * Sample-retaining accumulator for latency-style metrics (deferral
 * ages, backoff delays) where the tail matters more than the mean:
 * exposes arbitrary quantiles alongside the usual scalars.
 */
class Distribution
{
  public:
    void add(double sample);

    /**
     * Folds another distribution's samples into this one. Used to
     * aggregate per-run distributions (e.g. protection-gap widths
     * across a crash-point sweep) into one quantile-able pool.
     */
    void merge(const Distribution &other);

    uint64_t count() const { return _samples.size(); }
    bool empty() const { return _samples.empty(); }
    double mean() const;
    double max() const;

    /**
     * Quantile by linear interpolation between order statistics;
     * `q` in [0, 1]. Requires at least one sample.
     */
    double quantile(double q) const;

    const std::vector<double> &samples() const { return _samples; }

  private:
    void sortIfNeeded() const;

    mutable std::vector<double> _samples;
    mutable bool _sorted = true;
};

/**
 * Fixed-width console table: collects rows of strings and prints them
 * padded to per-column maxima, in the style of the paper's tables.
 */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> header);

    void addRow(std::vector<std::string> cells);

    /** Renders the table (header, rule, rows) to a string. */
    std::string render() const;

    /** Convenience: render and write to stdout. */
    void print() const;

    /** Formats a double with the given precision. */
    static std::string fmt(double value, int precision = 2);

  private:
    std::vector<std::string> _header;
    std::vector<std::vector<std::string>> _rows;
};

/**
 * Minimal streaming JSON writer for the benchmark artifacts
 * (BENCH_*.json): nested objects/arrays, string escaping, and
 * locale-independent number formatting. Not a parser, not validating
 * beyond nesting sanity — just enough to emit machine-readable
 * benchmark results without an external dependency.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Names the next value inside an object. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &text);
    JsonWriter &value(const char *text);
    JsonWriter &value(double number);
    JsonWriter &value(uint64_t number);
    JsonWriter &value(bool flag);

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &name, T &&v)
    {
        key(name);
        return value(std::forward<T>(v));
    }

    /** The document; all containers must be closed. */
    std::string str() const;

    /** Renders to `path`; fatal on I/O failure. */
    void writeFile(const std::string &path) const;

  private:
    void beforeValue();
    void raw(const std::string &text);

    std::string _out;
    /** One char per open container: '{' or '['. */
    std::vector<char> _stack;
    /** Whether the next value at each level needs a leading comma. */
    std::vector<bool> _needComma;
    bool _haveKey = false;
};

} // namespace flowguard

#endif // FLOWGUARD_SUPPORT_STATS_HH
