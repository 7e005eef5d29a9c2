#include "support/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <locale>
#include <sstream>

#include "support/logging.hh"

namespace flowguard {

void
Accumulator::add(double sample)
{
    _max = _count == 0 ? sample : std::max(_max, sample);
    ++_count;
    _sum += sample;
    if (sample > 0.0)
        _logSum += std::log(sample);
}

double
Accumulator::mean() const
{
    fg_assert(_count > 0, "mean of empty accumulator");
    return _sum / static_cast<double>(_count);
}

double
Accumulator::max() const
{
    fg_assert(_count > 0, "max of empty accumulator");
    return _max;
}

double
Accumulator::geomean() const
{
    fg_assert(_count > 0, "geomean of empty accumulator");
    return std::exp(_logSum / static_cast<double>(_count));
}

void
Distribution::add(double sample)
{
    _samples.push_back(sample);
    _sorted = false;
}

void
Distribution::merge(const Distribution &other)
{
    if (other._samples.empty())
        return;
    _samples.insert(_samples.end(), other._samples.begin(),
                    other._samples.end());
    _sorted = false;
}

void
Distribution::sortIfNeeded() const
{
    if (!_sorted) {
        std::sort(_samples.begin(), _samples.end());
        _sorted = true;
    }
}

double
Distribution::mean() const
{
    fg_assert(!_samples.empty(), "mean of empty distribution");
    double sum = 0.0;
    for (double s : _samples)
        sum += s;
    return sum / static_cast<double>(_samples.size());
}

double
Distribution::max() const
{
    fg_assert(!_samples.empty(), "max of empty distribution");
    sortIfNeeded();
    return _samples.back();
}

double
Distribution::quantile(double q) const
{
    fg_assert(!_samples.empty(), "quantile of empty distribution");
    fg_assert(q >= 0.0 && q <= 1.0, "quantile out of range");
    sortIfNeeded();
    if (_samples.size() == 1)
        return _samples.front();
    const double rank = q * static_cast<double>(_samples.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, _samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return _samples[lo] + frac * (_samples[hi] - _samples[lo]);
}

TablePrinter::TablePrinter(std::vector<std::string> header)
    : _header(std::move(header))
{}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    fg_assert(cells.size() == _header.size(),
              "row width mismatches header");
    _rows.push_back(std::move(cells));
}

std::string
TablePrinter::render() const
{
    std::vector<size_t> widths(_header.size());
    for (size_t c = 0; c < _header.size(); ++c)
        widths[c] = _header[c].size();
    for (const auto &row : _rows)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream oss;
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            oss << std::left << std::setw(static_cast<int>(widths[c]))
                << row[c];
            oss << (c + 1 == row.size() ? "\n" : "  ");
        }
    };
    emit_row(_header);
    size_t total = 0;
    for (size_t w : widths)
        total += w + 2;
    oss << std::string(total > 2 ? total - 2 : total, '-') << "\n";
    for (const auto &row : _rows)
        emit_row(row);
    return oss.str();
}

void
TablePrinter::print() const
{
    std::fputs(render().c_str(), stdout);
}

std::string
TablePrinter::fmt(double value, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    return oss.str();
}

namespace {

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

void
JsonWriter::raw(const std::string &text)
{
    _out += text;
}

void
JsonWriter::beforeValue()
{
    if (_stack.empty()) {
        fg_assert(_out.empty(), "only one top-level JSON value");
        return;
    }
    if (_stack.back() == '{') {
        fg_assert(_haveKey, "object values need a key()");
        _haveKey = false;
        return;
    }
    if (_needComma.back())
        raw(",");
    _needComma.back() = true;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    fg_assert(!_stack.empty() && _stack.back() == '{',
              "key() outside an object");
    fg_assert(!_haveKey, "key() already pending");
    if (_needComma.back())
        raw(",");
    _needComma.back() = true;
    raw("\"");
    raw(jsonEscape(name));
    raw("\":");
    _haveKey = true;
    return *this;
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    raw("{");
    _stack.push_back('{');
    _needComma.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    fg_assert(!_stack.empty() && _stack.back() == '{',
              "endObject() with no open object");
    fg_assert(!_haveKey, "dangling key()");
    _stack.pop_back();
    _needComma.pop_back();
    raw("}");
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    raw("[");
    _stack.push_back('[');
    _needComma.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    fg_assert(!_stack.empty() && _stack.back() == '[',
              "endArray() with no open array");
    _stack.pop_back();
    _needComma.pop_back();
    raw("]");
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &text)
{
    beforeValue();
    raw("\"");
    raw(jsonEscape(text));
    raw("\"");
    return *this;
}

JsonWriter &
JsonWriter::value(const char *text)
{
    return value(std::string(text));
}

JsonWriter &
JsonWriter::value(double number)
{
    beforeValue();
    if (!std::isfinite(number)) {
        raw("null");    // JSON has no Inf/NaN
        return *this;
    }
    std::ostringstream oss;
    oss.imbue(std::locale::classic());
    oss << std::setprecision(12) << number;
    raw(oss.str());
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t number)
{
    beforeValue();
    raw(std::to_string(number));
    return *this;
}

JsonWriter &
JsonWriter::value(bool flag)
{
    beforeValue();
    raw(flag ? "true" : "false");
    return *this;
}

std::string
JsonWriter::str() const
{
    fg_assert(_stack.empty(), "unclosed JSON container");
    return _out;
}

void
JsonWriter::writeFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    fg_assert(out.good(), "cannot open JSON output file");
    out << str() << "\n";
    fg_assert(out.good(), "JSON write failed");
}

} // namespace flowguard
