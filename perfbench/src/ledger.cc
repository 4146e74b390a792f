#include "ledger.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench
{

std::string
hexDigest(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
median(const std::vector<double> &v)
{
    contig::Percentiles p;
    for (double x : v)
        p.add(x);
    return p.quantile(0.5);
}

Quantile
quantileWithCount(contig::Percentiles &p, double q)
{
    Quantile out;
    out.count = p.count();
    if (out.count == 0)
        return out;
    out.value = p.quantile(q);
    // R-7 places quantile q at rank q * (n - 1); the samples ranked
    // above its floor lie beyond it.
    const auto pos = static_cast<std::size_t>(
        std::floor(std::clamp(q, 0.0, 1.0) *
                   static_cast<double>(out.count - 1)));
    out.beyond = out.count - 1 - pos;
    return out;
}

std::string_view
layerOf(std::string_view name)
{
    return name.substr(0, name.find('.'));
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int p = spans[i].parent;
        if (p >= 0) {
            if (static_cast<std::size_t>(p) >= spans.size())
                throw std::out_of_range("span parent out of range");
            children[p].push_back(i);
        }
    }
    std::vector<std::int64_t> self(spans.size());
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        iv.clear();
        for (std::size_t c : children[i]) {
            const std::int64_t a = std::max(spans[c].startNs, s.startNs);
            const std::int64_t b = std::min(spans[c].endNs, s.endNs);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.startNs;
        for (const auto &[a, b] : iv) {
            const std::int64_t from = std::max(a, reach);
            if (b > from)
                covered += b - from;
            reach = std::max(reach, b);
        }
        self[i] = (s.endNs - s.startNs) - covered;
    }
    return self;
}

Ledger
measuredLedger(const std::vector<Span> &spans,
               const std::vector<bool> &cell_measured,
               const HostFactors *factors)
{
    Ledger out;
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.cell >= cell_measured.size() || !cell_measured[s.cell])
            continue;
        const std::string_view layer = layerOf(s.name);
        const double f = factors ? factors->of(s.cell) : 1.0;
        const double ms = static_cast<double>(self[i]) / 1e6 / f;
        if (layer == "cell") {
            out.cellMs +=
                static_cast<double>(s.endNs - s.startNs) / 1e6 / f;
            out.residualMs += ms;
        } else {
            out.selfMs[std::string(layer)] += ms;
        }
    }
    return out;
}

HostFactors::HostFactors(const std::vector<double> &probe_ms,
                         const std::vector<bool> &measured,
                         double nominal_ms)
    : factor_(probe_ms.size(), 1.0)
{
    if (probe_ms.size() != measured.size())
        throw std::invalid_argument("one probe per cell");
    std::vector<double> phase_ms[2];
    for (std::size_t c = 1; c < probe_ms.size(); ++c) {
        std::vector<double> window;
        const std::size_t lo = c > kWindow ? c - kWindow : 1;
        const std::size_t hi = std::min(probe_ms.size(), c + kWindow + 1);
        for (std::size_t i = lo; i < hi; ++i)
            if (measured[i] == measured[c])
                window.push_back(probe_ms[i]);
        factor_[c] = median(window) / nominal_ms;
        phase_ms[measured[c]].push_back(probe_ms[c]);
    }
    if (!phase_ms[0].empty())
        setUp_ = median(phase_ms[0]) / nominal_ms;
    if (!phase_ms[1].empty())
        measured_ = median(phase_ms[1]) / nominal_ms;
    factor_[0] = setUp_;
}

double
HostFactors::of(std::uint32_t cell) const
{
    // Calls after the last cell take its factor.
    return factor_[std::min<std::size_t>(cell, factor_.size() - 1)];
}

double
HostFactors::phase(bool measured) const
{
    return measured ? measured_ : setUp_;
}

Recorder::Recorder(bool traced) : traced_(traced), epoch_(Clock::now()) {}

std::int64_t
Recorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

int
Recorder::open(std::string_view name)
{
    int span = -1;
    if (traced_) {
        span = static_cast<int>(spans_.size());
        Span s;
        s.name = name;
        s.parent = stack_.empty() ? -1 : stack_.back().span;
        s.cell = cell_;
        spans_.push_back(std::move(s));
    }
    stack_.push_back({0, span});
    // Read the clock last so the bookkeeping above stays outside.
    stack_.back().startNs = nowNs();
    if (span >= 0)
        spans_[span].startNs = stack_.back().startNs;
    return static_cast<int>(stack_.size()) - 1;
}

double
Recorder::close(int token)
{
    const std::int64_t end = nowNs();
    if (token != static_cast<int>(stack_.size()) - 1)
        throw std::logic_error("spans must close innermost first");
    const Open o = stack_.back();
    stack_.pop_back();
    if (o.span >= 0)
        spans_[o.span].endNs = end;
    return static_cast<double>(end - o.startNs) / 1e6;
}

std::uint32_t
Recorder::beginCell(std::string_view kind, bool measured)
{
    cell_ = static_cast<std::uint32_t>(cellMeasured_.size());
    cellKind_ = kind;
    cellMeasured_.push_back(measured);
    cellToken_ = open("cell." + cellKind_);
    return cell_;
}

double
Recorder::endCell()
{
    const double ms = close(cellToken_);
    cellToken_ = -1;
    cell_ = 0;
    cellKind_.clear();
    return ms;
}

void
Recorder::tally(std::string_view key, double ms, double units,
                std::string_view group)
{
    auto &m = calls_[static_cast<int>(phase_)];
    auto it = m.find(key);
    if (it == m.end())
        it = m.emplace(std::string(key), std::vector<Call>{}).first;
    // Outside a cell, a call takes the host factor of the cell that
    // follows it.
    const auto next = static_cast<std::uint32_t>(cellMeasured_.size());
    it->second.push_back({ms, units, cell_ ? cell_ : next,
                          std::string(group.empty() ? cellKind_ : group)});
}

const std::vector<Call> &
Recorder::calls(Phase p, std::string_view key) const
{
    static const std::vector<Call> none;
    const auto &m = calls_[static_cast<int>(p)];
    auto it = m.find(key);
    return it == m.end() ? none : it->second;
}

std::vector<Call>
Recorder::allCalls(std::string_view key) const
{
    std::vector<Call> out = calls(Phase::SetUp, key);
    const std::vector<Call> &m = calls(Phase::Measured, key);
    out.insert(out.end(), m.begin(), m.end());
    return out;
}

void
Recorder::count(std::string_view key, double v)
{
    if (!counting_)
        return;
    auto it = counts_.find(key);
    if (it == counts_.end())
        counts_.emplace(std::string(key), v);
    else
        it->second += v;
}

} // namespace perfbench
