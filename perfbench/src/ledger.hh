/**
 * @file
 * The benchmark's own bookkeeping: a digest of simulated results, a
 * recorder that times every call the driver makes into a libcontig
 * layer (and, in traced runs, keeps a span per call), the self-time
 * ledger computed from those spans, and percentiles reported with
 * their sample count.
 *
 * Everything here runs outside the library: spans sit around public
 * calls, never inside them.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/stats.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** FNV-1a over 64-bit words, folded in call order. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    /** Doubles fold by bit pattern: a result must repeat exactly. */
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** 16 lower-case hex digits. */
std::string hexDigest(std::uint64_t v);

/** Median of `v` (contig::Percentiles' rule); 0 when empty. */
double median(const std::vector<double> &v);

/** A quantile and the number of samples it was taken over. */
struct Quantile
{
    double value = 0.0;
    std::size_t count = 0;
    /** Samples ranked strictly above the quantile's position. */
    std::size_t beyond = 0;
};

/**
 * Quantile `q` of `p` (the R-7 rule of contig::Percentiles), with the
 * sample count and how many samples lie beyond it.
 */
Quantile quantileWithCount(contig::Percentiles &p, double q);

/** One timed call: a layer boundary crossed by the driver. */
struct Span
{
    /** "<layer>.<call>", e.g. "mm.populate"; cells are "cell.<kind>". */
    std::string name;
    std::int64_t startNs = 0; //!< since the recorder was created
    std::int64_t endNs = 0;
    int parent = -1;          //!< index of the enclosing span, or -1
    std::uint32_t cell = 0;   //!< cell id; 0 outside any cell
};

/** The layer a span belongs to: its name up to the first '.'. */
std::string_view layerOf(std::string_view name);

/**
 * Self time of every span: its duration minus the part of it that
 * its child spans cover. Children may overlap each other; covered
 * time counts once.
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

/** Host-time ledger of the measured cells. */
struct Ledger
{
    std::map<std::string, double> selfMs; //!< per layer, excluding "cell"
    double cellMs = 0.0;     //!< summed duration of the measured cells
    double residualMs = 0.0; //!< cell time no layer span covers
};

class HostFactors;

/**
 * The ledger of the measured cells' spans; with `factors`, each span's
 * self time is divided by its cell's host factor.
 */
Ledger measuredLedger(const std::vector<Span> &spans,
                      const std::vector<bool> &cell_measured,
                      const HostFactors *factors = nullptr);

/**
 * One tallied call: its host time, the work it did, the cell whose
 * host factor applies (its own, or the next one for a call made
 * outside any cell), and its group: calls of one group do identical
 * simulated work.
 */
struct Call
{
    double ms = 0.0;
    double units = 0.0;
    std::uint32_t cell = 0;
    std::string group;
};

/**
 * Host-speed factors. The runner probes the host after every cell
 * (HostProbe); a cell's factor is the median of the probes after the
 * cells within kWindow of it in the same phase, over the probe's
 * nominal time. Dividing a host time by its cell's factor removes
 * the drift of the host's speed. Cell id 0 ("outside any cell")
 * takes the median of all set-up probes, and ids past the last cell
 * the last cell's factor.
 */
class HostFactors
{
  public:
    static constexpr std::size_t kWindow = 7;

    /**
     * @param probe_ms probe time after cell c at index c (index 0,
     *        "outside any cell", is unused)
     * @param measured whether cell c was measured, by cell id
     */
    HostFactors(const std::vector<double> &probe_ms,
                const std::vector<bool> &measured, double nominal_ms);

    double of(std::uint32_t cell) const;

    /** Median factor over a phase's cells. */
    double phase(bool measured) const;

  private:
    std::vector<double> factor_;
    double setUp_ = 1.0;
    double measured_ = 1.0;
};

enum class Phase { SetUp, Measured };

/**
 * Times the driver's calls into the library. Every call is timed and
 * tallied; a traced recorder also keeps a Span per call.
 */
class Recorder
{
  public:
    explicit Recorder(bool traced);

    void setPhase(Phase p) { phase_ = p; }

    /**
     * Run `fn` inside span `name` (nested under the innermost open
     * span); returns its host time in ms.
     */
    template <class F>
    double
    timed(std::string_view name, F &&fn)
    {
        const int token = open(name);
        fn();
        return close(token);
    }

    /** Open a cell span; spans until endCell() belong to it. */
    std::uint32_t beginCell(std::string_view kind, bool measured);
    /** Close the cell span; returns its duration in ms. */
    double endCell();

    /**
     * Tally one call of `ms` doing `units` of work under `key`. The
     * call's group is `group`, or the open cell's kind.
     */
    void tally(std::string_view key, double ms, double units = 0.0,
               std::string_view group = {});
    /** The calls tallied under `key` in phase `p`. */
    const std::vector<Call> &calls(Phase p, std::string_view key) const;
    /** The calls tallied under `key` in either phase. */
    std::vector<Call> allCalls(std::string_view key) const;

    /** Add a simulated count (kept only while counting is on). */
    void count(std::string_view key, double v);
    void setCounting(bool on) { counting_ = on; }
    const std::map<std::string, double, std::less<>> &counts() const
    { return counts_; }

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<bool> &cellMeasured() const { return cellMeasured_; }

  private:
    int open(std::string_view name);
    /** Close the innermost span; returns its duration in ms. */
    double close(int token);
    std::int64_t nowNs() const;

    bool traced_;
    Phase phase_ = Phase::SetUp;
    Clock::time_point epoch_;
    /** Open calls: start time and span index (-1 when untraced). */
    struct Open
    {
        std::int64_t startNs;
        int span;
    };
    std::vector<Open> stack_;
    std::vector<Span> spans_;
    std::uint32_t cell_ = 0;
    std::string cellKind_;
    int cellToken_ = -1;
    /** Index = cell id; entry 0 stands for "outside any cell". */
    std::vector<bool> cellMeasured_{false};
    std::map<std::string, std::vector<Call>, std::less<>> calls_[2];
    std::map<std::string, double, std::less<>> counts_;
    bool counting_ = false;
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
