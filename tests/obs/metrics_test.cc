#include <gtest/gtest.h>

#include <vector>

#include "base/json.hh"
#include "obs/metrics.hh"

using namespace contig;
using namespace contig::obs;

TEST(MetricSink, TypedEmissions)
{
    MetricSink sink;
    sink.counter("c", 2);
    sink.counter("c", 3);
    sink.gauge("g", 1.5);
    Summary s;
    s.add(4.0);
    sink.summary("s", s);

    const SampleMap &m = sink.samples();
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m.at("c").type, MetricType::Counter);
    EXPECT_EQ(m.at("c").counter, 5u);
    EXPECT_DOUBLE_EQ(m.at("g").gauge, 1.5);
    EXPECT_EQ(m.at("s").summary.count(), 1u);
}

TEST(MetricSink, ScopePrefixes)
{
    MetricSink sink;
    sink.counter("top", 1);
    {
        MetricSink::Scope zone(sink, "buddy");
        sink.counter("split_count", 7);
        {
            MetricSink::Scope inner(sink, "l0");
            sink.counter("x", 1);
        }
        sink.counter("merge_count", 2);
    }
    sink.counter("top2", 1);

    const SampleMap &m = sink.samples();
    EXPECT_EQ(m.count("top"), 1u);
    EXPECT_EQ(m.count("buddy.split_count"), 1u);
    EXPECT_EQ(m.count("buddy.l0.x"), 1u);
    EXPECT_EQ(m.count("buddy.merge_count"), 1u);
    EXPECT_EQ(m.count("top2"), 1u);
}

TEST(MetricSample, HistogramMergeIsBucketwise)
{
    Log2Histogram a, b;
    a.add(1);      // bucket 0
    a.add(1024);   // bucket 10
    b.add(2);      // bucket 1
    b.add(1500);   // bucket 10

    MetricSink sink;
    sink.histogram("h", a);
    sink.histogram("h", b);
    const MetricSample &s = sink.samples().at("h");
    ASSERT_GE(s.buckets.size(), 11u);
    EXPECT_EQ(s.buckets[0], 1u);
    EXPECT_EQ(s.buckets[1], 1u);
    EXPECT_EQ(s.buckets[10], 2u);
}

TEST(MetricRegistry, OwnedReferencesAreStable)
{
    MetricRegistry reg;
    std::uint64_t &c = reg.counter("a.count");
    // Creating more metrics must not invalidate the reference.
    for (int i = 0; i < 100; ++i)
        reg.counter("filler." + std::to_string(i));
    c = 41;
    ++reg.counter("a.count");
    EXPECT_EQ(reg.snapshot().at("a.count").counter, 42u);
}

TEST(MetricRegistry, OwnedSummaryAndHistogram)
{
    MetricRegistry reg;
    reg.summary("lat").add(2.0);
    reg.summary("lat").add(4.0);
    reg.histogram("sizes").add(8);

    SampleMap snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.at("lat").summary.mean(), 3.0);
    ASSERT_EQ(snap.at("sizes").type, MetricType::Histogram);
    EXPECT_EQ(snap.at("sizes").buckets.at(3), 1u);
}

TEST(MetricRegistry, SourcesArePrefixedAndLive)
{
    MetricRegistry reg;
    std::uint64_t faults = 0;
    auto id = reg.addSource("kernel", [&](MetricSink &sink) {
        sink.counter("faults", faults);
    });
    EXPECT_EQ(reg.sourceCount(), 1u);

    faults = 3;
    EXPECT_EQ(reg.snapshot().at("kernel.faults").counter, 3u);
    faults = 10;
    EXPECT_EQ(reg.snapshot().at("kernel.faults").counter, 10u);

    reg.removeSource(id, /*absorb=*/false);
    EXPECT_EQ(reg.sourceCount(), 0u);
    EXPECT_EQ(reg.snapshot().count("kernel.faults"), 0u);
}

TEST(MetricRegistry, RemovedSourceIsAbsorbed)
{
    MetricRegistry reg;
    auto id = reg.addSource("kernel", [](MetricSink &sink) {
        sink.counter("faults", 7);
    });
    reg.removeSource(id);
    // The final values keep contributing after the source is gone.
    EXPECT_EQ(reg.snapshot().at("kernel.faults").counter, 7u);
}

TEST(MetricRegistry, AbsorbedAndLiveMergeByName)
{
    // Two short-lived "kernels" plus one live one: totals add up, as
    // when a bench builds one system per table row.
    MetricRegistry reg;
    for (int i = 0; i < 2; ++i) {
        MetricSource src(reg, "kernel", [](MetricSink &sink) {
            sink.counter("faults", 5);
        });
    }
    auto live = reg.addSource("kernel", [](MetricSink &sink) {
        sink.counter("faults", 2);
    });
    EXPECT_EQ(reg.snapshot().at("kernel.faults").counter, 12u);
    reg.removeSource(live, false);
}

TEST(MetricRegistry, SourceAbsorbsBeforeBackingStateDies)
{
    // Regression for the absorb-on-destroy lifetime contract: a pull
    // source's callback reads state owned by the same object (the
    // TranslationSim attrib_ table). The final pull must happen at
    // source destruction, while the backing state is still alive, and
    // registry reads after that must serve the absorbed values
    // without ever re-invoking the callback.
    MetricRegistry reg;
    bool backing_alive = false;
    {
        std::vector<std::uint64_t> backing{41};
        backing_alive = true;
        MetricSource src(reg, "sim", [&](MetricSink &sink) {
            ASSERT_TRUE(backing_alive)
                << "source pulled after its backing state died";
            sink.counter("events", backing[0]);
        });
        backing[0] = 42;
        EXPECT_EQ(reg.snapshot().at("sim.events").counter, 42u);
        // `src` dies before `backing` (reverse declaration order):
        // the absorb-on-destroy pull still sees live state.
    }
    backing_alive = false;
    EXPECT_EQ(reg.snapshot().at("sim.events").counter, 42u);
    EXPECT_EQ(reg.snapshot().at("sim.events").counter, 42u);
    EXPECT_EQ(reg.sourceCount(), 0u);
}

TEST(MetricRegistry, MetricSourceMoveTransfersOwnership)
{
    MetricRegistry reg;
    MetricSource a(reg, "x",
                   [](MetricSink &sink) { sink.counter("c", 1); });
    MetricSource b = std::move(a);
    EXPECT_EQ(reg.sourceCount(), 1u);
    MetricSource c;
    c = std::move(b);
    EXPECT_EQ(reg.sourceCount(), 1u);
    // Destruction of `c` (end of scope) removes and absorbs once.
}

TEST(MetricRegistry, ResetOwnedKeepsSources)
{
    MetricRegistry reg;
    reg.counter("owned") = 5;
    auto id = reg.addSource("src", [](MetricSink &sink) {
        sink.counter("c", 1);
    });
    reg.resetOwned();
    SampleMap snap = reg.snapshot();
    EXPECT_EQ(snap.count("owned"), 0u);
    EXPECT_EQ(snap.at("src.c").counter, 1u);
    reg.removeSource(id, false);
}

TEST(MetricRegistry, RestoreOwnedUndoesAbsorbsInPlace)
{
    MetricRegistry reg;
    std::uint64_t &runs = reg.counter("runs");
    Summary &lat = reg.summary("lat");
    runs = 1;
    lat.add(3.0);
    reg.histogram("sizes").add(8);
    {
        MetricSource src(reg, "sim", [](MetricSink &sink) {
            sink.counter("events", 5);
        });
    }
    const SampleMap before = reg.snapshot();
    const MetricRegistry::OwnedState saved = reg.saveOwned();

    // Repetitions: more of everything, plus a metric that is new.
    for (int i = 0; i < 3; ++i) {
        MetricSource src(reg, "sim", [](MetricSink &sink) {
            sink.counter("events", 5);
        });
        ++runs;
        lat.add(100.0);
        reg.histogram("sizes").add(1024);
    }
    reg.gauge("late") = 2.5;
    reg.restoreOwned(saved);

    const SampleMap after = reg.snapshot();
    EXPECT_EQ(after.at("sim.events").counter, 5u);
    EXPECT_EQ(after.at("runs").counter, 1u);
    EXPECT_EQ(after.at("lat").summary.count(), 1u);
    EXPECT_DOUBLE_EQ(after.at("lat").summary.max(), 3.0);
    EXPECT_EQ(after.at("sizes").buckets, before.at("sizes").buckets);
    EXPECT_EQ(after.at("late").gauge, 0.0);
    // The references handed out before the restore still work.
    ++runs;
    lat.add(1.0);
    EXPECT_EQ(reg.snapshot().at("runs").counter, 2u);
    EXPECT_EQ(reg.snapshot().at("lat").summary.count(), 2u);
}

TEST(MetricRegistry, WriteJson)
{
    MetricRegistry reg;
    reg.counter("kernel.faults") = 3;
    reg.gauge("free_pages") = 12.5;
    reg.summary("lat").add(1.0);
    reg.histogram("sizes").add(4);

    JsonWriter w;
    reg.writeJson(w);
    ASSERT_TRUE(w.complete());
    const std::string out = w.str();
    EXPECT_NE(out.find("\"kernel.faults\":3"), std::string::npos);
    EXPECT_NE(out.find("\"free_pages\":12.5"), std::string::npos);
    EXPECT_NE(out.find("\"count\":1"), std::string::npos);
    EXPECT_NE(out.find("\"log2_buckets\""), std::string::npos);
}

TEST(MetricRegistry, GlobalIsSingleton)
{
    EXPECT_EQ(&MetricRegistry::global(), &MetricRegistry::global());
}
