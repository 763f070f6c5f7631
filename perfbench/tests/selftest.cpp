/**
 * @file
 * Self-test of the benchmark's own code: the order statistics and
 * ratios it reports, and that every metric it can emit has a valid
 * name that BENCHMARK.json (path in argv[1]) lists with the same
 * unit, in the same section, and nothing more.
 *
 *   perfbench_selftest BENCHMARK.json      (exit 0 = pass)
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_stats.hh"
#include "metric_names.hh"

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

void
testMedian()
{
    using perfbench::median;
    expect(median({}) == 0.0, "median of nothing is 0");
    expect(median({7.0}) == 7.0, "median of one sample");
    expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median sorts first");
    expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median averages");
}

void
testQuartiles()
{
    using perfbench::quartiles;
    // Expected values are statistics.quantiles(v, n=4) from Python.
    struct Case
    {
        std::vector<double> v;
        double q1, q2, q3;
    };
    const std::vector<Case> cases = {
        {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
        {{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
        {{1, 2, 3, 4, 5}, 1.5, 3.0, 4.5},
        {{1, 2}, 0.75, 1.5, 2.25},
        {{1, 2, 3}, 1.0, 2.0, 3.0},
        {{2, 4, 4, 5, 7, 9, 11, 12, 15, 20, 21}, 4.0, 9.0, 15.0},
    };
    for (const Case &c : cases) {
        const auto q = quartiles(c.v);
        expect(near(q[0], c.q1) && near(q[1], c.q2) && near(q[2], c.q3),
               "quartiles match statistics.quantiles for a case of "
                   + std::to_string(c.v.size()));
    }
    const auto one = quartiles({3.0});
    expect(one[0] == 3.0 && one[1] == 3.0 && one[2] == 3.0,
           "single-sample quartiles repeat the sample");
    expect(near(perfbench::relativeSpread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                (8.25 - 2.75) / 5.5),
           "relative spread is IQR over median");
    expect(perfbench::relativeSpread({5, 5, 5, 5}) == 0.0,
           "constant samples have no spread");
}

void
testRatio()
{
    expect(perfbench::ratio(6.0, 3.0) == 2.0, "ratio divides");
    expect(perfbench::ratio(6.0, 0.0) == 0.0, "ratio of an idle layer is 0");
}

/** Every {"name": .., "unit": ..} pair in one top-level section. */
std::vector<std::pair<std::string, std::string>>
section(const std::string &json, const std::string &key)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::size_t at = json.find("\"" + key + "\"");
    if (at == std::string::npos)
        return out;
    const std::size_t end = json.find(']', at);
    const std::string nameKey = "\"name\": \"";
    const std::string unitKey = "\"unit\": \"";
    while ((at = json.find(nameKey, at)) != std::string::npos && at < end) {
        at += nameKey.size();
        const std::string name = json.substr(at, json.find('"', at) - at);
        std::string unit;
        const std::size_t u = json.find(unitKey, at);
        const std::size_t close = json.find('}', at);
        if (u != std::string::npos && u < close) {
            const std::size_t b = u + unitKey.size();
            unit = json.substr(b, json.find('"', b) - b);
        }
        out.emplace_back(name, unit);
    }
    return out;
}

template <typename Table>
void
testSection(const std::string &json, const std::string &key,
            const Table &table)
{
    const auto listed = section(json, key);
    expect(listed.size() == table.size(),
           key + ": BENCHMARK.json lists " + std::to_string(listed.size())
               + " metrics, the program emits "
               + std::to_string(table.size()));
    std::set<std::string> seen;
    for (std::size_t i = 0; i < table.size(); ++i) {
        const std::string name = table[i].name;
        expect(perfbench::validMetricName(name), "valid name: " + name);
        expect(seen.insert(name).second, "unique name: " + name);
        bool found = false;
        for (const auto &[n, u] : listed)
            found |= n == name && u == table[i].unit;
        expect(found, key + " in BENCHMARK.json lists " + name + " ["
                          + table[i].unit + "]");
    }
}

void
testNames(const char *benchmarkJson)
{
    std::ifstream in(benchmarkJson);
    expect(static_cast<bool>(in),
           std::string("cannot read ") + benchmarkJson);
    std::ostringstream os;
    os << in.rdbuf();
    const std::string json = os.str();
    testSection(json, "end_to_end", perfbench::kEndToEnd);
    testSection(json, "per_layer", perfbench::kPerLayer);
    expect(!perfbench::validMetricName("bad name"),
           "a space is rejected");
    expect(!perfbench::validMetricName(".lead"),
           "a leading dot is rejected");
    expect(!perfbench::validMetricName(""), "empty is rejected");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: perfbench_selftest BENCHMARK.json\n");
        return 2;
    }
    testMedian();
    testQuartiles();
    testRatio();
    testNames(argv[1]);
    std::printf("%s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL",
                failures, failures == 1 ? "" : "s");
    return failures == 0 ? 0 : 1;
}
