/**
 * @file
 * Unit and property tests for SQL values, comparison semantics and the
 * order-preserving key encoding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "apps/minisql/value.h"
#include "hw/prng.h"

namespace cubicleos::minisql {
namespace {

int
keyCompare(const std::vector<uint8_t> &a, const std::vector<uint8_t> &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    const int c = n ? std::memcmp(a.data(), b.data(), n) : 0;
    if (c != 0)
        return c < 0 ? -1 : 1;
    return a.size() < b.size() ? -1 : a.size() > b.size() ? 1 : 0;
}

std::vector<uint8_t>
enc(const Value &v)
{
    std::vector<uint8_t> out;
    v.encodeKey(&out);
    return out;
}

TEST(Value, TypesAndCoercions)
{
    EXPECT_TRUE(Value::null().isNull());
    EXPECT_EQ(Value(int64_t{42}).asInt(), 42);
    EXPECT_DOUBLE_EQ(Value(int64_t{42}).asReal(), 42.0);
    EXPECT_EQ(Value(3.5).asInt(), 3);
    EXPECT_EQ(Value(std::string("17")).asInt(), 17);
    EXPECT_EQ(Value(std::string("abc")).asText(), "abc");
    EXPECT_EQ(Value(int64_t{-5}).asText(), "-5");
    EXPECT_EQ(Value::null().asText(), "NULL");
}

TEST(Value, CompareWithinTypes)
{
    EXPECT_LT(Value(int64_t{1}).compare(Value(int64_t{2})), 0);
    EXPECT_EQ(Value(int64_t{7}).compare(Value(int64_t{7})), 0);
    EXPECT_GT(Value(2.5).compare(Value(2.0)), 0);
    EXPECT_LT(Value(std::string("apple")).compare(
                  Value(std::string("banana"))),
              0);
}

TEST(Value, CompareAcrossNumericTypes)
{
    EXPECT_EQ(Value(int64_t{3}).compare(Value(3.0)), 0);
    EXPECT_LT(Value(int64_t{3}).compare(Value(3.5)), 0);
    EXPECT_GT(Value(4.5).compare(Value(int64_t{4})), 0);
}

TEST(Value, StorageClassOrdering)
{
    // NULL < numbers < text (SQLite ordering).
    EXPECT_LT(Value::null().compare(Value(int64_t{-999})), 0);
    EXPECT_LT(Value(int64_t{999}).compare(Value(std::string(""))), 0);
}

TEST(Value, Truthiness)
{
    EXPECT_TRUE(Value(int64_t{1}).truthy());
    EXPECT_TRUE(Value(-0.5).truthy());
    EXPECT_FALSE(Value(int64_t{0}).truthy());
    EXPECT_FALSE(Value::null().truthy());
    EXPECT_FALSE(Value(std::string("x")).truthy());
}

TEST(Value, KeyEncodingOrdersIntegers)
{
    const int64_t cases[] = {-1000000, -17, -1, 0, 1, 5, 4096,
                             1000000000};
    for (std::size_t i = 0; i + 1 < std::size(cases); ++i) {
        EXPECT_LT(keyCompare(enc(Value(cases[i])),
                             enc(Value(cases[i + 1]))),
                  0)
            << cases[i] << " vs " << cases[i + 1];
    }
}

TEST(Value, KeyEncodingOrdersReals)
{
    const double cases[] = {-1e10, -3.5, -0.25, 0.0, 0.25, 3.14, 1e10};
    for (std::size_t i = 0; i + 1 < std::size(cases); ++i) {
        EXPECT_LT(keyCompare(enc(Value(cases[i])),
                             enc(Value(cases[i + 1]))),
                  0);
    }
}

TEST(Value, KeyEncodingOrdersText)
{
    EXPECT_LT(keyCompare(enc(Value(std::string("abc"))),
                         enc(Value(std::string("abd")))),
              0);
    EXPECT_LT(keyCompare(enc(Value(std::string("ab"))),
                         enc(Value(std::string("abc")))),
              0);
    EXPECT_LT(keyCompare(enc(Value(std::string(""))),
                         enc(Value(std::string("a")))),
              0);
}

TEST(Value, KeyEncodingTextIsPrefixSafe)
{
    // "ab" < "ab\x01" even though one is a prefix of the other, and
    // embedded NULs are escaped.
    std::string with_nul("a\0b", 3);
    EXPECT_LT(keyCompare(enc(Value(std::string("a"))),
                         enc(Value(with_nul))),
              0);
    EXPECT_LT(keyCompare(enc(Value(with_nul)),
                         enc(Value(std::string("ab")))),
              0);
}

TEST(Value, KeyEncodingCrossType)
{
    EXPECT_LT(keyCompare(enc(Value::null()), enc(Value(int64_t{0}))),
              0);
    EXPECT_LT(keyCompare(enc(Value(int64_t{1 << 30})),
                         enc(Value(std::string("")))),
              0);
}

/** Property: key encoding order == compare() order on random values. */
class KeyOrderProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeyOrderProperty, MemcmpMatchesCompare)
{
    hw::Prng prng(GetParam());
    std::vector<Value> values;
    for (int i = 0; i < 200; ++i) {
        switch (prng.nextBelow(3)) {
          case 0:
            values.emplace_back(prng.nextInRange(-1'000'000, 1'000'000));
            break;
          case 1:
            values.emplace_back(
                static_cast<double>(prng.nextInRange(-1000, 1000)) / 7.0);
            break;
          default: {
            std::string s;
            const auto len = prng.nextBelow(12);
            for (uint64_t c = 0; c < len; ++c)
                s.push_back(
                    static_cast<char>('a' + prng.nextBelow(26)));
            values.emplace_back(std::move(s));
          }
        }
    }
    for (std::size_t i = 0; i < values.size(); i += 7) {
        for (std::size_t j = 0; j < values.size(); j += 5) {
            const int by_compare = values[i].compare(values[j]);
            const int by_key =
                keyCompare(enc(values[i]), enc(values[j]));
            if (by_compare == 0) {
                // Equal values of the same type encode identically.
                if (values[i].type() == values[j].type()) {
                    EXPECT_EQ(by_key, 0);
                }
            } else {
                EXPECT_EQ(by_compare < 0, by_key < 0)
                    << values[i].asText() << " vs "
                    << values[j].asText();
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyOrderProperty,
                         ::testing::Values(3, 14, 159));

TEST(Record, RowRoundTrip)
{
    Row row;
    row.emplace_back(int64_t{-42});
    row.emplace_back(2.75);
    row.emplace_back(std::string("hello world"));
    row.push_back(Value::null());
    row.emplace_back(std::string(""));

    const auto bytes = encodeRow(row);
    const Row back = decodeRow(bytes.data(), bytes.size());
    ASSERT_EQ(back.size(), row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
        EXPECT_EQ(back[i].type(), row[i].type()) << i;
        EXPECT_EQ(back[i].compare(row[i]), 0) << i;
    }
}

TEST(Record, LargeIntegersRoundTrip)
{
    for (int64_t v : {INT64_MIN + 1, int64_t{-1}, INT64_MAX}) {
        Row row{Value(v)};
        const auto bytes = encodeRow(row);
        const Row back = decodeRow(bytes.data(), bytes.size());
        EXPECT_EQ(back[0].asInt(), v);
    }
}

TEST(Record, EmptyRow)
{
    const auto bytes = encodeRow({});
    EXPECT_TRUE(decodeRow(bytes.data(), bytes.size()).empty());
}

} // namespace
} // namespace cubicleos::minisql
