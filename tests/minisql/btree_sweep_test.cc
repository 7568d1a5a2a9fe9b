/**
 * @file
 * Parameterized B+tree sweeps: entry sizes from tiny keys to the
 * per-entry limit, ensuring split logic is correct at every payload
 * shape (cells per page ranges from ~2 to hundreds).
 */

#include <gtest/gtest.h>

#include <string>

#include "apps/minisql/btree.h"
#include "baselines/memfs.h"

namespace cubicleos::minisql {
namespace {

struct SweepParam {
    std::size_t keyLen;
    std::size_t valLen;
    int entries;
};

class BTreeSweep : public ::testing::TestWithParam<SweepParam> {};

std::vector<uint8_t>
paddedKey(int i, std::size_t len)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%012d", i);
    std::vector<uint8_t> key(std::max<std::size_t>(len, 12), 'k');
    std::copy(buf, buf + 12, key.begin());
    return key;
}

TEST_P(BTreeSweep, InsertFindScanErase)
{
    const SweepParam p = GetParam();
    baselines::MemFileApi fs;
    Pager pager(&fs, "/sweep.db", 64);
    ASSERT_EQ(pager.open(true), 0);
    pager.begin();
    BTree tree(&pager, BTree::create(&pager));

    // Insert in a scattered order.
    for (int i = 0; i < p.entries; ++i) {
        const int k = (i * 31) % p.entries;
        std::vector<uint8_t> value(p.valLen,
                                   static_cast<uint8_t>(k & 0xFF));
        ASSERT_TRUE(tree.insert(paddedKey(k, p.keyLen), value)) << k;
    }
    std::string err;
    ASSERT_TRUE(tree.validate(&err)) << err;
    ASSERT_EQ(tree.countEntries(),
              static_cast<uint64_t>(p.entries));

    // Every entry is found with the right payload.
    for (int k = 0; k < p.entries; k += 7) {
        std::vector<uint8_t> value;
        ASSERT_TRUE(tree.find(paddedKey(k, p.keyLen), &value)) << k;
        ASSERT_EQ(value.size(), p.valLen);
        if (p.valLen > 0) {
            EXPECT_EQ(value[0], static_cast<uint8_t>(k & 0xFF));
        }
    }

    // Ordered scan sees every key exactly once, ascending.
    auto cur = tree.cursor();
    int count = 0;
    std::vector<uint8_t> prev;
    for (cur.seekFirst(); cur.valid(); cur.next(), ++count) {
        const auto k = cur.key();
        if (count > 0) {
            ASSERT_LT(std::lexicographical_compare(
                          k.begin(), k.end(), prev.begin(), prev.end()),
                      1);
        }
        prev = k;
    }
    EXPECT_EQ(count, p.entries);

    // Erase every other entry; the rest stay intact.
    for (int k = 0; k < p.entries; k += 2)
        ASSERT_TRUE(tree.erase(paddedKey(k, p.keyLen)));
    ASSERT_TRUE(tree.validate(&err)) << err;
    EXPECT_EQ(tree.countEntries(),
              static_cast<uint64_t>(p.entries / 2));
    for (int k = 1; k < p.entries; k += 2)
        ASSERT_TRUE(tree.find(paddedKey(k, p.keyLen), nullptr)) << k;

    pager.commit();
}

INSTANTIATE_TEST_SUITE_P(
    PayloadShapes, BTreeSweep,
    ::testing::Values(
        SweepParam{12, 0, 3000},    // index-like: key only
        SweepParam{12, 16, 2000},   // small rows
        SweepParam{12, 120, 1500},  // typical rows
        SweepParam{64, 400, 800},   // wide keys, medium rows
        SweepParam{12, 1500, 300},  // near the entry limit: ~2/page
        SweepParam{200, 1500, 200}, // max-ish everything
        SweepParam{12, 48, 6000})); // deep tree

} // namespace
} // namespace cubicleos::minisql
