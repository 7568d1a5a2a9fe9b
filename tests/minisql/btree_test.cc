/**
 * @file
 * B+tree tests: basic operations, splits, cursors, deletion, and a
 * randomized property test against std::map as the reference model.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "apps/minisql/btree.h"
#include "baselines/memfs.h"
#include "hw/prng.h"

namespace cubicleos::minisql {
namespace {

std::vector<uint8_t>
bytes(const std::string &s)
{
    return std::vector<uint8_t>(s.begin(), s.end());
}

std::string
str(const std::vector<uint8_t> &v)
{
    return std::string(v.begin(), v.end());
}

class BTreeTest : public ::testing::Test {
  protected:
    BTreeTest() : pager(&fs, "/db", 64)
    {
        EXPECT_EQ(pager.open(true), 0);
        pager.begin();
        root = BTree::create(&pager);
    }

    ~BTreeTest() override
    {
        if (pager.inTransaction())
            pager.commit();
    }

    baselines::MemFileApi fs;
    Pager pager;
    uint32_t root = 0;
};

TEST_F(BTreeTest, InsertAndFind)
{
    BTree tree(&pager, root);
    EXPECT_TRUE(tree.insert(bytes("alpha"), bytes("1")));
    EXPECT_TRUE(tree.insert(bytes("beta"), bytes("2")));

    std::vector<uint8_t> val;
    EXPECT_TRUE(tree.find(bytes("alpha"), &val));
    EXPECT_EQ(str(val), "1");
    EXPECT_TRUE(tree.find(bytes("beta"), &val));
    EXPECT_EQ(str(val), "2");
    EXPECT_FALSE(tree.find(bytes("gamma"), &val));
}

TEST_F(BTreeTest, InsertReplacesExistingKey)
{
    BTree tree(&pager, root);
    EXPECT_TRUE(tree.insert(bytes("k"), bytes("old")));
    EXPECT_FALSE(tree.insert(bytes("k"), bytes("new")));
    std::vector<uint8_t> val;
    tree.find(bytes("k"), &val);
    EXPECT_EQ(str(val), "new");
    EXPECT_EQ(tree.countEntries(), 1u);
}

TEST_F(BTreeTest, EraseRemovesKey)
{
    BTree tree(&pager, root);
    tree.insert(bytes("a"), bytes("1"));
    tree.insert(bytes("b"), bytes("2"));
    EXPECT_TRUE(tree.erase(bytes("a")));
    EXPECT_FALSE(tree.erase(bytes("a")));
    EXPECT_FALSE(tree.find(bytes("a"), nullptr));
    EXPECT_TRUE(tree.find(bytes("b"), nullptr));
}

TEST_F(BTreeTest, EmptyValueAllowed)
{
    BTree tree(&pager, root);
    EXPECT_TRUE(tree.insert(bytes("key"), {}));
    std::vector<uint8_t> val{1, 2, 3};
    EXPECT_TRUE(tree.find(bytes("key"), &val));
    EXPECT_TRUE(val.empty());
}

TEST_F(BTreeTest, ManyInsertsForceSplitsAndStayOrdered)
{
    BTree tree(&pager, root);
    constexpr int kN = 5000;
    for (int i = 0; i < kN; ++i) {
        char key[16];
        std::snprintf(key, sizeof(key), "k%08d", i * 7919 % kN);
        std::string value = "value-" + std::to_string(i);
        tree.insert(bytes(key), bytes(value));
    }
    std::string err;
    EXPECT_TRUE(tree.validate(&err)) << err;
    EXPECT_EQ(tree.countEntries(), static_cast<uint64_t>(kN));

    // Cursor yields strictly ascending keys.
    auto cur = tree.cursor();
    std::string prev;
    int n = 0;
    for (cur.seekFirst(); cur.valid(); cur.next()) {
        const std::string k = str(cur.key());
        if (n > 0) {
            ASSERT_LT(prev, k);
        }
        prev = k;
        ++n;
    }
    EXPECT_EQ(n, kN);
    // Root page number is stable across splits.
    EXPECT_EQ(tree.root(), root);
}

TEST_F(BTreeTest, LargeEntriesNearTheLimit)
{
    BTree tree(&pager, root);
    for (int i = 0; i < 40; ++i) {
        std::string key = "key" + std::to_string(i);
        std::string value(kMaxEntryBytes - key.size() - 10, 'v');
        EXPECT_TRUE(tree.insert(bytes(key), bytes(value)));
    }
    std::string err;
    EXPECT_TRUE(tree.validate(&err)) << err;
    std::vector<uint8_t> val;
    EXPECT_TRUE(tree.find(bytes("key17"), &val));
    EXPECT_EQ(val.size(), kMaxEntryBytes - 15);
}

TEST_F(BTreeTest, CursorSeekPositionsAtLowerBound)
{
    BTree tree(&pager, root);
    tree.insert(bytes("b"), bytes("1"));
    tree.insert(bytes("d"), bytes("2"));
    tree.insert(bytes("f"), bytes("3"));

    auto cur = tree.cursor();
    bool exact = false;
    cur.seek(bytes("d"), &exact);
    EXPECT_TRUE(exact);
    EXPECT_EQ(str(cur.key()), "d");

    cur.seek(bytes("c"), &exact);
    EXPECT_FALSE(exact);
    EXPECT_EQ(str(cur.key()), "d");

    cur.seek(bytes("z"), &exact);
    EXPECT_FALSE(cur.valid());
}

TEST_F(BTreeTest, CursorSurvivesEmptyLeavesAfterMassDelete)
{
    BTree tree(&pager, root);
    for (int i = 0; i < 2000; ++i) {
        char key[16];
        std::snprintf(key, sizeof(key), "k%05d", i);
        tree.insert(bytes(key), bytes("x"));
    }
    // Delete a whole middle band, leaving empty leaves.
    for (int i = 500; i < 1500; ++i) {
        char key[16];
        std::snprintf(key, sizeof(key), "k%05d", i);
        EXPECT_TRUE(tree.erase(bytes(key)));
    }
    EXPECT_EQ(tree.countEntries(), 1000u);
    auto cur = tree.cursor();
    cur.seek(bytes("k00499"));
    EXPECT_EQ(str(cur.key()), "k00499");
    cur.next();
    EXPECT_EQ(str(cur.key()), "k01500") << "must skip the empty band";
    std::string err;
    EXPECT_TRUE(tree.validate(&err)) << err;
}

TEST_F(BTreeTest, TwoTreesDoNotInterfere)
{
    const uint32_t root2 = BTree::create(&pager);
    BTree a(&pager, root), b(&pager, root2);
    for (int i = 0; i < 500; ++i) {
        const std::string n = std::to_string(i);
        a.insert(bytes("a" + n), bytes("A"));
        b.insert(bytes("b" + n), bytes("B"));
    }
    EXPECT_EQ(a.countEntries(), 500u);
    EXPECT_EQ(b.countEntries(), 500u);
    EXPECT_FALSE(a.find(bytes("b1"), nullptr));
    EXPECT_FALSE(b.find(bytes("a1"), nullptr));
}

/** Property: matches std::map under random workloads. */
class BTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeProperty, MatchesReferenceModel)
{
    baselines::MemFileApi fs;
    Pager pager(&fs, "/db", 32);
    ASSERT_EQ(pager.open(true), 0);
    pager.begin();
    const uint32_t root = BTree::create(&pager);
    BTree tree(&pager, root);
    std::map<std::string, std::string> model;
    hw::Prng prng(GetParam());

    for (int step = 0; step < 4000; ++step) {
        const auto action = prng.nextBelow(10);
        std::string key =
            "key" + std::to_string(prng.nextBelow(800));
        if (action < 6) {
            std::string value = "v";
            value += std::to_string(prng.nextBelow(100000));
            const bool fresh = tree.insert(bytes(key), bytes(value));
            EXPECT_EQ(fresh, model.find(key) == model.end());
            model[key] = value;
        } else if (action < 8) {
            const bool existed = tree.erase(bytes(key));
            EXPECT_EQ(existed, model.erase(key) > 0);
        } else {
            std::vector<uint8_t> val;
            const bool found = tree.find(bytes(key), &val);
            auto it = model.find(key);
            ASSERT_EQ(found, it != model.end()) << key;
            if (found) {
                EXPECT_EQ(str(val), it->second);
            }
        }
    }
    EXPECT_EQ(tree.countEntries(), model.size());
    std::string err;
    EXPECT_TRUE(tree.validate(&err)) << err;

    // Full-scan equivalence.
    auto cur = tree.cursor();
    auto it = model.begin();
    for (cur.seekFirst(); cur.valid(); cur.next(), ++it) {
        ASSERT_NE(it, model.end());
        EXPECT_EQ(str(cur.key()), it->first);
        EXPECT_EQ(str(cur.value()), it->second);
    }
    EXPECT_EQ(it, model.end());
    pager.commit();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeProperty,
                         ::testing::Values(101, 202, 303, 404));

} // namespace
} // namespace cubicleos::minisql
