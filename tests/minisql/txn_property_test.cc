/**
 * @file
 * Transaction property tests: randomized commit/rollback/crash
 * sequences must always leave the database equal to the reference
 * model built from committed operations only.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "apps/minisql/btree.h"
#include "apps/minisql/db.h"
#include "baselines/memfs.h"
#include "hw/prng.h"

namespace cubicleos::minisql {
namespace {

std::vector<uint8_t>
key(int64_t k)
{
    std::vector<uint8_t> out;
    Value(k).encodeKey(&out);
    return out;
}

/**
 * Property: after any interleaving of {insert, erase} batches ended by
 * {commit, rollback, crash}, reopening the database shows exactly the
 * committed state.
 */
class TxnDurability : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TxnDurability, CommittedStateSurvivesAnything)
{
    baselines::MemFileApi fs;
    hw::Prng prng(GetParam());
    std::map<int64_t, std::string> committed;

    // Create the tree once.
    uint32_t root;
    {
        Pager pager(&fs, "/p.db", 16);
        ASSERT_EQ(pager.open(true), 0);
        pager.begin();
        root = BTree::create(&pager);
        pager.setSchemaRoot(root);
        pager.commit();
    }

    for (int round = 0; round < 20; ++round) {
        auto pager = std::make_unique<Pager>(&fs, "/p.db", 16);
        ASSERT_EQ(pager->open(false), 0);
        root = pager->schemaRoot();
        BTree tree(pager.get(), root);

        // Verify the reopened state matches the committed model.
        uint64_t n = 0;
        auto cur = tree.cursor();
        auto it = committed.begin();
        for (cur.seekFirst(); cur.valid(); cur.next(), ++it, ++n) {
            ASSERT_NE(it, committed.end()) << "round " << round;
            const auto v = cur.value();
            ASSERT_EQ(std::string(v.begin(), v.end()), it->second);
        }
        ASSERT_EQ(n, committed.size()) << "round " << round;

        // Apply a random batch.
        pager->begin();
        std::map<int64_t, std::string> pending = committed;
        const int ops = 5 + static_cast<int>(prng.nextBelow(40));
        for (int i = 0; i < ops; ++i) {
            const int64_t k =
                static_cast<int64_t>(prng.nextBelow(300));
            if (prng.nextBelow(4) != 0) {
                std::string v = "r";
                v += std::to_string(round);
                v += "v";
                v += std::to_string(prng.nextBelow(100000));
                tree.insert(key(k),
                            {reinterpret_cast<const uint8_t *>(
                                 v.data()),
                             v.size()});
                pending[k] = v;
            } else {
                tree.erase(key(k));
                pending.erase(k);
            }
        }

        // End the round: commit, rollback, or crash.
        switch (prng.nextBelow(3)) {
          case 0:
            pager->commit();
            committed = std::move(pending);
            break;
          case 1:
            pager->rollback();
            break;
          default:
            // Crash: flush some pages to "disk" first so recovery has
            // something real to undo, then drop the pager mid-txn.
            pager->flushAll();
            break; // destructor leaves the hot journal behind
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnDurability,
                         ::testing::Values(7, 77, 777, 7777));

/** Property: SQL-level transactions preserve aggregate invariants. */
TEST(TxnProperty, BankTransferInvariant)
{
    baselines::MemFileApi fs;
    Database db(&fs, "/bank.db", 32);
    ASSERT_EQ(db.open(), 0);
    db.exec("CREATE TABLE accounts (id INTEGER PRIMARY KEY, "
            "balance INTEGER)");
    db.exec("BEGIN");
    for (int i = 1; i <= 20; ++i) {
        db.exec("INSERT INTO accounts VALUES (" + std::to_string(i) +
                ", 100)");
    }
    db.exec("COMMIT");

    hw::Prng prng(99);
    for (int i = 0; i < 50; ++i) {
        const int from = 1 + static_cast<int>(prng.nextBelow(20));
        const int to = 1 + static_cast<int>(prng.nextBelow(20));
        const int amt = static_cast<int>(prng.nextBelow(50));
        db.exec("BEGIN");
        db.exec("UPDATE accounts SET balance = balance - " +
                std::to_string(amt) + " WHERE id = " +
                std::to_string(from));
        db.exec("UPDATE accounts SET balance = balance + " +
                std::to_string(amt) + " WHERE id = " +
                std::to_string(to));
        if (prng.nextBelow(3) == 0) {
            db.exec("ROLLBACK");
        } else {
            db.exec("COMMIT");
        }
        // Money is conserved after every transaction boundary.
        ASSERT_EQ(db.exec("SELECT sum(balance) FROM accounts")
                      .scalarInt(),
                  2000)
            << "iteration " << i;
    }
    EXPECT_EQ(db.exec("PRAGMA integrity_check").rows[0][0].asText(),
              "ok");
}

} // namespace
} // namespace cubicleos::minisql
