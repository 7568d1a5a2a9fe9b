#include "apps/minisql/speedtest.h"

namespace cubicleos::minisql {

namespace {

struct TestDef {
    int id;
    const char *label;
};

const TestDef kTests[] = {
    {100, "autocommit INSERTs"},
    {110, "ordered INSERTs in a transaction"},
    {120, "unordered INSERTs in a transaction"},
    {130, "range SELECTs without index"},
    {140, "LIKE SELECTs, full scan"},
    {142, "SELECT ... ORDER BY"},
    {145, "SELECT ... ORDER BY ... LIMIT"},
    {150, "CREATE INDEX"},
    {160, "point SELECTs via rowid"},
    {161, "point SELECTs via primary key"},
    {170, "cold point SELECTs via index"},
    {180, "indexed UPDATEs in a transaction"},
    {190, "autocommit UPDATEs via rowid"},
    {210, "autocommit text UPDATEs, cold pages"},
    {230, "autocommit sparse UPDATEs"},
    {240, "one UPDATE over the whole table"},
    {250, "repeated full-table count(*)"},
    {260, "aggregates without index"},
    {270, "two-table JOIN via primary key"},
    {280, "JOIN with GROUP BY, cold"},
    {290, "GROUP BY over cold table"},
    {300, "batched INSERTs into fresh table"},
    {310, "LIKE prefix scans, cold"},
    {320, "mass DELETE and reinsert"},
    {400, "full scan in rowid order"},
    {410, "full index scan, cold"},
    {500, "multi-row VALUES INSERTs"},
    {510, "autocommit text rewrites, cold"},
    {520, "batched text rewrites"},
    {980, "PRAGMA integrity_check"},
    {990, "ANALYZE-style statistics scan"},
};

} // namespace

Speedtest::Speedtest(Database *db, int scale, uint64_t seed)
    : db_(db), scale_(scale < 10 ? 10 : scale), prng_(seed)
{
}

const std::vector<int> &
Speedtest::queryIds()
{
    static const std::vector<int> ids = [] {
        std::vector<int> v;
        for (const auto &t : kTests)
            v.push_back(t.id);
        return v;
    }();
    return ids;
}

const char *
Speedtest::labelOf(int id)
{
    for (const auto &t : kTests) {
        if (t.id == id)
            return t.label;
    }
    return "unknown";
}

uint64_t
Speedtest::execCount(const std::string &sql)
{
    const ResultSet rs = db_->exec(sql);
    if (!rs.rows.empty())
        return static_cast<uint64_t>(rs.scalarInt());
    return 0;
}

std::string
Speedtest::randomText(int len)
{
    static const char *kWords[] = {
        "lorem", "ipsum", "dolor", "sit",  "amet", "magna",
        "quis",  "nulla", "vitae", "justo"};
    std::string s;
    while (static_cast<int>(s.size()) < len) {
        if (!s.empty())
            s.push_back(' ');
        s += kWords[prng_.nextBelow(10)];
    }
    s.resize(static_cast<std::size_t>(len));
    return s;
}

SpeedtestResult
Speedtest::run(int id)
{
    SpeedtestResult res;
    res.id = id;
    res.label = labelOf(id);
    const int n = scale_;
    // A "cold" span: ids spread over the whole big table so lookups
    // miss the page cache; a "hot" span stays within a few pages.
    auto rnd = [&](int64_t bound) {
        return prng_.nextInRange(1, bound);
    };

    switch (id) {
      case 100: {
        // Autocommit inserts: one journal + fsync round per row.
        db_->exec("CREATE TABLE t1 (a INTEGER PRIMARY KEY, b INTEGER, "
                  "c TEXT)");
        for (int i = 1; i <= n / 10; ++i) {
            db_->exec("INSERT INTO t1 VALUES (" + std::to_string(i) +
                      "," + std::to_string(rnd(1000000)) + ",'" +
                      randomText(40) + "')");
            ++res.rowsTouched;
        }
        break;
      }
      case 110: {
        db_->exec("CREATE TABLE t2 (a INTEGER PRIMARY KEY, b INTEGER, "
                  "c TEXT)");
        db_->exec("BEGIN");
        for (int i = 1; i <= n; ++i) {
            db_->exec("INSERT INTO t2 VALUES (" + std::to_string(i) +
                      "," + std::to_string(rnd(1000000)) + ",'" +
                      randomText(40) + "')");
            ++res.rowsTouched;
        }
        db_->exec("COMMIT");
        break;
      }
      case 120: {
        db_->exec("CREATE TABLE t3 (a INTEGER PRIMARY KEY, b INTEGER, "
                  "c TEXT)");
        db_->exec("BEGIN");
        // Unordered primary keys: random page targets, more splits.
        for (int i = 1; i <= n; ++i) {
            const int64_t key = (static_cast<int64_t>(i) * 7919) % n + 1;
            db_->exec("INSERT INTO t3 VALUES (" +
                      std::to_string(key * 1000 + i) + "," +
                      std::to_string(rnd(1000000)) + ",'" +
                      randomText(40) + "')");
            ++res.rowsTouched;
        }
        db_->exec("COMMIT");
        break;
      }
      case 130: {
        for (int i = 0; i < 10; ++i) {
            const int64_t lo = rnd(1000000);
            res.rowsTouched += execCount(
                "SELECT count(*) FROM t2 WHERE b BETWEEN " +
                std::to_string(lo) + " AND " +
                std::to_string(lo + 100000));
        }
        break;
      }
      case 140: {
        for (int i = 0; i < 5; ++i) {
            res.rowsTouched += execCount(
                "SELECT count(*) FROM t2 WHERE c LIKE '%ipsum%'");
        }
        break;
      }
      case 142: {
        const auto rs = db_->exec(
            "SELECT a, b FROM t2 WHERE a <= " + std::to_string(n / 4) +
            " ORDER BY b");
        res.rowsTouched = rs.rows.size();
        break;
      }
      case 145: {
        for (int i = 0; i < 10; ++i) {
            const auto rs = db_->exec(
                "SELECT a, b FROM t2 ORDER BY b DESC LIMIT 10");
            res.rowsTouched += rs.rows.size();
        }
        break;
      }
      case 150: {
        db_->exec("CREATE INDEX t2b ON t2(b)");
        db_->exec("CREATE INDEX t3b ON t3(b)");
        res.rowsTouched = static_cast<uint64_t>(2 * n);
        break;
      }
      case 160: {
        db_->exec("BEGIN");
        for (int i = 0; i < n; ++i) {
            // Hot band: the same few pages stay cached.
            res.rowsTouched += execCount(
                "SELECT count(*) FROM t2 WHERE rowid = " +
                std::to_string(rnd(64)));
        }
        db_->exec("COMMIT");
        break;
      }
      case 161: {
        db_->exec("BEGIN");
        for (int i = 0; i < n; ++i) {
            res.rowsTouched += execCount(
                "SELECT count(*) FROM t2 WHERE a = " +
                std::to_string(rnd(64)));
        }
        db_->exec("COMMIT");
        break;
      }
      case 170: {
        // Cold index lookups across the whole key space: most pages
        // come from the file, every probe crosses the OS interface.
        for (int i = 0; i < n; ++i) {
            res.rowsTouched += execCount(
                "SELECT count(*) FROM t2 WHERE b = " +
                std::to_string(rnd(1000000)));
        }
        break;
      }
      case 180: {
        db_->exec("BEGIN");
        for (int i = 0; i < n / 5; ++i) {
            res.rowsTouched += execCount(
                "UPDATE t2 SET b = b + 1 WHERE a = " +
                std::to_string(rnd(64)));
        }
        db_->exec("COMMIT");
        break;
      }
      case 190: {
        for (int i = 0; i < n / 10; ++i) {
            res.rowsTouched += execCount(
                "UPDATE t2 SET b = b + 1 WHERE rowid = " +
                std::to_string(rnd(64)));
        }
        break;
      }
      case 210: {
        for (int i = 0; i < n / 10; ++i) {
            res.rowsTouched += execCount(
                "UPDATE t2 SET c = '" + randomText(40) +
                "' WHERE a = " + std::to_string(rnd(n)));
        }
        break;
      }
      case 230: {
        for (int i = 0; i < n / 10; ++i) {
            res.rowsTouched += execCount(
                "UPDATE t3 SET b = b + 1 WHERE a = " +
                std::to_string(rnd(n) * 1000 + rnd(n)));
        }
        break;
      }
      case 240: {
        res.rowsTouched =
            execCount("UPDATE t2 SET b = b + 1 WHERE a > 0");
        break;
      }
      case 250: {
        db_->exec("BEGIN");
        for (int i = 0; i < 10; ++i)
            res.rowsTouched += execCount("SELECT count(*) FROM t2");
        db_->exec("COMMIT");
        break;
      }
      case 260: {
        for (int i = 0; i < 10; ++i) {
            const auto rs = db_->exec(
                "SELECT min(b), max(b), avg(b) FROM t3");
            res.rowsTouched += rs.rows.size();
        }
        break;
      }
      case 270: {
        db_->exec("BEGIN");
        for (int i = 0; i < 10; ++i) {
            const int64_t lo = rnd(n - 100);
            res.rowsTouched += execCount(
                "SELECT count(*) FROM t1 JOIN t2 ON t2.a = t1.a "
                "WHERE t1.a BETWEEN " +
                std::to_string(lo % (n / 10)) + " AND " +
                std::to_string(lo % (n / 10) + 20));
        }
        db_->exec("COMMIT");
        break;
      }
      case 280: {
        const auto rs = db_->exec(
            "SELECT t2.a % 10, count(*), sum(t2.b) FROM t2 "
            "JOIN t3 ON t3.b = t2.b GROUP BY t2.a % 10");
        res.rowsTouched = rs.rows.size();
        break;
      }
      case 290: {
        for (int i = 0; i < 5; ++i) {
            const auto rs = db_->exec(
                "SELECT a % 97, count(*), sum(b) FROM t3 "
                "GROUP BY a % 97");
            res.rowsTouched += rs.rows.size();
        }
        break;
      }
      case 300: {
        db_->exec("CREATE TABLE t4 (a INTEGER PRIMARY KEY, b INTEGER)");
        db_->exec("BEGIN");
        for (int i = 1; i <= n; ++i) {
            db_->exec("INSERT INTO t4 VALUES (" + std::to_string(i) +
                      "," + std::to_string(rnd(1000)) + ")");
            ++res.rowsTouched;
        }
        db_->exec("COMMIT");
        break;
      }
      case 310: {
        static const char *kPrefixes[] = {"lo", "ip", "do", "ma", "qu"};
        for (int i = 0; i < n / 20; ++i) {
            res.rowsTouched += execCount(
                "SELECT count(*) FROM t2 WHERE c LIKE '" +
                std::string(kPrefixes[prng_.nextBelow(5)]) + "%'");
        }
        break;
      }
      case 320: {
        db_->exec("BEGIN");
        res.rowsTouched += execCount(
            "DELETE FROM t3 WHERE b < 500000");
        db_->exec("COMMIT");
        break;
      }
      case 400: {
        db_->exec("BEGIN");
        res.rowsTouched += execCount("SELECT count(*) FROM t2 "
                                     "WHERE rowid > 0");
        res.rowsTouched +=
            static_cast<uint64_t>(db_->exec("SELECT sum(b) FROM t2")
                                      .scalarInt() != 0);
        db_->exec("COMMIT");
        break;
      }
      case 410: {
        for (int i = 0; i < 5; ++i) {
            res.rowsTouched += execCount(
                "SELECT count(*) FROM t2 WHERE b >= 0");
        }
        break;
      }
      case 500: {
        db_->exec("CREATE TABLE t5 (a INTEGER, b TEXT)");
        db_->exec("BEGIN");
        for (int i = 0; i < n / 10; ++i) {
            std::string sql = "INSERT INTO t5 VALUES ";
            for (int j = 0; j < 10; ++j) {
                if (j)
                    sql += ",";
                sql += "(";
                sql += std::to_string(i * 10 + j);
                sql += ",'";
                sql += randomText(20);
                sql += "')";
            }
            db_->exec(sql);
            res.rowsTouched += 10;
        }
        db_->exec("COMMIT");
        break;
      }
      case 510: {
        for (int i = 0; i < n / 20; ++i) {
            res.rowsTouched += execCount(
                "UPDATE t5 SET b = '" + randomText(24) +
                "' WHERE a = " + std::to_string(rnd(n)));
        }
        break;
      }
      case 520: {
        db_->exec("BEGIN");
        for (int i = 0; i < n / 20; ++i) {
            res.rowsTouched += execCount(
                "UPDATE t5 SET b = '" + randomText(24) +
                "' WHERE a = " + std::to_string(rnd(64)));
        }
        db_->exec("COMMIT");
        break;
      }
      case 980: {
        const auto rs = db_->exec("PRAGMA integrity_check");
        if (rs.rows.empty() || rs.rows[0][0].asText() != "ok")
            throw SqlError("integrity check failed");
        res.rowsTouched = 1;
        break;
      }
      case 990: {
        const auto rs = db_->exec("PRAGMA analyze");
        res.rowsTouched = rs.rows.size();
        break;
      }
      default:
        throw SqlError("unknown speedtest id " + std::to_string(id));
    }
    return res;
}

std::vector<SpeedtestResult>
Speedtest::runAll()
{
    std::vector<SpeedtestResult> out;
    for (int id : queryIds())
        out.push_back(run(id));
    return out;
}

} // namespace cubicleos::minisql
