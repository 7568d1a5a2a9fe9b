#include "apps/minisql/catalog.h"

#include <cstring>
#include <sstream>

namespace cubicleos::minisql {

namespace {

std::vector<uint8_t>
objKey(int64_t obj_id)
{
    std::vector<uint8_t> key;
    Value(obj_id).encodeKey(&key);
    return key;
}

/** Serialises column definitions: "name:type:pk;...". */
std::string
encodeColumns(const std::vector<ColumnDef> &cols)
{
    std::ostringstream os;
    for (const auto &c : cols) {
        os << c.name << ':' << static_cast<int>(c.type) << ':'
           << (c.primaryKey ? 1 : 0) << ';';
    }
    return os.str();
}

std::vector<ColumnDef>
decodeColumns(const std::string &spec)
{
    std::vector<ColumnDef> cols;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        const std::size_t c1 = spec.find(':', pos);
        const std::size_t c2 = spec.find(':', c1 + 1);
        const std::size_t end = spec.find(';', c2 + 1);
        ColumnDef col;
        col.name = spec.substr(pos, c1 - pos);
        col.type = static_cast<ValueType>(
            std::stoi(spec.substr(c1 + 1, c2 - c1 - 1)));
        col.primaryKey = spec.substr(c2 + 1, end - c2 - 1) == "1";
        cols.push_back(std::move(col));
        pos = end + 1;
    }
    return cols;
}

} // namespace

void
Catalog::load()
{
    tables_.clear();
    indexes_.clear();
    maxObjId_ = 0;

    if (pager_->schemaRoot() == 0) {
        const bool auto_txn = !pager_->inTransaction();
        if (auto_txn)
            pager_->begin();
        pager_->setSchemaRoot(BTree::create(pager_));
        if (auto_txn)
            pager_->commit();
        return;
    }

    BTree schema(pager_, pager_->schemaRoot());
    auto cur = schema.cursor();
    for (cur.seekFirst(); cur.valid(); cur.next()) {
        const auto val = cur.value();
        Row row = decodeRow(val.data(), val.size());
        if (row.empty())
            continue;
        const std::string kind = row[0].asText();
        if (kind == "t" && row.size() >= 5) {
            TableDef def;
            def.name = row[1].asText();
            def.columns = decodeColumns(row[2].asText());
            def.root = static_cast<uint32_t>(row[3].asInt());
            def.rowidColumn = static_cast<int>(row[4].asInt());
            if (row.size() >= 6)
                def.objId = row[5].asInt();
            maxObjId_ = std::max(maxObjId_, def.objId);
            tables_.emplace(def.name, std::move(def));
        } else if (kind == "i" && row.size() >= 6) {
            IndexDef def;
            def.name = row[1].asText();
            def.table = row[2].asText();
            def.column = row[3].asText();
            def.root = static_cast<uint32_t>(row[4].asInt());
            def.unique = row[5].asInt() != 0;
            if (row.size() >= 7)
                def.objId = row[6].asInt();
            maxObjId_ = std::max(maxObjId_, def.objId);
            indexes_.emplace(def.name, std::move(def));
        }
    }
    // Resolve index column positions.
    for (auto &[name, idx] : indexes_) {
        if (TableDef *t = table(idx.table))
            idx.columnIndex = t->columnIndexOf(idx.column);
    }
}

TableDef *
Catalog::table(const std::string &name)
{
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : &it->second;
}

IndexDef *
Catalog::index(const std::string &name)
{
    auto it = indexes_.find(name);
    return it == indexes_.end() ? nullptr : &it->second;
}

std::vector<IndexDef *>
Catalog::indexesOn(const std::string &table)
{
    std::vector<IndexDef *> out;
    for (auto &[name, idx] : indexes_) {
        if (idx.table == table)
            out.push_back(&idx);
    }
    return out;
}

int64_t
Catalog::nextObjId()
{
    return ++maxObjId_;
}

void
Catalog::persistTable(TableDef *def)
{
    Row row;
    row.emplace_back(std::string("t"));
    row.emplace_back(def->name);
    row.emplace_back(encodeColumns(def->columns));
    row.emplace_back(static_cast<int64_t>(def->root));
    row.emplace_back(static_cast<int64_t>(def->rowidColumn));
    row.emplace_back(def->objId);
    BTree schema(pager_, pager_->schemaRoot());
    schema.insert(objKey(def->objId), encodeRow(row));
}

void
Catalog::persistIndex(IndexDef *def)
{
    Row row;
    row.emplace_back(std::string("i"));
    row.emplace_back(def->name);
    row.emplace_back(def->table);
    row.emplace_back(def->column);
    row.emplace_back(static_cast<int64_t>(def->root));
    row.emplace_back(static_cast<int64_t>(def->unique ? 1 : 0));
    row.emplace_back(def->objId);
    BTree schema(pager_, pager_->schemaRoot());
    schema.insert(objKey(def->objId), encodeRow(row));
}

void
Catalog::eraseObject(int64_t obj_id)
{
    BTree schema(pager_, pager_->schemaRoot());
    schema.erase(objKey(obj_id));
}

TableDef *
Catalog::createTable(const CreateTableStmt &stmt)
{
    if (TableDef *existing = table(stmt.name)) {
        if (stmt.ifNotExists)
            return existing;
        throw SqlError("table '" + stmt.name + "' already exists");
    }
    if (stmt.columns.empty())
        throw SqlError("table needs at least one column");

    TableDef def;
    def.name = stmt.name;
    def.columns = stmt.columns;
    for (std::size_t i = 0; i < stmt.columns.size(); ++i) {
        if (stmt.columns[i].primaryKey &&
            stmt.columns[i].type == ValueType::kInt) {
            def.rowidColumn = static_cast<int>(i);
        }
    }
    def.root = BTree::create(pager_);
    def.objId = nextObjId();
    def.nextRowid = 1;
    auto [it, ok] = tables_.emplace(def.name, std::move(def));
    persistTable(&it->second);
    return &it->second;
}

IndexDef *
Catalog::createIndex(const CreateIndexStmt &stmt)
{
    if (index(stmt.name))
        throw SqlError("index '" + stmt.name + "' already exists");
    TableDef *tbl = table(stmt.table);
    if (!tbl)
        throw SqlError("no such table: " + stmt.table);
    const int col = tbl->columnIndexOf(stmt.column);
    if (col < 0)
        throw SqlError("no such column: " + stmt.column);

    IndexDef def;
    def.name = stmt.name;
    def.table = stmt.table;
    def.column = stmt.column;
    def.columnIndex = col;
    def.unique = stmt.unique;
    def.root = BTree::create(pager_);
    def.objId = nextObjId();
    auto [it, ok] = indexes_.emplace(def.name, std::move(def));
    persistIndex(&it->second);
    return &it->second;
}

void
Catalog::freeTree(uint32_t root)
{
    // Free children first (post-order), then the page itself. Node
    // layout knowledge is limited to "interior cells carry a child at
    // offset +2", mirrored from btree.cc.
    DbPage *page = pager_->fetch(root);
    const uint8_t type = page->data[0];
    uint16_t ncells;
    std::memcpy(&ncells, page->data + 2, 2);
    if (type == 2) { // interior
        std::vector<uint32_t> children;
        for (uint16_t i = 0; i < ncells; ++i) {
            uint16_t off;
            std::memcpy(&off, page->data + 12 + 2 * i, 2);
            uint32_t child;
            std::memcpy(&child, page->data + off + 2, 4);
            children.push_back(child);
        }
        uint32_t rightmost;
        std::memcpy(&rightmost, page->data + 8, 4);
        children.push_back(rightmost);
        pager_->release(page);
        for (uint32_t child : children)
            freeTree(child);
    } else {
        pager_->release(page);
    }
    pager_->freePage(root);
}

void
Catalog::dropTable(const std::string &name)
{
    TableDef *tbl = table(name);
    if (!tbl)
        throw SqlError("no such table: " + name);
    for (IndexDef *idx : indexesOn(name)) {
        freeTree(idx->root);
        eraseObject(idx->objId);
        indexes_.erase(idx->name);
    }
    freeTree(tbl->root);
    eraseObject(tbl->objId);
    tables_.erase(name);
}

} // namespace cubicleos::minisql
