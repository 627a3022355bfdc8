#include "engine/database.h"

#include "core/logging.h"

namespace dbsens {

BTree *
Database::Table::indexOn(const std::string &column) const
{
    auto it = indexes_.find(column);
    return it == indexes_.end() ? nullptr : it->second.get();
}

RowId
Database::Table::insertRow(const std::vector<Value> &row,
                           std::vector<PageId> *dirtied)
{
    RowId r;
    if (rowStore_) {
        bool new_page = false;
        r = rowStore_->appendRow(row, &new_page);
        if (dirtied)
            dirtied->push_back(rowStore_->pageOfRow(r));
    } else {
        r = dataOwned_->append(row);
    }
    for (auto &[colname, tree] : indexes_) {
        std::vector<PageId> touched;
        tree->insert(data->column(colname).getInt(r), r,
                     dirtied ? &touched : nullptr);
        if (dirtied && !touched.empty())
            dirtied->push_back(touched.back()); // leaf page written
    }
    if (ncci_)
        ncci_->onInsert(r);
    return r;
}

void
Database::Table::deleteRow(RowId r, std::vector<PageId> *dirtied)
{
    for (auto &[colname, tree] : indexes_)
        tree->erase(data->column(colname).getInt(r), r);
    data->markDeleted(r);
    if (rowStore_ && dirtied)
        dirtied->push_back(rowStore_->pageOfRow(r));
}

void
Database::Table::restoreRow(RowId r, const std::vector<Value> &row,
                            std::vector<PageId> *dirtied)
{
    if (row.size() != data->schema().columnCount())
        panic("row arity mismatch on restore");
    for (ColumnId c = 0; c < ColumnId(row.size()); ++c)
        data->column(c).set(r, row[c]);
    data->unmarkDeleted(r);
    // Mirror deleteRow: B-tree entries come back, the columnstore
    // delta is untouched (deleteRow never removed its entry).
    for (auto &[colname, tree] : indexes_)
        tree->insert(data->column(colname).getInt(r), r);
    if (rowStore_ && dirtied)
        dirtied->push_back(rowStore_->pageOfRow(r));
}

uint64_t
Database::Table::dataBytes() const
{
    if (columnStore_ && columnStore_->built())
        return columnStore_->totalBytes();
    if (rowStore_)
        return rowStore_->dataBytes();
    return data->rowCount() * data->schema().rowWidth();
}

uint64_t
Database::Table::indexBytes() const
{
    uint64_t b = 0;
    for (const auto &[c, tree] : indexes_)
        b += tree->logicalBytes();
    if (ncci_)
        b += ncci_->totalBytes();
    return b;
}

Database::Table &
Database::createTable(const TableDef &def)
{
    if (tables_.count(def.name))
        panic("table '" + def.name + "' already exists");
    auto t = std::make_unique<Table>();
    t->name = def.name;
    t->id = TableId(order_.size());
    t->dataOwned_ = std::make_unique<TableData>(def.schema);
    t->data = t->dataOwned_.get();

    auto alloc = [this](uint64_t bytes) { return allocPage(bytes); };

    if (def.layout == StorageLayout::RowStore) {
        t->rowStore_ = std::make_unique<RowStore>(
            *t->dataOwned_, alloc, space_, def.expectedRows);
        t->rowStore = t->rowStore_.get();
    } else {
        t->columnStore_ = std::make_unique<ColumnStore>(
            *t->dataOwned_, alloc, space_);
        t->columnStore = t->columnStore_.get();
    }
    if (def.columnstoreIndex) {
        t->ncci_ = std::make_unique<ColumnstoreIndex>(*t->dataOwned_,
                                                      alloc, space_);
        t->ncci = t->ncci_.get();
    }
    for (const auto &c : def.indexColumns) {
        const uint32_t width = def.schema.column(
            def.schema.indexOf(c)).width;
        const VirtualRegion region = space_.allocateScaled(
            def.expectedRows * (width + 16));
        t->indexes_.emplace(
            c, std::make_unique<BTree>(alloc, region));
        t->indexCols_.emplace(c, def.schema.indexOf(c));
    }

    Table &ref = *t;
    tables_.emplace(def.name, std::move(t));
    order_.push_back(def.name);
    return ref;
}

void
Database::finishLoad()
{
    for (auto &name : order_) {
        Table &t = *tables_.at(name);
        if (t.rowStore_)
            t.rowStore_->mapExistingRows();
        if (t.columnStore_ && !t.columnStore_->built())
            t.columnStore_->build();
        if (t.ncci_ && !t.ncci_->compressed().built())
            t.ncci_->build();
        // Bulk-build B-trees over loaded rows.
        for (auto &[colname, tree] : t.indexes_) {
            if (tree->entryCount() > 0)
                continue;
            const ColumnData &cd = t.data->column(colname);
            for (RowId r = 0; r < t.data->rowCount(); ++r)
                if (!t.data->isDeleted(r))
                    tree->insert(cd.getInt(r), r);
        }
    }
}

const TableHandle &
Database::find(const std::string &name) const
{
    auto it = tables_.find(name);
    if (it == tables_.end())
        panic("no table named '" + name + "'");
    return *it->second;
}

Database::Table &
Database::table(const std::string &name)
{
    auto it = tables_.find(name);
    if (it == tables_.end())
        panic("no table named '" + name + "'");
    return *it->second;
}

void
Database::bindPool(BufferPool &pool)
{
    pool.reserveObjects(nextPage_, registry_.size());
    for (const auto &p : registry_)
        pool.registerObject(p.id, p.bytes);
    activePool_ = &pool;
}

PageId
Database::allocPage(uint64_t bytes)
{
    const PageId id = nextPage_++;
    registry_.push_back({id, bytes});
    if (activePool_)
        activePool_->registerObject(id, bytes);
    return id;
}

uint64_t
Database::dataBytes() const
{
    uint64_t b = 0;
    for (const auto &[n, t] : tables_)
        b += t->dataBytes();
    return b;
}

uint64_t
Database::indexBytes() const
{
    uint64_t b = 0;
    for (const auto &[n, t] : tables_)
        b += t->indexBytes();
    return b;
}

} // namespace dbsens
