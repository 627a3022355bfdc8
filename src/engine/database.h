/**
 * @file
 * Database: catalog + storage objects + page registry. Owns every
 * table (functional data, layout, B-tree indexes, optional updateable
 * columnstore index), allocates pages into a registry that is bound
 * to a per-run BufferPool, and owns the full-scale virtual address
 * space used for cache modelling.
 */

#ifndef DBSENS_ENGINE_DATABASE_H
#define DBSENS_ENGINE_DATABASE_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/table_handle.h"
#include "hw/virtual_space.h"
#include "storage/buffer_pool.h"

namespace dbsens {

/** Definition of a table to create. */
struct TableDef
{
    std::string name;
    Schema schema;
    StorageLayout layout = StorageLayout::RowStore;
    /** Expected maximum rows (sizes the cache region for growth). */
    uint64_t expectedRows = 1024;
    /** Columns to index with B-trees (row-store tables). */
    std::vector<std::string> indexColumns;
    /** Attach an updateable columnstore index (HTAP design). */
    bool columnstoreIndex = false;
};

/** A database: catalog, storage, stats, and page registry. */
class Database : public TableResolver
{
  public:
    /** A stored table and its physical structures. */
    class Table : public TableHandle
    {
      public:
        BTree *indexOn(const std::string &column) const override;

        /** All B-tree indexes (column -> tree). */
        const std::map<std::string, std::unique_ptr<BTree>> &
        indexes() const
        {
            return indexes_;
        }

        /**
         * Append a row, maintaining indexes and the columnstore
         * delta. Returns the new RowId; reports pages whose contents
         * changed (for buffer dirtying) via `dirtied`.
         */
        RowId insertRow(const std::vector<Value> &row,
                        std::vector<PageId> *dirtied = nullptr);

        /** Remove a row from indexes and mark it deleted. */
        void deleteRow(RowId r, std::vector<PageId> *dirtied = nullptr);

        /**
         * Undo a delete in place: restore the row's values at its
         * original RowId, clear the deleted bit, and re-insert index
         * entries. Keeps RowIds stable across delete/undo cycles.
         */
        void restoreRow(RowId r, const std::vector<Value> &row,
                        std::vector<PageId> *dirtied = nullptr);

        /** Real data bytes (heap pages or compressed columns). */
        uint64_t dataBytes() const;

        /** Real index bytes (B-trees + columnstore index). */
        uint64_t indexBytes() const;

      private:
        friend class Database;
        std::unique_ptr<TableData> dataOwned_;
        std::unique_ptr<RowStore> rowStore_;
        std::unique_ptr<ColumnStore> columnStore_;
        std::unique_ptr<ColumnstoreIndex> ncci_;
        std::map<std::string, std::unique_ptr<BTree>> indexes_;
        std::map<std::string, ColumnId> indexCols_;
    };

    explicit Database(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Create a table; data is loaded by appending rows. */
    Table &createTable(const TableDef &def);

    /**
     * Finish bulk load: build column stores / columnstore indexes and
     * B-trees over loaded rows, compute statistics.
     */
    void finishLoad();

    // TableResolver.
    const TableHandle &find(const std::string &name) const override;

    Table &table(const std::string &name);
    const std::vector<std::string> &tableNames() const { return order_; }

    /** Register every storage object with a fresh per-run pool. */
    void bindPool(BufferPool &pool);

    /** Drop the bound pool (between runs). */
    void unbindPool() { activePool_ = nullptr; }

    VirtualSpace &space() { return space_; }

    /** Page allocator registering into the registry (and live pool). */
    PageId allocPage(uint64_t bytes);

    /** Total real data bytes across tables. */
    uint64_t dataBytes() const;

    /** Total real index bytes across tables. */
    uint64_t indexBytes() const;

  private:
    struct RegisteredPage
    {
        PageId id;
        uint64_t bytes;
    };

    std::string name_;
    std::map<std::string, std::unique_ptr<Table>> tables_;
    std::vector<std::string> order_;
    VirtualSpace space_;
    std::vector<RegisteredPage> registry_;
    PageId nextPage_ = 1;
    BufferPool *activePool_ = nullptr;
};

} // namespace dbsens

#endif // DBSENS_ENGINE_DATABASE_H
