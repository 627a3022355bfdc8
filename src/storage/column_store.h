/**
 * @file
 * Column-store layout: divides a TableData into rowgroups and, per
 * (column, rowgroup), a compressed segment registered as one buffer
 * object. Scans stream whole segments (large sequential I/O), project
 * only the referenced columns, and touch full-scale cache addresses —
 * the columnar advantages the paper's Table 1 relies on for DSS.
 */

#ifndef DBSENS_STORAGE_COLUMN_STORE_H
#define DBSENS_STORAGE_COLUMN_STORE_H

#include <vector>

#include "hw/virtual_space.h"
#include "storage/btree.h"
#include "storage/table_data.h"

namespace dbsens {

/** Compressed columnar layout over a TableData. */
class ColumnStore
{
  public:
    /** Rows per rowgroup (SQL Server uses ~1M; scaled here). */
    static constexpr uint64_t kRowGroupRows = 65536;

    ColumnStore(TableData &data, PageAllocator page_alloc,
                VirtualSpace &space);

    /** Build segments after bulk load (computes compressed sizes). */
    void build();

    TableData &data() { return data_; }
    const TableData &data() const { return data_; }

    uint64_t rowGroups() const { return groups_; }

    /** Buffer object for (column, rowgroup). */
    PageId
    segmentPage(ColumnId col, uint64_t group) const
    {
        return segments_[size_t(col)].pages[size_t(group)];
    }

    /** Full-scale cache address for row `r` of column `col`. */
    uint64_t
    cacheAddr(ColumnId col, RowId r) const
    {
        return segments_[size_t(col)].region.elementAddr(
            r, data_.rowCount() ? data_.rowCount() : 1);
    }

    /** Total compressed bytes across all columns. */
    uint64_t totalBytes() const { return totalBytes_; }

    bool built() const { return built_; }

  private:
    struct ColumnSegments
    {
        std::vector<PageId> pages; // one per rowgroup
        uint64_t bytesPerGroup = 0;
        VirtualRegion region;
    };

    TableData &data_;
    PageAllocator pageAlloc_;
    VirtualSpace &space_;
    std::vector<ColumnSegments> segments_;
    uint64_t groups_ = 0;
    uint64_t totalBytes_ = 0;
    bool built_ = false;
};

} // namespace dbsens

#endif // DBSENS_STORAGE_COLUMN_STORE_H
